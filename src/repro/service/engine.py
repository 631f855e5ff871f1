"""The query engine: one evaluation, two shapes of answer.

One :class:`QueryEngine` wraps one immutable
:class:`~repro.service.index.ReputationIndex` and answers the
service's question: *given address x on day t — is it listed, on which
lists, is the block likely unjust, and what should an operator do?*

The action reuses the batch pipeline's policy
(:func:`repro.core.policy.action_for`, Section 6 of the
paper): an unlisted address is ``ignore``; a listed reused address is
``greylist`` unless some carrying list is a DDoS list (rate beats
precision there), in which case ``block``; a listed non-reused address
is always ``block``.

The index's record loop
(:meth:`~repro.service.index.ReputationIndex.records`) is the one
evaluation: it goes from key search to packed record bytes. The two
shapes are its records as they stand (:meth:`QueryEngine.
query_records`, every answer the server sends) and the same records
decoded into :class:`Verdict` objects (:meth:`QueryEngine.query`,
:meth:`QueryEngine.query_batch`) for library callers such as the
adversary lab. A day outside i32 has no record: its verdict is what
:func:`~repro.service.wire.unlisted_on` makes of the address's record
on the default day, the answer the front door sends for it too.

The engine also accepts a streaming
:class:`~repro.stream.epoch.EpochIndex`. Every call resolves the
current epoch *once* (:meth:`QueryEngine.resolve_state`) and evaluates
all of its queries against that immutable ``(index, epoch, seq)``
snapshot, so a concurrent hot swap can neither tear a verdict nor mix
two epochs inside one batch. Verdicts report the ``(epoch, seq)`` they
were computed against. The snapshot also names the addresses the
resolved epoch's batch rewrote, which the server's cache reads to carry
the rest of its records into that epoch.

The engine holds no state and takes no lock: a verdict is a pure
function of the snapshot the call resolved. The one verdict cache of
the serving stack is :class:`~repro.service.server.ReputationServer`'s
packed-record cache, which sits in front of
:meth:`QueryEngine.query_records` for every codec; the server also
counts what reaches the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..core.policy import BlockAction
from ..net.family import V4, AddressFamily
from ..stream.epoch import EpochIndex
from .index import ReputationIndex
from .wire import CODECS, RECORD_DAYS, BinaryCodec, unlisted_on

__all__ = ["ACTION_IGNORE", "QueryEngine", "Verdict"]

#: Action for traffic from an address not listed on the queried day.
ACTION_IGNORE = BlockAction.IGNORE


@dataclass(frozen=True)
class Verdict:
    """The service's full answer for one ``(ip, day)`` query."""

    ip: int
    day: int
    listed: bool
    lists: Tuple[str, ...]
    nated: bool
    dynamic: bool
    #: Listed *and* reused — the paper's likely-unjust-listing flag.
    unjust: bool
    reuse_kind: str
    users: int
    asn: int
    action: str
    #: Index epoch and last-applied update-log sequence the verdict
    #: was computed against (both 0 for a static, non-streaming index).
    epoch: int = 0
    seq: int = 0
    #: The address family of ``ip`` — formatting only, never compared,
    #: so v4 verdict equality is exactly what it was pre-families.
    family: AddressFamily = field(default=V4, compare=False, repr=False)

    def to_wire(self) -> Dict[str, Any]:
        """JSON-ready dict (canonical-text address, list as array).

        Key order and content are field-for-field identical to the
        pre-family encoding for v4 verdicts.
        """
        return {
            "ip": self.family.format(self.ip),
            "day": self.day,
            "listed": self.listed,
            "lists": list(self.lists),
            "nated": self.nated,
            "dynamic": self.dynamic,
            "unjust": self.unjust,
            "reuse_kind": self.reuse_kind,
            "users": self.users,
            "asn": self.asn,
            "action": self.action,
            "epoch": self.epoch,
            "seq": self.seq,
        }


#: One consistent ``(index, epoch, seq, changed)`` snapshot of an
#: engine's source (:meth:`QueryEngine.resolve_state`): ``changed`` is
#: that epoch's own :attr:`~repro.stream.epoch.Epoch.changed`.
State = Tuple[ReputationIndex, int, int, FrozenSet[int]]


class QueryEngine:
    """Stateless query layer over a :class:`ReputationIndex`."""

    def __init__(
        self,
        index: "ReputationIndex | EpochIndex",
        *,
        # Accepted and ignored only for the frozen probes in
        # benchmarks/serving/probes.py, which pass ``cache_size=0``;
        # it goes when a benchmark PR drops the argument there.
        cache_size: int = 0,
    ) -> None:
        self._source = index
        self._streaming = isinstance(index, EpochIndex)
        # The family never changes across epochs (one run, one family),
        # so it is cached here instead of chased per lookup.
        self._family = (
            index.current.index.family if self._streaming else index.family
        )
        self._codec = CODECS[self._family]

    @property
    def family(self) -> AddressFamily:
        """The address family this engine answers for."""
        return self._family

    @property
    def index(self) -> ReputationIndex:
        """The index queries resolve against *right now* (the current
        epoch's for a streaming source)."""
        return self.resolve_state()[0]

    def resolve_state(self) -> State:
        """One consistent ``(index, epoch, seq, changed)`` snapshot — a
        single atomic reference read, never a lock; every field is the
        one epoch's. A server keying a cache by epoch takes it here and
        hands it back to :meth:`query_records`, so probe and evaluation
        agree."""
        if self._streaming:
            epoch = self._source.current
            return epoch.index, epoch.number, epoch.seq, epoch.changed
        return self._source, 0, 0, frozenset()

    def epoch_state(self) -> Tuple[int, int]:
        """Current ``(epoch, last applied seq)`` — ``(0, 0)`` for a
        static index. The wire handshake reports this pair."""
        _, epoch, seq, _ = self.resolve_state()
        return epoch, seq

    # -- query paths ---------------------------------------------------

    def query(self, ip: int, day: Optional[int] = None) -> Verdict:
        """Point query; ``day`` defaults to the index's notion of now
        (last day of the last collection window)."""
        (verdict,) = self.query_batch(((ip, day),))
        return verdict

    def query_batch(
        self, queries: Iterable[Tuple[int, Optional[int]]]
    ) -> List[Verdict]:
        """Batch query: one verdict per ``(ip, day)`` pair, in order,
        all against the snapshot current when the call began — the
        record loop's records, decoded. A day outside i32 is asked as
        the default day, and :func:`~repro.service.wire.unlisted_on`
        makes its answer."""
        index, epoch, seq, _ = self.resolve_state()
        asked = list(queries)
        wide: Dict[int, int] = {}
        for at, (ip, day) in enumerate(asked):
            if type(day) is int and day not in RECORD_DAYS:
                wide[at] = day
                asked[at] = (ip, None)
        decode = self._codec.decode_record
        family = self._family
        verdicts: List[Verdict] = []
        records = index.records(asked, epoch, seq, self._codec)
        for at, ((ip, _), record) in enumerate(zip(asked, records)):
            fields = decode(record).to_wire()
            if at in wide:
                fields = unlisted_on(fields, wide[at])
            verdicts.append(Verdict(
                ip, fields["day"], fields["listed"], tuple(fields["lists"]),
                fields["nated"], fields["dynamic"], fields["unjust"],
                fields["reuse_kind"], fields["users"], fields["asn"],
                fields["action"], fields["epoch"], fields["seq"], family,
            ))
        return verdicts

    def query_records(
        self,
        state: State,
        pairs: Iterable[Tuple[int, Optional[int]]],
        codec: BinaryCodec,
    ) -> List[bytes]:
        """Queries answered as packed reply records of ``codec``, one
        per ``(ip, day)`` pair, in order, all against ``state`` (a
        :meth:`resolve_state` snapshot the caller already holds), by
        the index's record loop
        (:meth:`~repro.service.index.ReputationIndex.records`)."""
        index, epoch, seq, _ = state
        return index.records(pairs, epoch, seq, codec)

    def stats(self) -> Dict[str, Any]:
        """The ``index`` sizes and ``epoch`` state the engine resolves
        right now — its share of the ``stats`` op's payload."""
        index, epoch, seq, _ = self.resolve_state()
        epoch_info: Dict[str, Any] = {"epoch": epoch, "seq": seq}
        if self._streaming:
            epoch_info = {**self._source.stats(), **epoch_info}
        return {"index": index.stats(), "epoch": epoch_info}
