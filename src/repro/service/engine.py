"""The query engine: one evaluation, two shapes of answer.

One :class:`QueryEngine` answers, over a compiled
:class:`~repro.service.index.ReputationIndex`, the service's question:
*given address x on day t — is it listed, on which lists, is the block
likely unjust, and what should an operator do?*

The action reuses the batch pipeline's policy
(:func:`repro.core.policy.action_for`, Section 6 of the
paper): an unlisted address is ``ignore``; a listed reused address is
``greylist`` unless some carrying list is a DDoS list (rate beats
precision there), in which case ``block``; a listed non-reused address
is always ``block``.

The index's record loop
(:meth:`~repro.service.index.ReputationIndex.records`) is the one
evaluation: it goes from key search to packed record bytes. The server
sends those records as they stand; :meth:`QueryEngine.query` and
:meth:`QueryEngine.query_batch` decode them into :class:`Verdict`
objects for library callers such as the adversary lab. A day outside
i32 has no record: its verdict is what
:func:`~repro.service.wire.unlisted_on` makes of the address's record
on the default day, the answer the front door sends for it too.

An engine answers from one :class:`~repro.stream.epoch.EpochIndex`,
:attr:`QueryEngine.epochs`: the one a log follower feeds, or, handed a
plain index, an epoch that no log feeds (epoch 0, seq 0 for good).
Every call reads :attr:`~repro.stream.epoch.EpochIndex.current` *once*
and evaluates all of its queries against that immutable
:class:`~repro.stream.epoch.Epoch`, so a concurrent hot swap can
neither tear a verdict nor mix two epochs inside one batch; verdicts
report the ``(epoch, seq)`` they were computed against. The server
reads the same epoch source (:class:`~repro.service.server.
ReputationServer`), and keeps the serving stack's one verdict cache;
the engine holds no state and takes no lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.policy import BlockAction
from ..net.family import V4, AddressFamily
from ..stream.epoch import EpochIndex
from .index import ReputationIndex
from .wire import CODECS, RECORD_DAYS, unlisted_on

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


class QueryEngine:
    """Stateless query layer over one epoch source."""

    def __init__(
        self,
        index: "ReputationIndex | EpochIndex",
        *,
        # Accepted and ignored only for the frozen probes in
        # benchmarks/serving/probes.py, which pass ``cache_size=0``;
        # it goes when a benchmark PR drops the argument there.
        cache_size: int = 0,
    ) -> None:
        #: What every call reads its epoch from.
        self.epochs = (
            index if isinstance(index, EpochIndex) else EpochIndex(index)
        )
        # The family never changes across epochs (one run, one family),
        # so it is cached here instead of chased per lookup.
        self._family = self.epochs.index.family
        self._codec = CODECS[self._family]

    @property
    def family(self) -> AddressFamily:
        """The address family this engine answers for."""
        return self._family

    @property
    def index(self) -> ReputationIndex:
        """The index queries resolve against *right now*: the current
        epoch's."""
        return self.epochs.index

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
        all against the epoch current when the call began — the
        record loop's records, decoded. A day outside i32 is asked as
        the default day, and :func:`~repro.service.wire.unlisted_on`
        makes its answer."""
        epoch = self.epochs.current
        asked = list(queries)
        wide: Dict[int, int] = {}
        for at, (ip, day) in enumerate(asked):
            if type(day) is int and day not in RECORD_DAYS:
                wide[at] = day
                asked[at] = (ip, None)
        decode = self._codec.decode_record
        family = self._family
        verdicts: List[Verdict] = []
        records = epoch.index.records(
            asked, epoch.number, epoch.seq, self._codec
        )
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
