"""The query engine: verdicts and call counters.

One :class:`QueryEngine` wraps one immutable
:class:`~repro.service.index.ReputationIndex` and answers the
service's question: *given address x on day t — is it listed, on which
lists, is the block likely unjust, and what should an operator do?*

The action reuses the batch pipeline's policy
(:func:`repro.core.greylist.action_for`, Section 6 of the
paper): an unlisted address is ``ignore``; a listed reused address is
``greylist`` unless some carrying list is a DDoS list (rate beats
precision there), in which case ``block``; a listed non-reused address
is always ``block``.

The engine also accepts a streaming
:class:`~repro.stream.epoch.EpochIndex`: every lookup resolves the
current epoch *once* and evaluates entirely against that immutable
snapshot, so a concurrent hot swap can never produce a torn verdict.
Verdicts report the ``(epoch, seq)`` they were computed against.

The engine holds no per-key state: a verdict is a pure function of the
snapshot the lookup resolved. The one verdict cache of the serving
stack is :class:`~repro.service.server.ReputationServer`'s
packed-record cache, which sits in front of :meth:`query_batch`.
Per-query-type call/latency counters feed the ``stats`` wire op and
the capacity-planning story.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.greylist import BlockAction, action_for
from ..net.family import V4, AddressFamily
from ..stream.epoch import EpochIndex
from .index import ReputationIndex, reuse_kind_of

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
    """Thread-safe query layer over a :class:`ReputationIndex`."""

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
        # Guards the counter table; lookups take no lock.
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[str, float]] = {}

    @property
    def family(self) -> AddressFamily:
        """The address family this engine answers for."""
        return self._family

    @property
    def index(self) -> ReputationIndex:
        """The index queries resolve against *right now* (the current
        epoch's for a streaming source)."""
        return self._resolve()[0]

    def _resolve(self) -> Tuple[ReputationIndex, int, int]:
        """One consistent ``(index, epoch, seq)`` snapshot — a single
        atomic reference read, never a lock."""
        if self._streaming:
            epoch = self._source.current
            return epoch.index, epoch.number, epoch.seq
        return self._source, 0, 0

    def epoch_state(self) -> Tuple[int, int]:
        """Current ``(epoch, last applied seq)`` — ``(0, 0)`` for a
        static index. The wire handshake reports this pair."""
        _, epoch, seq = self._resolve()
        return epoch, seq

    def resolve_state(self) -> Tuple[ReputationIndex, int, int]:
        """One consistent ``(index, epoch, seq)`` snapshot. Servers
        keying caches by epoch take the snapshot here, then attribute
        entries to the epoch each verdict actually came from."""
        return self._resolve()

    # -- query paths ---------------------------------------------------

    def query(self, ip: int, day: Optional[int] = None) -> Verdict:
        """Point query; ``day`` defaults to the index's notion of now
        (last day of the last collection window)."""
        started = time.perf_counter()
        verdict = self._lookup(ip, day)
        self._count("point", time.perf_counter() - started)
        return verdict

    def query_batch(
        self, queries: Iterable[Tuple[int, Optional[int]]]
    ) -> List[Verdict]:
        """Batch query: one verdict per ``(ip, day)`` pair, in order."""
        started = time.perf_counter()
        lookup = self._lookup
        verdicts = [lookup(ip, day) for ip, day in queries]
        self._count(
            "batch",
            time.perf_counter() - started,
            queries_run=len(verdicts),
        )
        return verdicts

    def _lookup(self, ip: int, day: Optional[int]) -> Verdict:
        if not self._family.valid_ip(ip):
            raise ValueError(f"bad address integer: {ip!r}")
        index, epoch, seq = self._resolve()
        resolved = index.default_day() if day is None else int(day)
        return self._evaluate(index, ip, resolved, epoch, seq)

    def _evaluate(
        self,
        index: ReputationIndex,
        ip: int,
        day: int,
        epoch: int,
        seq: int,
    ) -> Verdict:
        lists, nated, dynamic, users, asn = index.facts(ip, day)
        reused = nated or dynamic
        if not lists:
            action = ACTION_IGNORE
        else:
            # The per-list Section 6 policy, aggregated: one carrying
            # list that warrants a hard block makes the verdict block.
            action = BlockAction.GREYLIST
            for list_id in lists:
                if (
                    action_for(reused, index.category_of(list_id))
                    == BlockAction.BLOCK
                ):
                    action = BlockAction.BLOCK
                    break
        return Verdict(
            ip=ip,
            day=day,
            listed=bool(lists),
            lists=lists,
            nated=nated,
            dynamic=dynamic,
            unjust=bool(lists) and reused,
            reuse_kind=reuse_kind_of(nated, dynamic),
            users=users,
            asn=asn,
            action=action,
            epoch=epoch,
            seq=seq,
            family=self._family,
        )

    # -- counters ------------------------------------------------------

    def _count(
        self, kind: str, seconds: float, *, queries_run: int = 1
    ) -> None:
        with self._lock:
            row = self._counters.setdefault(
                kind, {"calls": 0, "queries": 0, "seconds": 0.0}
            )
            row["calls"] += 1
            row["queries"] += queries_run
            row["seconds"] += seconds

    def stats(self) -> Dict[str, Any]:
        """Counters plus index sizes — the engine's share of the
        ``stats`` op's payload."""
        with self._lock:
            counters = {
                kind: {
                    "calls": row["calls"],
                    "queries": row["queries"],
                    # Always 0, and kept only because the frozen
                    # benchmarks/serving/run.py indexes it; it goes
                    # when a benchmark PR drops
                    # ``engine.lru_hit_rate`` there.
                    "cache_hits": 0,
                    "seconds": round(row["seconds"], 6),
                }
                for kind, row in self._counters.items()
            }
        index, epoch, seq = self._resolve()
        epoch_info: Dict[str, Any] = {"epoch": epoch, "seq": seq}
        if self._streaming:
            epoch_info = {**self._source.stats(), **epoch_info}
        return {
            "queries": counters,
            "index": index.stats(),
            "epoch": epoch_info,
        }
