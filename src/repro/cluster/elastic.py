"""Close the loop: watch routed load, split sustained hot ranges.

Two pieces, split so the policy is unit-testable without a cluster:

* :class:`HotRangeDetector` is a pure decision function over
  successive :meth:`~repro.cluster.router.Router.load_snapshot`
  payloads. It works on per-window *deltas* (counters are cumulative),
  resets its baseline whenever the router's ``partition_epoch`` moves
  (fresh slots mean fresh counters — not a traffic collapse), and
  nominates a shard only after it has taken at least ``factor`` times
  its fair share of the window's traffic for ``sustain`` consecutive
  windows. Quiet windows (below ``min_hits`` total) break the streak:
  skew over a handful of queries is noise, not heat.

* :class:`AutoSplitter` is the controller, a timer on the router's own
  event loop: read the router's load, feed the detector, and on a
  nomination start
  :meth:`~repro.cluster.local.LocalCluster.begin_split` — the cutover
  that boots the two half-range backends, cuts routing over, drains
  and retires, on the same loop. Every decision is a ``split`` event
  in the router's record: each phase of a split, and a skip with its
  reason.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .partition import MAX_SHARDS

__all__ = ["AutoSplitter", "HotRangeDetector"]


class HotRangeDetector:
    """Streak detector over per-shard load deltas.

    ``observe`` consumes one load snapshot and returns the shard id to
    split, or ``None``. Deterministic: the same snapshot sequence
    always yields the same nominations.
    """

    def __init__(
        self,
        *,
        factor: float = 2.0,
        sustain: int = 3,
        min_hits: int = 100,
    ) -> None:
        if factor <= 1.0:
            raise ValueError(f"factor must exceed 1.0: {factor}")
        if sustain < 1:
            raise ValueError(f"sustain must be >= 1: {sustain}")
        if min_hits < 1:
            raise ValueError(f"min_hits must be >= 1: {min_hits}")
        self.factor = factor
        self.sustain = sustain
        self.min_hits = min_hits
        self._epoch: Optional[int] = None
        self._last: List[int] = []
        self._candidate: Optional[int] = None
        self._streak = 0

    def observe(self, snapshot: Dict[str, Any]) -> Optional[int]:
        """Feed one ``load_snapshot`` payload; maybe nominate a shard."""
        epoch = snapshot["partition_epoch"]
        hits = [row["hits"] for row in snapshot["shards"]]
        if self._epoch != epoch or len(hits) != len(self._last):
            # Layout changed under us: counters restarted, every
            # earlier streak is about a shard id that may not even
            # mean the same range any more.
            self._epoch = epoch
            self._last = hits
            self._candidate = None
            self._streak = 0
            return None
        deltas = [now - before for now, before in zip(hits, self._last)]
        self._last = hits
        total = sum(deltas)
        if total < self.min_hits or len(deltas) < 2:
            self._candidate = None
            self._streak = 0
            return None
        fair = total / len(deltas)
        hottest = max(range(len(deltas)), key=lambda i: deltas[i])
        if deltas[hottest] < self.factor * fair:
            self._candidate = None
            self._streak = 0
            return None
        if hottest == self._candidate:
            self._streak += 1
        else:
            self._candidate = hottest
            self._streak = 1
        if self._streak >= self.sustain:
            self._streak = 0
            self._candidate = None
            return hottest
        return None


class AutoSplitter:
    """The controller: detector nominations become live splits.

    ``cluster`` must be a started
    :class:`~repro.cluster.local.LocalCluster`: :meth:`start` arms a
    timer on its router's loop, and every ``interval`` that timer reads
    the router's load, feeds the detector and, on a nomination, begins
    a split on the same loop — no thread of its own, no lock. While a
    split is in flight the load goes unread; its cutover resets the
    detector anyway. A nomination at ``max_shards`` is a ``split``
    event of phase ``skip``; the split's own are
    :meth:`~repro.cluster.local.LocalCluster.begin_split`'s.
    """

    def __init__(
        self,
        cluster: Any,
        *,
        interval: float = 1.0,
        factor: float = 2.0,
        sustain: int = 3,
        min_hits: int = 100,
        max_shards: int = MAX_SHARDS,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"poll interval must be positive: {interval}")
        if not 1 <= max_shards <= MAX_SHARDS:
            raise ValueError(
                f"max_shards out of 1..{MAX_SHARDS}: {max_shards}"
            )
        self._cluster = cluster
        self._interval = interval
        self._max_shards = max_shards
        self._detector = HotRangeDetector(
            factor=factor, sustain=sustain, min_hits=min_hits
        )
        self._started = False
        self._stopped = False

    def start(self) -> None:
        """Arm the first poll; any thread may call, before or while the
        router's loop runs. A cluster with no router yet has nothing
        to poll."""
        if self._started:
            raise RuntimeError("auto-splitter already started")
        self._started = True
        router = self._cluster.router
        if router is not None:
            reactor = router.reactor
            reactor.call_soon(
                lambda: reactor.call_later(self._interval, self._tick)
            )

    def stop(self) -> None:
        """No poll after this one; a split already begun runs to its
        end (or to the cluster's close). Any thread may call."""
        self._stopped = True

    def _tick(self) -> None:
        cluster = self._cluster
        router = cluster.router
        if self._stopped or router is None:
            return
        router.reactor.call_later(self._interval, self._tick)
        if cluster.splitting:
            return
        hot = self._detector.observe(router.load_snapshot())
        if hot is None:
            return
        if len(cluster.partition) >= self._max_shards:
            router.events.add(
                "split", shard=hot, phase="skip",
                reason=f"at max_shards={self._max_shards}",
            )
            return
        # How it ends is in the router's split events; nothing waits on it.
        cluster.begin_split(hot, lambda info, error: None)
