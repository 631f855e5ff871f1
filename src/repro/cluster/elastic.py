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
  and retires, on the same loop. Every decision (split, skip,
  failure) lands in ``events`` so tests and the CLI can show exactly
  what the loop did and why.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

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
    detector anyway. ``on_split`` (if given) fires on the loop after
    each successful split with the split's info dict.
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
        on_split: Optional[Callable[[Dict[str, Any]], None]] = None,
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
        self._on_split = on_split
        self._detector = HotRangeDetector(
            factor=factor, sustain=sustain, min_hits=min_hits
        )
        self._started = False
        self._stopped = False
        #: Decision log: dicts with an ``action`` key (``split`` /
        #: ``skip`` / ``error``); appended on the router's loop, read
        #: by tests and the CLI after (or during) a run.
        self.events: List[Dict[str, Any]] = []

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

    def splits(self) -> List[Dict[str, Any]]:
        """Just the successful splits from the decision log."""
        return [e for e in self.events if e["action"] == "split"]

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
            self._record("skip", hot, f"at max_shards={self._max_shards}")
            return
        cluster.begin_split(
            hot, lambda info, error: self._split_done(hot, info, error)
        )

    def _split_done(
        self,
        shard: int,
        info: Optional[Dict[str, Any]],
        error: Optional[Exception],
    ) -> None:
        if isinstance(error, ValueError):
            # Unsplittable (single-/24) shard: remember why, keep
            # watching — another shard may heat up instead.
            self._record("skip", shard, str(error))
        elif error is not None:
            # A failed split leaves the plane serving as it was; the
            # event log carries the failure to the operator/test.
            self._record("error", shard, f"{type(error).__name__}: {error}")
        else:
            assert info is not None
            self.events.append({"action": "split", "at": time.time(), **info})
            if self._on_split is not None:
                self._on_split(info)

    def _record(self, action: str, shard: int, reason: str) -> None:
        self.events.append(
            {
                "action": action,
                "shard": shard,
                "reason": reason,
                "at": time.time(),
            }
        )
