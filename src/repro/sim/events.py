"""Discrete-event scheduler driving the simulated clock.

A single binary-heap run queue; ties break on insertion order so runs
are fully deterministic under a fixed seed. Every event carries a
unique ``(when, seq)`` key, so the pop order is a total order that does
not depend on the heap's internal array layout.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Tuple

from .clock import SimClock

__all__ = ["Scheduler", "ScheduledEvent"]

Callback = Callable[[], None]


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation.

    Cancellation is lazy: the heap entry stays in place and is skipped
    when popped, which keeps cancel O(1).
    """

    __slots__ = ("when", "seq", "callback", "cancelled")

    def __init__(self, when: float, seq: int, callback: Callback) -> None:
        self.when = when
        self.seq = seq
        self.callback: Optional[Callback] = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running. Idempotent."""
        self.cancelled = True
        self.callback = None


class Scheduler:
    """Heap-based discrete-event loop.

    The scheduler owns the clock: callbacks observe ``scheduler.now``
    equal to their scheduled firing time.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._heap: List[Tuple[float, int, ScheduledEvent]] = []
        self._seq = 0
        self._executed = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    @property
    def pending(self) -> int:
        """Events still queued (including lazily-cancelled ones)."""
        return len(self._heap)

    @property
    def executed(self) -> int:
        """Callbacks run so far (diagnostics)."""
        return self._executed

    def at(self, when: float, callback: Callback) -> ScheduledEvent:
        """Schedule ``callback`` at absolute time ``when``."""
        if when < self.clock.now:
            raise ValueError(
                f"cannot schedule in the past: {when} < {self.clock.now}"
            )
        event = ScheduledEvent(when, self._seq, callback)
        heapq.heappush(self._heap, (when, self._seq, event))
        self._seq += 1
        return event

    def after(self, delay: float, callback: Callback) -> ScheduledEvent:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.at(self.clock.now + delay, callback)

    def every(
        self,
        interval: float,
        callback: Callback,
        *,
        start_after: Optional[float] = None,
        until: Optional[float] = None,
    ) -> None:
        """Schedule ``callback`` repeatedly each ``interval`` seconds.

        The recurrence stops once the next firing would land after
        ``until`` (when given). The callback can stop the chain early by
        raising :class:`StopIteration`.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        first = self.clock.now + (
            interval if start_after is None else start_after
        )

        def fire() -> None:
            try:
                callback()
            except StopIteration:
                return
            next_when = self.clock.now + interval
            if until is None or next_when <= until:
                self.at(next_when, fire)

        if until is None or first <= until:
            self.at(first, fire)

    def _fire_due(self, horizon: float, limit: Optional[int] = None) -> int:
        """Pop and run, in ``(when, seq)`` order, the events due at or
        before ``horizon`` — at most ``limit`` of them; cancelled
        entries are dropped uncounted. The clock reads an event's
        firing time when it fires, unless a wall-clock loop has
        already moved past it."""
        ran = 0
        heap = self._heap
        pop = heapq.heappop
        advance = self.clock.advance_to
        now = self.clock.now  # only this loop moves it meanwhile
        while heap and heap[0][0] <= horizon:
            if limit is not None and ran >= limit:
                break
            fire_at, _, event = pop(heap)
            if event.cancelled:
                continue
            if fire_at > now:
                advance(fire_at)
                now = fire_at
            callback = event.callback
            event.callback = None
            assert callback is not None
            callback()
            self._executed += 1
            ran += 1
        return ran

    def run_until(self, when: float) -> int:
        """Run events with firing time ≤ ``when``; advance the clock to
        ``when``. Returns the number of callbacks executed."""
        ran = self._fire_due(when)
        self.clock.advance_to(when)
        return ran

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue entirely (or up to ``max_events``)."""
        return self._fire_due(math.inf, max_events)
