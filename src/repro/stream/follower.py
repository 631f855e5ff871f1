"""Background tailer: update log → epoch swaps.

A :class:`LogFollower` runs the read side of the streaming pipeline on
a daemon thread: poll the update log for appended batches, apply each
to the :class:`~repro.stream.epoch.EpochIndex`, repeat. The serving
path never blocks on it — queries read whichever epoch is current.

Anything that ends the tail thread — a log error (corruption,
sequence gap), the file turning unreadable, a batch the index refuses
— is recorded on the epoch index with its reason
(:meth:`EpochIndex.fail <repro.stream.epoch.EpochIndex.fail>`), so it
rides the ``stats`` wire op's ``epoch`` block, where what was applied
is counted too: the follower keeps no counters, and the index's
events record each swap and that end. The server keeps answering from
the last good epoch, which is the only sane degradation for a
reputation service (stale beats down) — but it must be a *declared*
stale, never a silent one.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Callable, Optional

from .delta import DeltaBatch
from .epoch import EpochIndex
from .log import UpdateLogReader

__all__ = ["LogFollower"]


class LogFollower:
    """Tails one update log into one epoch index.

    ``batch_filter`` lets a consumer that owns only part of the keyed
    space (a cluster shard) rewrite each batch before it is applied —
    typically dropping out-of-range deltas while keeping the batch's
    sequence number, so every follower of one log stays in epoch
    lockstep regardless of which slice it holds.
    """

    def __init__(
        self,
        path: "Path | str",
        epochs: EpochIndex,
        *,
        poll_interval: float = 0.1,
        batch_filter: Optional[Callable[[DeltaBatch], DeltaBatch]] = None,
    ) -> None:
        self._reader = UpdateLogReader(path)
        self._epochs = epochs
        self._poll_interval = poll_interval
        self._batch_filter = batch_filter
        self._stop = threading.Event()
        # Guards the thread handle between start() and stop().
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "LogFollower":
        """Start tailing on a daemon thread. A follower is single-use:
        once stopped it stays stopped — tail again with a fresh one."""
        with self._lock:
            if self._thread is not None:
                raise RuntimeError("follower already started")
            if self._stop.is_set():
                raise RuntimeError(
                    "follower was stopped; start a new LogFollower"
                )
            thread = threading.Thread(
                target=self._run, name="repro-log-follower", daemon=True
            )
            self._thread = thread
        thread.start()
        return self

    def _run(self) -> None:
        try:
            for batch in self._reader.follow(
                poll_interval=self._poll_interval, stop=self._stop
            ):
                if self._batch_filter is not None:
                    batch = self._batch_filter(batch)
                self._epochs.apply(batch)
        except Exception as exc:
            # A log error, an OSError from open() (EACCES, EISDIR,
            # EIO), a batch the index refuses: the thread is over
            # either way, and a dead follower nobody can see is a
            # silently stale answer.
            self._epochs.fail(f"{type(exc).__name__}: {exc}")

    def stop(self, timeout: float = 5.0) -> None:
        """Stop tailing and join the thread (idempotent)."""
        self._stop.set()
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=timeout)

    def __enter__(self) -> "LogFollower":
        return self.start()

    def __exit__(self, *_: Any) -> None:
        self.stop()
