"""Incremental index epochs: apply delta batches, swap atomically.

An :class:`EpochIndex` wraps a :class:`~repro.service.index.
ReputationIndex` and turns it into a continuously-updating structure
without ever making readers wait:

* each applied batch produces a *successor* index: the parent's
  columns folded with the touched addresses' new interval lists into
  fresh ones (runs of untouched rows are bulk copies), so nothing the
  parent holds is ever written;
* the successor is published as a new immutable :class:`Epoch` by a
  single reference assignment — atomic under the interpreter, so a
  reader that grabs :attr:`current` sees either the old epoch or the
  new one in full, never a torn mix;
* writers serialise on a lock; readers take no lock at all.

Each publication, and a feeder's end, is an event in the index's
:class:`Events` record, the one record of declared state changes a
serving process keeps (its doors add theirs), read by the ``stats`` op.

:func:`index_as_of` builds the streaming starting point: the full
run's measurement products (NAT verdicts, dynamic prefixes, AS data —
the slow pipeline's output) with the listing intervals rolled back to
what a collector knew on a given day. Replaying the update log from
that day forward then converges to the batch index.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Deque, Dict, FrozenSet, List, Optional, Tuple,
)

from .delta import DeltaBatch, ListingDelta, apply_to_spans, truncate_spans

if TYPE_CHECKING:
    # Annotation-only: the service package imports this module at load
    # time (an engine answers from an EpochIndex), so importing it back here
    # would make the package import order cyclic.
    from ..service.index import ReputationIndex

__all__ = ["Epoch", "EpochIndex", "Events", "index_as_of"]

#: ``(seconds, kind, fields)``: one declared state change, at Unix time.
Event = Tuple[float, str, Dict[str, Any]]

#: How many events a record keeps: the newest, the older dropped.
EVENTS_KEPT = 64


class Events:
    """One serving process's record of its declared state changes: a
    deque of the newest :data:`EVENTS_KEPT` events. Any thread may
    :meth:`add` (a follower adds ``epoch`` and ``follow-end``, the loop
    the rest), and :meth:`recent` copies the deque in one C call, which
    an append cannot tear. ``echo``, if set, is handed each event on
    the thread that adds it: how the CLI prints them, for the library
    never does."""

    def __init__(self) -> None:
        self._kept: Deque[Event] = deque(maxlen=EVENTS_KEPT)
        self.echo: Optional[Callable[[Event], None]] = None

    def add(self, kind: str, **fields: Any) -> None:
        event = (time.time(), kind, fields)
        self._kept.append(event)
        if self.echo is not None:
            self.echo(event)

    def recent(self) -> List[Dict[str, Any]]:
        """The kept events, newest first, as wire dicts: ``at`` (Unix
        seconds), ``kind``, then its fields."""
        return [
            {"at": round(at, 3), "kind": kind, **fields}
            for at, kind, fields in reversed(self._kept.copy())
        ]


@dataclass(frozen=True)
class Epoch:
    """One immutable published state of the streaming index."""

    index: ReputationIndex
    #: Monotonic publication counter (0 is the base index).
    number: int
    #: Last applied update-log sequence number (0 before any batch).
    seq: int
    #: Collection day the state corresponds to.
    day: int
    #: The addresses the batch that published this epoch rewrote (none
    #: for the base): every other address answers as in the epoch
    #: before, but for the ``(epoch, seq)`` stamp.
    changed: FrozenSet[int] = frozenset()


class EpochIndex:
    """Lock-free-for-readers incremental wrapper over an index.

    Readers call :attr:`current` (one attribute load) and query the
    returned epoch's index; a concurrent :meth:`apply` never mutates
    anything a reader can hold. Batches must arrive in increasing
    sequence order; replays of already-applied sequences are ignored
    (the update-log reader can safely restart from scratch).

    Epoch 0 is ``base`` on ``day`` (``None``: the base's default day).
    One that nothing feeds is a static index, which every serving
    process answers from too. Whatever feeds the index (a
    :class:`~repro.stream.follower.LogFollower`) calls :meth:`fail`
    when it dies: readers keep
    answering from the last good epoch, and :meth:`stats` — hence the
    ``stats`` wire op — says that the state is stale and why.
    ``events`` records each published epoch (``epoch``: its number,
    seq, day and deltas) and the end (``follow-end``: the reason, and
    the number and seq still served).
    """

    def __init__(
        self, base: ReputationIndex, *, day: Optional[int] = None
    ) -> None:
        if day is None:
            day = base.default_day()
        self._current = Epoch(base, 0, 0, day)
        self._write_lock = threading.Lock()
        self._deltas_applied = 0
        self._batches_skipped = 0
        self._error: Optional[str] = None
        self.events = Events()

    @property
    def current(self) -> Epoch:
        """The live epoch — one atomic reference read."""
        return self._current

    @property
    def index(self) -> ReputationIndex:
        """The live epoch's index (readers needing only the data)."""
        return self._current.index

    @property
    def error(self) -> Optional[str]:
        """Why the index stopped advancing (``None`` while fed)."""
        return self._error

    def fail(self, reason: str) -> None:
        """Declare the index stale: its feeder ended with ``reason``."""
        self._error = reason
        epoch = self._current
        self.events.add(
            "follow-end", reason=reason, number=epoch.number, seq=epoch.seq
        )

    def apply(self, batch: DeltaBatch) -> Epoch:
        """Apply one delta batch and publish the successor epoch.

        Returns the epoch that is current afterwards (unchanged when
        the batch's sequence was already applied).
        """
        with self._write_lock:
            epoch = self._current
            if batch.seq <= epoch.seq:
                self._batches_skipped += 1
                return epoch
            if batch.seq != epoch.seq + 1:
                raise ValueError(
                    f"batch seq {batch.seq} does not follow {epoch.seq}"
                )
            updates = self._updated_intervals(epoch.index, batch.deltas)
            successor = Epoch(
                epoch.index.with_interval_updates(updates),
                epoch.number + 1,
                batch.seq,
                batch.day,
                frozenset(updates),
            )
            self._deltas_applied += len(batch.deltas)
            self._current = successor  # the swap: one atomic store
            self.events.add(
                "epoch", number=successor.number, seq=batch.seq,
                day=batch.day, deltas=len(batch.deltas),
            )
            return successor

    @staticmethod
    def _updated_intervals(
        index: ReputationIndex, deltas: Tuple[ListingDelta, ...]
    ) -> Dict[int, List]:
        by_ip: Dict[int, List[ListingDelta]] = {}
        for delta in deltas:
            by_ip.setdefault(delta.ip, []).append(delta)
        return {
            ip: apply_to_spans(index.intervals_of(ip), ip_deltas)
            for ip, ip_deltas in by_ip.items()
        }

    def stats(self) -> Dict[str, Any]:
        """Epoch/sequence counters, plus the feeder's terminal error
        (``None`` while healthy), for logs and the ``stats`` op."""
        epoch = self._current
        return {
            "epoch": epoch.number,
            "seq": epoch.seq,
            "day": epoch.day,
            "deltas_applied": self._deltas_applied,
            "batches_skipped": self._batches_skipped,
            "error": self._error,
        }


def index_as_of(
    full: ReputationIndex, day: int
) -> ReputationIndex:
    """Roll a compiled index's listing intervals back to ``day``.

    Measurement-side products (NAT set, users, dynamic prefixes, AS
    origins, categories) are kept whole — they come from the slow
    pipeline, not the daily feed churn the stream replays.
    """
    updates = {
        ip: truncate_spans(spans, day)
        for ip, spans in full.interval_items()
    }
    return full.with_interval_updates(updates)
