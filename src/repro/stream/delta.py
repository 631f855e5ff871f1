"""Listing deltas: the unit of streaming blocklist change.

BLAG-style collection shows listings churn daily — addresses appear,
persist, and are delisted within days. A :class:`ListingDelta` captures
one such change for one ``(ip, list)`` interval, and a
:class:`DeltaBatch` groups the deltas one collection tick produced
under a sequence number.

:func:`day_advance_batches` produces them from a scenario's listing
store: it walks the listing intervals one day at a time and emits
exactly the add/extend/delist events a live collector would have
observed. They are consumed in span form, one address's
``(first, last, list_id)`` intervals at a time: :func:`truncate_spans`
rolls an index back to a start day (``index_as_of``) and
:func:`apply_to_spans` folds a batch on top (``EpochIndex.apply``).
Replaying the whole stream on the day-``start_day`` rollback
reconstructs the full store (a pinned property test on that path).

An interval is identified by ``(ip, list_id, first_day)``; within one
store, a list's intervals for one address never share a start day
(gap-splitting guarantees it), so the key is unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

if TYPE_CHECKING:
    # Annotation-only: a serving process folds spans, never a store, so
    # it does not load the measurement side's listing types.
    from ..blocklists.timeline import Listing, ListingStore

__all__ = [
    "DeltaBatch",
    "ListingDelta",
    "OPS",
    "day_advance_batches",
    "truncate_spans",
]

#: Interval span in index form: (first_day, last_day, list_id).
Span = Tuple[int, int, str]

#: The three delta operations.
OP_ADD = "add"
OP_EXTEND = "extend"
OP_DELIST = "delist"
OPS = (OP_ADD, OP_EXTEND, OP_DELIST)


@dataclass(frozen=True)
class ListingDelta:
    """One change to one listing interval.

    ``op`` semantics against the interval keyed
    ``(ip, list_id, first_day)``:

    * ``add`` — a new interval ``first_day..last_day`` appeared;
    * ``extend`` — the interval's presence now reaches ``last_day``;
    * ``delist`` — the interval ends at ``last_day``; a ``last_day``
      before ``first_day`` removes the interval entirely (the list
      retracted it).

    ``day`` is the observation day the change became visible — replay
    pacing keys on it; application does not.
    """

    day: int
    ip: int
    list_id: str
    op: str
    first_day: int
    last_day: int

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown delta op: {self.op!r}")
        if self.op != OP_DELIST and self.last_day < self.first_day:
            raise ValueError(
                f"{self.op} delta ends before it starts: "
                f"{self.first_day}..{self.last_day}"
            )

    @property
    def removes(self) -> bool:
        """True for a delist that retracts the whole interval."""
        return self.op == OP_DELIST and self.last_day < self.first_day

    def to_wire(self) -> List:
        """Compact JSON row: ``[op, day, ip, list_id, first, last]``."""
        return [self.op, self.day, self.ip, self.list_id,
                self.first_day, self.last_day]

    @classmethod
    def from_wire(
        cls, row: Sequence, *, max_ip: int = 0xFFFFFFFF
    ) -> "ListingDelta":
        """Parse a wire row; :class:`ValueError` on anything malformed.

        ``max_ip`` is the address ceiling of the stream's declared
        family (``AddressFamily.max_int``); the IPv4 default keeps
        every pre-existing log's validation unchanged."""
        if not isinstance(row, (list, tuple)) or len(row) != 6:
            raise ValueError(f"delta row must have 6 fields: {row!r}")
        op, day, ip, list_id, first, last = row
        if not isinstance(op, str) or not isinstance(list_id, str):
            raise ValueError(f"bad delta row types: {row!r}")
        for value in (day, ip, first, last):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"bad delta row types: {row!r}")
        if ip < 0 or ip > max_ip:
            raise ValueError(f"delta ip out of range: {ip}")
        return cls(day, ip, list_id, op, first, last)


@dataclass(frozen=True)
class DeltaBatch:
    """The deltas one collection tick produced, in sequence order."""

    seq: int
    day: int
    deltas: Tuple[ListingDelta, ...]

    def __post_init__(self) -> None:
        if self.seq < 1:
            raise ValueError(f"batch sequence must be >= 1: {self.seq}")
        object.__setattr__(self, "deltas", tuple(self.deltas))


def _sort_key(delta: ListingDelta) -> Tuple:
    return (delta.ip, delta.list_id, delta.first_day, delta.op)


# -- span-level application --------------------------------------------


def apply_to_spans(
    spans: Iterable[Span], deltas: Iterable[ListingDelta]
) -> List[Span]:
    """Apply deltas to one address's interval spans.

    Application is idempotent per delta: an ``add`` of an existing key
    replaces it, an ``extend``/``delist`` of a missing key creates it —
    so a replayed batch converges instead of corrupting state.
    """
    table: Dict[Tuple[str, int], int] = {
        (list_id, first): last for first, last, list_id in spans
    }
    for delta in deltas:
        key = (delta.list_id, delta.first_day)
        if delta.removes:
            table.pop(key, None)
        else:
            table[key] = delta.last_day
    return sorted(
        (first, last, list_id) for (list_id, first), last in table.items()
    )


# -- day-advance replay ------------------------------------------------


def truncate_spans(spans: Iterable[Span], day: int) -> List[Span]:
    """The day-``day`` view of interval spans: intervals that have
    started, with ongoing ones clamped at ``day`` (a collector cannot
    know the future end of a presence run)."""
    return sorted(
        (first, min(last, day), list_id)
        for first, last, list_id in spans
        if first <= day
    )


def day_advance_batches(
    store: ListingStore,
    *,
    start_day: int,
    end_day: Optional[int] = None,
    start_seq: int = 1,
) -> Iterator[DeltaBatch]:
    """Replay the store's churn as an ordered event stream.

    Yields one :class:`DeltaBatch` per day in
    ``start_day+1 .. end_day`` that saw any change, relative to the
    day-``start_day`` state (:func:`truncate_spans`): a listing opening
    that day is an ``add``, one still present is an ``extend`` to the
    new day, one absent after being present yesterday is a ``delist``
    confirming its final day. ``end_day`` defaults to the last day any
    listing is present, at which point the accumulated state equals the
    full store exactly.
    """
    if end_day is None:
        end_day = max((l.last_day for l in store), default=start_day)
    opens_on: Dict[int, List[Listing]] = {}
    live: Dict[Tuple[int, str, int], int] = {}  # key -> real last day
    for listing in store:
        if listing.first_day > start_day:
            opens_on.setdefault(listing.first_day, []).append(listing)
        elif listing.last_day >= start_day:
            live[
                (listing.ip, listing.list_id, listing.first_day)
            ] = listing.last_day
    seq = start_seq
    for day in range(start_day + 1, end_day + 1):
        deltas: List[ListingDelta] = []
        for (ip, list_id, first), last in list(live.items()):
            if last < day:
                # Ended yesterday (or earlier): confirm and close.
                deltas.append(
                    ListingDelta(day, ip, list_id, OP_DELIST, first, last)
                )
                del live[(ip, list_id, first)]
            else:
                deltas.append(
                    ListingDelta(day, ip, list_id, OP_EXTEND, first, day)
                )
        for listing in opens_on.get(day, ()):
            deltas.append(
                ListingDelta(
                    day, listing.ip, listing.list_id, OP_ADD, day, day
                )
            )
            if listing.last_day > day:
                live[
                    (listing.ip, listing.list_id, listing.first_day)
                ] = listing.last_day
            else:
                deltas.append(
                    ListingDelta(
                        day, listing.ip, listing.list_id, OP_DELIST,
                        day, day,
                    )
                )
        if deltas:
            deltas.sort(key=_sort_key)
            yield DeltaBatch(seq, day, tuple(deltas))
            seq += 1
