"""The flat typed columns behind a :class:`~repro.service.index.
ReputationIndex`.

One run's serving facts are held as parallel ``array`` buffers (or
views into a memory-mapped snapshot), never as per-address Python
objects:

* **row columns**, one row per address that carries any fact, sorted
  by address: the key column (:class:`KeyColumn`), an interval offset,
  NAT/listed flags, detected users, origin ASN;
* **interval columns** ``first`` / ``last`` / ``list_idx``, a row's
  slice of them sorted by start day, against a sorted list-id table;
* **dynamic ranges**: the dynamic prefixes as disjoint inclusive
  address ranges in two key columns, searched by one bisect.

Columns are never written once built. :class:`ColumnWriter` builds
fresh ones, from tables (:func:`compile_columns`) or from existing
columns plus a delta (:func:`fold`); DESIGN.md §9 has the widths.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import sub
from typing import (
    AbstractSet,
    Any,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from ..net.family import AddressFamily, AnyPrefix
from .wire import MAX_LIST_ID_BYTES

__all__ = [
    "BUCKET_SHIFT",
    "Columns",
    "Interval",
    "KeyColumn",
    "LISTED",
    "NATED",
    "NO_ASN",
    "check_list_ids",
    "checked_spans",
    "compile_columns",
    "fold",
    "is_wide",
]

#: One listing interval in index form: (first_day, last_day, list_id).
Interval = Tuple[int, int, str]

# Row flags.
NATED = 1
LISTED = 2

#: ``asns`` value of a row with no AS fact. AS4294967295 is reserved
#: (RFC 7300) and never an origin, so no flag bit is spent on "has an
#: ASN" and the distinct-AS count of a slice is one ``set()``.
NO_ASN = 0xFFFFFFFF

_U32 = (1 << 32) - 1
_U64 = (1 << 64) - 1

#: A 32-bit key column's directory has one bucket per value of an
#: address's top 12 bits (:meth:`KeyColumn.indexed`).
BUCKET_SHIFT = 20
_BUCKETS = 1 << (32 - BUCKET_SHIFT)

#: Listing days are stored as signed 32-bit, the width the binary wire
#: codec gives a query's day.
_DAY_MIN, _DAY_MAX = -(1 << 31), (1 << 31) - 1


def check_list_ids(list_ids: Iterable[object]) -> None:
    """:class:`ValueError` unless every list id fits a verdict record
    of the binary wire codec. Every way a list id enters an index —
    compile, fold, delta, snapshot — asks here, so an index never holds
    a fact one of its codecs cannot say."""
    for list_id in list_ids:
        size = len(str(list_id).encode("utf-8"))
        if size > MAX_LIST_ID_BYTES:
            raise ValueError(
                f"list id of {size} bytes exceeds the "
                f"{MAX_LIST_ID_BYTES}-byte limit"
            )


def is_wide(family: AddressFamily) -> bool:
    """Whether ``family`` needs the two-column key layout."""
    if family.bits == 32:
        return False
    if family.bits == 128:
        return True
    raise ValueError(f"no key layout for {family.bits}-bit addresses")


class KeyColumn:
    """A sorted column of addresses, searched by bisection.

    32-bit families keep one ``u32`` column (``low``). 128-bit
    families keep two ``u64`` columns, ``high`` sorted and ``low``
    sorted within each run of equal ``high``: a search bisects
    ``high`` for the run and ``low`` inside it, all in C.

    A 32-bit column may carry a bucket ``directory`` (:meth:`indexed`):
    ``directory[b]`` rows hold an address below ``b << BUCKET_SHIFT``,
    so a search bisects only the rows of its address's bucket.
    """

    __slots__ = ("low", "high", "directory")

    def __init__(
        self,
        low: memoryview,
        high: Optional[memoryview] = None,
        directory: "Optional[array[int]]" = None,
    ) -> None:
        self.low = low
        self.high = high
        self.directory = directory

    @classmethod
    def build(cls, wide: bool, addresses: Iterable[int]) -> "KeyColumn":
        """Columns over ``addresses`` (already sorted)."""
        if not wide:
            return cls(memoryview(array("I", addresses)))
        values = list(addresses)
        return cls(
            memoryview(array("Q", [ip & _U64 for ip in values])),
            memoryview(array("Q", [ip >> 64 for ip in values])),
        )

    def __len__(self) -> int:
        return len(self.low)

    def __getitem__(self, row: int) -> int:
        if self.high is None:
            return self.low[row]
        return self.high[row] << 64 | self.low[row]

    def __iter__(self) -> Iterator[int]:
        if self.high is None:
            return iter(self.low)
        return (
            top << 64 | bottom for top, bottom in zip(self.high, self.low)
        )

    def indexed(self) -> "KeyColumn":
        """This column with a bucket directory: one bisect per bucket
        (a 32-bit column without one; any other is returned as is)."""
        if self.high is not None or self.directory is not None:
            return self
        low = self.low
        starts = array("I", bytes(4 * _BUCKETS)) + array("I", [len(low)])
        step = _BUCKETS // 2
        while step:  # midpoints first: each between two known starts
            span = 2 * step
            starts[step::span] = array("I", map(
                bisect_left, repeat(low),
                range(step << BUCKET_SHIFT, 1 << 32, span << BUCKET_SHIFT),
                starts[:_BUCKETS:span], starts[span::span],
            ))
            step //= 2
        return KeyColumn(low, None, starts)

    def _rows_for(self, ip: int) -> Tuple[int, int]:
        """The rows ``start:stop`` that can hold ``ip`` (32-bit)."""
        directory = self.directory
        if directory is None or not 0 <= ip <= _U32:
            return 0, len(self.low)
        bucket = ip >> BUCKET_SHIFT
        return directory[bucket], directory[bucket + 1]

    def lower(self, ip: int) -> int:
        """How many rows hold an address below ``ip``."""
        high = self.high
        if high is None:
            return bisect_left(self.low, ip, *self._rows_for(ip))
        top = ip >> 64
        start = bisect_left(high, top)
        return bisect_left(
            self.low, ip & _U64, start, bisect_right(high, top, start)
        )

    def upper(self, ip: int) -> int:
        """How many rows hold an address up to and including ``ip``."""
        high = self.high
        if high is None:
            return bisect_right(self.low, ip, *self._rows_for(ip))
        top = ip >> 64
        start = bisect_left(high, top)
        return bisect_right(
            self.low, ip & _U64, start, bisect_right(high, top, start)
        )

    def find(self, ip: int) -> int:
        """The row holding exactly ``ip``, or ``-1``."""
        low = self.low
        if self.high is None:
            start, stop = self._rows_for(ip)
            row = bisect_left(low, ip, start, stop)
            return row if row < stop and low[row] == ip else -1
        row = self.lower(ip)
        return row if row < len(low) and self[row] == ip else -1

    def slice(self, start: int, stop: int) -> "KeyColumn":
        """Rows ``start:stop`` as views of the same buffers, with the
        directory, if any, rebased onto them (no bisect)."""
        directory = self.directory
        if directory is not None:  # d - start, clamped to 0..rows, in C
            lo = bisect_right(directory, start)
            hi = bisect_left(directory, stop, lo)
            directory = array("I", bytes(4 * lo)) + array(
                "I", map(sub, directory[lo:hi], repeat(start))
            ) + array("I", [stop - start]) * (len(directory) - hi)
        return KeyColumn(
            self.low[start:stop],
            None if self.high is None else self.high[start:stop],
            directory,
        )


class Columns(NamedTuple):
    """The flat tables behind one index.

    Row ``r`` describes address ``keys[r]``; its listing intervals are
    entries ``offsets[r]:offsets[r + 1]`` of ``first`` / ``last`` /
    ``list_idx``. Offsets are absolute, so a slice of the row columns
    (a shard) keeps the interval columns whole.
    """

    keys: KeyColumn
    offsets: memoryview  # u32, one more than rows
    flags: memoryview  # u8: NATED | LISTED
    users: memoryview  # u32
    asns: memoryview  # u32, NO_ASN when the row has no AS fact
    first: memoryview  # i32
    last: memoryview  # i32
    list_idx: memoryview  # u16 into list_ids
    #: Disjoint dynamic ranges, address-ordered: ``dyn_first[j]`` to
    #: ``dyn_last[j]`` inclusive.
    dyn_first: KeyColumn
    dyn_last: KeyColumn
    #: Sorted, so index order is list-id order.
    list_ids: Tuple[str, ...]

    def spans(self, row: int) -> Tuple[Interval, ...]:
        """Row ``row``'s intervals, start-day sorted."""
        start, stop = self.offsets[row], self.offsets[row + 1]
        list_ids = self.list_ids
        return tuple(
            zip(
                self.first[start:stop],
                self.last[start:stop],
                [list_ids[at] for at in self.list_idx[start:stop]],
            )
        )

    def active(self, row: int, day: int) -> Tuple[str, ...]:
        """Lists carrying row ``row``'s address on ``day``."""
        # The serving hot path: most addresses have one or two
        # intervals, so plain loops beat slicing and comprehensions.
        offsets, first, last = self.offsets, self.first, self.last
        hits: List[int] = []
        for at in range(offsets[row], offsets[row + 1]):
            if first[at] <= day <= last[at]:
                hits.append(self.list_idx[at])
        if not hits:
            return ()
        list_ids = self.list_ids
        if len(hits) == 1:
            return (list_ids[hits[0]],)
        hits.sort()
        return tuple([list_ids[at] for at in hits])

    def restrict(self, lo: int, hi: int) -> "Columns":
        """The rows of addresses ``lo..hi`` and the dynamic ranges
        overlapping them: two bisects each, then views, no copy."""
        start, stop = self.keys.lower(lo), self.keys.upper(hi)
        dyn_start = self.dyn_last.lower(lo)
        dyn_stop = self.dyn_first.upper(hi)
        return self._replace(
            keys=self.keys.slice(start, stop),
            offsets=self.offsets[start:stop + 1],
            flags=self.flags[start:stop],
            users=self.users[start:stop],
            asns=self.asns[start:stop],
            dyn_first=self.dyn_first.slice(dyn_start, dyn_stop),
            dyn_last=self.dyn_last.slice(dyn_start, dyn_stop),
        )

    def is_tight(self) -> bool:
        """Whether the interval columns hold these rows' intervals and
        nothing else (false for a slice of a larger table)."""
        return self.offsets[0] == 0 and self.offsets[-1] == len(self.first)


class ColumnWriter:
    """Accumulates rows in address order into fresh columns: new ones
    (:meth:`add_row`) and, given a ``source``, runs of its rows
    unchanged (:meth:`copy_rows`)."""

    def __init__(
        self,
        wide: bool,
        list_ids: Iterable[str],
        source: Optional[Columns] = None,
    ) -> None:
        self._list_ids = tuple(sorted(list_ids))
        try:
            check_list_ids(self._list_ids)
        except ValueError as exc:
            raise ValueError(
                f"value does not fit the index: {exc}"
            ) from None
        self._position = {
            list_id: at for at, list_id in enumerate(self._list_ids)
        }
        self._source = source
        #: ``source``'s list index -> this table's, when they differ.
        self._moved: Optional[List[int]] = None
        if source is not None and source.list_ids != self._list_ids:
            self._moved = [self._position[name] for name in source.list_ids]
        self._low = array("Q" if wide else "I")
        self._high = array("Q") if wide else None
        self._offsets = array("I", [0])
        self._flags = array("B")
        self._users = array("I")
        self._asns = array("I")
        self._first = array("i")
        self._last = array("i")
        self._list_idx = array("H")

    def add_row(
        self,
        ip: int,
        flags: int,
        users: int,
        asn: int,
        spans: Sequence[Interval],
    ) -> None:
        """Append one address; ``spans`` must be sorted. ``LISTED`` is
        set from ``spans``, whatever ``flags`` says."""
        position = self._position
        for first, last, list_id in spans:
            self._first.append(first)
            self._last.append(last)
            self._list_idx.append(position[list_id])
        if self._high is None:
            self._low.append(ip)
        else:
            self._low.append(ip & _U64)
            self._high.append(ip >> 64)
        self._offsets.append(len(self._first))
        self._flags.append(flags | LISTED if spans else flags & ~LISTED)
        self._users.append(users)
        self._asns.append(asn)

    def copy_rows(self, start: int, stop: int) -> None:
        """Append rows ``start:stop`` of the source unchanged: bulk
        copies, no Python object per row (but for a list index that
        moved)."""
        source = self._source
        if source is None or start >= stop:
            return
        offsets = source.offsets
        begin, end = offsets[start], offsets[stop]
        shift = len(self._first) - begin
        self._first.frombytes(source.first[begin:end].cast("B"))
        self._last.frombytes(source.last[begin:end].cast("B"))
        moved = self._moved
        if moved is None:
            self._list_idx.frombytes(source.list_idx[begin:end].cast("B"))
        else:
            self._list_idx.extend(
                [moved[at] for at in source.list_idx[begin:end]]
            )
        keys = source.keys
        self._low.frombytes(keys.low[start:stop].cast("B"))
        if self._high is not None:
            self._high.frombytes(keys.high[start:stop].cast("B"))
        self._offsets.frombytes(
            _rebased(offsets[start + 1:stop + 1].cast("B"), shift)
        )
        self._flags.frombytes(source.flags[start:stop])
        self._users.frombytes(source.users[start:stop].cast("B"))
        self._asns.frombytes(source.asns[start:stop].cast("B"))

    def finish(self, dyn_first: KeyColumn, dyn_last: KeyColumn) -> Columns:
        """The rows written so far, beside the given dynamic ranges."""
        high = self._high
        return Columns(
            keys=KeyColumn(
                memoryview(self._low),
                None if high is None else memoryview(high),
            ),
            offsets=memoryview(self._offsets),
            flags=memoryview(self._flags),
            users=memoryview(self._users),
            asns=memoryview(self._asns),
            first=memoryview(self._first),
            last=memoryview(self._last),
            list_idx=memoryview(self._list_idx),
            dyn_first=dyn_first,
            dyn_last=dyn_last,
            list_ids=self._list_ids,
        )


def _rebased(raw: memoryview, shift: int) -> bytes:
    """The ``u32`` offsets in ``raw``, each plus ``shift``: the run is
    read as one integer whose limbs are the offsets, and ``shift``
    repeated in every limb is added (or, negated, subtracted) in C.
    Every rebased offset fits a ``u32``, so no limb carries or
    borrows into the next."""
    order = sys.byteorder
    run = int.from_bytes(raw, order)
    limbs = abs(shift).to_bytes(4, order) * (len(raw) // 4)
    step = int.from_bytes(limbs, order)
    return (run + step if shift > 0 else run - step).to_bytes(len(raw), order)


def compile_columns(
    family: AddressFamily,
    intervals: Mapping[int, Sequence[Interval]],
    nated: AbstractSet[int],
    users: Mapping[int, int],
    dynamic_prefixes: Iterable[AnyPrefix],
    categories: Iterable[str],
    asn_by_ip: Mapping[int, int],
) -> Columns:
    """Columns over one run's tables; :class:`ValueError` when an
    address, prefix or value does not fit ``family`` or its column."""
    wide = is_wide(family)
    addresses = sorted(set(intervals).union(nated, users, asn_by_ip))
    if addresses and not (
        family.valid_ip(addresses[0]) and family.valid_ip(addresses[-1])
    ):
        raise ValueError(
            f"address outside {family.name}: "
            f"{addresses[0]!r}..{addresses[-1]!r}"
        )
    list_ids = set(categories)
    for spans in intervals.values():
        for span in spans:
            list_ids.add(span[2])
    writer = ColumnWriter(wide, list_ids)
    try:
        for ip in addresses:
            spans = intervals.get(ip, ())
            writer.add_row(
                ip,
                NATED if ip in nated else 0,
                users.get(ip, 0),
                asn_by_ip.get(ip, NO_ASN),
                sorted(spans) if len(spans) > 1 else spans,
            )
        if NO_ASN in asn_by_ip.values():
            raise OverflowError(f"AS{NO_ASN} is reserved")
        return writer.finish(*_dynamic_ranges(dynamic_prefixes, family))
    except (OverflowError, TypeError) as exc:
        raise ValueError(f"value does not fit the index: {exc}") from None


def _dynamic_ranges(
    prefixes: Iterable[AnyPrefix], family: AddressFamily
) -> Tuple[KeyColumn, KeyColumn]:
    """``prefixes`` as disjoint sorted ranges: one nested inside
    another is absorbed, neighbours stay apart."""
    firsts: List[int] = []
    lasts: List[int] = []
    for prefix in sorted(prefixes):
        if prefix.length > family.bits or prefix.network > family.max_int:
            raise ValueError(
                f"prefix {prefix} does not fit a {family.name} index"
            )
        first, last = prefix.first(), prefix.last()
        if lasts and first <= lasts[-1]:
            lasts[-1] = max(lasts[-1], last)
        else:
            firsts.append(first)
            lasts.append(last)
    wide = is_wide(family)
    return KeyColumn.build(wide, firsts), KeyColumn.build(wide, lasts)


def fold(
    columns: Columns, updates: Mapping[int, Tuple[Interval, ...]]
) -> Columns:
    """``columns`` with ``updates`` (address → its new sorted
    intervals, empty = dropped) merged in, as fresh tight columns.

    Runs of untouched rows between two updated addresses are copied in
    bulk (:meth:`ColumnWriter.copy_rows`), so the cost is a few
    ``memcpy`` of the corpus plus work per update.
    """
    list_ids = set(columns.list_ids)
    list_ids.update(
        list_id for spans in updates.values() for _, _, list_id in spans
    )
    keys = columns.keys
    writer = ColumnWriter(keys.high is not None, list_ids, columns)
    rows = len(keys)
    copied = 0
    for ip in sorted(updates):
        row = keys.lower(ip)
        writer.copy_rows(copied, row)
        spans = updates[ip]
        if row < rows and keys[row] == ip:
            # Dropped listings leave the row: its reuse facts stand.
            writer.add_row(
                ip,
                columns.flags[row],
                columns.users[row],
                columns.asns[row],
                spans,
            )
            copied = row + 1
        else:
            if spans:
                writer.add_row(ip, 0, 0, NO_ASN, spans)
            copied = row
    writer.copy_rows(copied, rows)
    return writer.finish(columns.dyn_first, columns.dyn_last)


def checked_spans(spans: Iterable[Sequence[Any]]) -> Tuple[Interval, ...]:
    """``spans`` as sorted tuples, every field of the type and range
    the interval columns hold and every list id one the wire codec can
    carry — checked when a delta arrives, so that neither a later
    :func:`fold` nor a later reply can fail on it."""
    try:
        ordered = sorted(map(tuple, spans))
        for first, last, list_id in ordered:
            if not (
                type(first) is int
                and type(last) is int
                and type(list_id) is str
                and _DAY_MIN <= first <= _DAY_MAX
                and _DAY_MIN <= last <= _DAY_MAX
            ):
                raise ValueError
            # Asked inline first: one check_list_ids call over the
            # spans costs a 2,000-delta batch a quarter more to apply.
            if len(list_id.encode("utf-8")) > MAX_LIST_ID_BYTES:
                check_list_ids((list_id,))  # raises, naming the limit
    except (TypeError, ValueError) as exc:
        # Also: not three fields, unsortable, an unencodable list id.
        raise ValueError(
            f"bad listing intervals: {str(exc) or repr(spans)}"
        ) from None
    return cast("Tuple[Interval, ...]", tuple(ordered))
