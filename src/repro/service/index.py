"""The compiled, read-optimised reputation index.

A :class:`ReputationIndex` is the immutable compilation of one full
run's products — blocklist listing intervals, NAT verdicts, dynamic
prefixes, AS origins — into flat typed columns (``array`` buffers, or
views into a memory-mapped snapshot; :mod:`repro.service.columns`):

* one sorted key column over every address that carries a fact, with
  parallel per-row columns (interval offset, NAT/listed flags, user
  count, origin ASN), so everything the service says about an address
  is one search away — a bisect of one bucket of a key directory
  (:meth:`ReputationIndex.records` reads it all in one loop);
* interval columns ``first`` / ``last`` / list index, a row's slice of
  them sorted by start day, against a sorted list-id table;
* dynamic prefixes as disjoint address ranges searched by one bisect.

The record loop is the index's one evaluation: it applies the batch
pipeline's Section 6 policy (:func:`repro.core.policy.action_for`, per
list category) from the columns, and every verdict the service gives,
as record bytes or as a decoded :class:`~repro.service.engine.Verdict`,
comes out of it.

:meth:`ReputationIndex.save` writes the columns behind a versioned,
checksummed header and :meth:`ReputationIndex.load` maps that file and
takes typed views of it (:mod:`repro.service.snapshot`): a server
starts without re-running the measurement pipeline and without
touching the addresses one by one, and no byte of the file is ever
executed. :meth:`ReputationIndex.restrict` slices the same buffers, so
the forked shards of a cluster share their pages.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.policy import BlockAction, action_for
from ..internet.categories import AbuseCategory
from ..net.family import V4, AddressFamily, AnyPrefix
from .columns import (
    BUCKET_SHIFT,
    LISTED,
    NATED,
    NO_ASN,
    Columns,
    Interval,
    checked_spans,
    compile_columns,
    fold,
)
from .snapshot import SnapshotError, read_snapshot, write_snapshot
from .wire import VERDICT_BITS, BinaryCodec, list_chunk

if TYPE_CHECKING:
    from ..blocklists.catalog import BlocklistInfo
    from ..blocklists.timeline import Window
    from ..core.reuse import ReuseAnalysis

__all__ = [
    "ReputationIndex",
    "SnapshotError",
    "policy_category",
]


class ReputationIndex:
    """Immutable, query-optimised view of one run's reuse analysis.

    Build with :meth:`from_analysis` / :meth:`from_run`, or restore a
    saved snapshot with :meth:`load`. Nothing is written after
    construction; the service layer treats instances as shareable
    between threads (and, across ``fork``, processes) without locking.
    """

    def __init__(
        self,
        *,
        windows: Sequence[Window],
        intervals: Mapping[int, Sequence[Interval]],
        nated: AbstractSet[int],
        users: Mapping[int, int],
        dynamic_prefixes: Sequence[AnyPrefix],
        categories: Mapping[str, str],
        asn_by_ip: Mapping[int, int],
        family: AddressFamily = V4,
    ) -> None:
        columns = compile_columns(
            family, intervals, nated, users, dynamic_prefixes,
            categories, asn_by_ip,
        )
        self._adopt(
            family,
            tuple((int(start), int(end)) for start, end in windows),
            dict(categories),
            columns,
            _counts_of(
                columns, len(categories), len(set(columns.asns) - {NO_ASN})
            ),
        )

    def _adopt(
        self,
        family: AddressFamily,
        windows: Tuple[Window, ...],
        categories: Dict[str, str],
        columns: Columns,
        counts: Dict[str, int],
    ) -> None:
        self._family = family
        self._windows = windows
        self._categories = categories
        # Built once: a successor shares it, ``restrict`` rebases it.
        keys = columns.keys.indexed()
        if keys is not columns.keys:
            columns = columns._replace(keys=keys)
        self._columns = columns
        #: What :meth:`stats` reports, kept current by every
        #: constructor so the op never walks a table.
        self._counts = counts
        #: The dynamic ranges' bounds as tuples, 3x faster to bisect.
        self._dynamic = (tuple(columns.dyn_first), tuple(columns.dyn_last))
        #: Per list index, for :meth:`records`: the list id as a record
        #: names it, and whether the list blocks a reused address.
        self._chunks = tuple(map(list_chunk, columns.list_ids))
        self._blocks = tuple(map(self._blocks_reused, columns.list_ids))

    @classmethod
    def _assemble(
        cls,
        family: AddressFamily,
        windows: Tuple[Window, ...],
        categories: Dict[str, str],
        columns: Columns,
        counts: Dict[str, int],
    ) -> "ReputationIndex":
        index = cls.__new__(cls)
        index._adopt(family, windows, categories, columns, counts)
        return index

    # -- construction --------------------------------------------------

    @classmethod
    def from_analysis(
        cls,
        analysis: ReuseAnalysis,
        catalog: Sequence[BlocklistInfo] = (),
    ) -> "ReputationIndex":
        """Compile a batch :class:`ReuseAnalysis` into an index.

        ``catalog`` supplies each list's category for the action
        policy; lists absent from it fall back to ``reputation``.
        """
        intervals: Dict[int, List[Interval]] = {}
        for listing in analysis.observed:
            intervals.setdefault(listing.ip, []).append(
                (listing.first_day, listing.last_day, listing.list_id)
            )
        return cls(
            windows=analysis.windows,
            intervals=intervals,
            nated=analysis.nated_ips,
            users={
                ip: analysis.nat.users_behind(ip)
                for ip in analysis.nated_ips
            },
            dynamic_prefixes=analysis.dynamic_prefixes,
            categories={
                info.list_id: policy_category(info) for info in catalog
            },
            asn_by_ip={
                ip: analysis.asn_of(ip) for ip in analysis.blocklisted_ips
            },
        )

    @classmethod
    def from_run(cls, run: Any) -> "ReputationIndex":
        """Compile a :class:`~repro.experiments.runner.FullRun`."""
        return cls.from_analysis(run.analysis, run.scenario.catalog)

    # -- point queries -------------------------------------------------

    @property
    def family(self) -> AddressFamily:
        """The address family of every key in the index."""
        return self._family

    @property
    def windows(self) -> Tuple[Window, ...]:
        """The collection windows the index was built over."""
        return self._windows

    def default_day(self) -> int:
        """The last day of the last collection window — what "now"
        means to a consumer that does not pass an explicit day."""
        return self._windows[-1][1] if self._windows else 0

    def records(
        self,
        pairs: Iterable[Tuple[int, Optional[int]]],
        epoch: int,
        seq: int,
        codec: BinaryCodec,
    ) -> List[bytes]:
        """The packed reply records of ``codec`` answering ``(ip, day)``
        pairs, in order, stamped ``(epoch, seq)``: the serving path's
        one loop, from key search to record bytes, with no fact tuple
        or verdict object in between. ``day=None`` is
        :meth:`default_day`; an address outside the family, or a day
        that is not an ``int``, is a :class:`ValueError`; a day must
        be in :data:`~repro.service.wire.RECORD_DAYS`. The tests hold
        each record to ``codec.pack_verdict`` of a brute-force
        reference's verdict."""
        columns, keys = self._columns, self._columns.keys
        low, directory, find = keys.low, keys.directory, keys.find
        offsets, first, last = columns.offsets, columns.first, columns.last
        list_idx, row_flags = columns.list_idx, columns.flags
        row_users, row_asns = columns.users, columns.asns
        dyn_first, dyn_last = self._dynamic
        chunks, blocks = self._chunks, self._blocks
        pack_head = codec.pack_head
        top = self._family.max_int
        default_day = self.default_day()
        records: List[bytes] = []
        append = records.append
        for ip, day in pairs:
            if type(ip) is not int or not 0 <= ip <= top:
                raise ValueError(f"bad address integer: {ip!r}")
            if day is None:
                day = default_day
            elif type(day) is not int:
                raise ValueError(f"bad day integer: {day!r}")
            if directory is None:
                row = find(ip)
            else:
                bucket = ip >> BUCKET_SHIFT
                stop = directory[bucket + 1]
                row = bisect_left(low, ip, directory[bucket], stop)
                if row == stop or low[row] != ip:
                    row = -1
            if row >= 0:
                hits = [
                    list_idx[at]
                    for at in range(offsets[row], offsets[row + 1])
                    if first[at] <= day <= last[at]
                ]
                n_lists = len(hits)
                if n_lists == 1:
                    tail, hard = chunks[hits[0]], blocks[hits[0]]
                elif n_lists:
                    hits.sort()
                    tail = b"".join([chunks[at] for at in hits])
                    hard = any([blocks[at] for at in hits])
                else:
                    tail, hard = b"", False
            else:
                n_lists, tail, hard = 0, b"", False
            # VERDICT_BITS's key: nated | dynamic << 1 | listed << 2 | ...
            at = bisect_right(dyn_first, ip) - 1
            key = 2 if at >= 0 and ip <= dyn_last[at] else 0
            if n_lists:
                key |= 12 if hard else 4
            users = asn = 0
            if row >= 0:
                if row_flags[row] & NATED:
                    key |= 1
                users, asn = row_users[row], row_asns[row]
                if asn == NO_ASN:
                    asn = 0
            flags, action = VERDICT_BITS[key]
            append(
                pack_head(
                    ip, day, flags, action, key & 3, users, asn, epoch,
                    seq, n_lists,
                )
                + tail
            )
        return records

    # Kept only for the frozen ``index.lookup_us`` probes in
    # benchmarks/serving/probes.py; it goes when a benchmark PR
    # retargets them at the record loop.
    def lists_active_on(self, ip: int, day: int) -> Tuple[str, ...]:
        """Lists carrying ``ip`` on ``day``, list-id ordered."""
        columns = self._columns
        row = columns.keys.find(ip)
        return columns.active(row, day) if row >= 0 else ()

    def intervals_of(self, ip: int) -> Tuple[Interval, ...]:
        """The raw listing intervals of one address, start-day sorted."""
        columns = self._columns
        row = columns.keys.find(ip)
        return columns.spans(row) if row >= 0 else ()

    def interval_items(self) -> Iterator[Tuple[int, Tuple[Interval, ...]]]:
        """Iterate ``(ip, intervals)`` over every listed address
        (streaming/compare paths)."""
        columns = self._columns
        for row, (ip, flags) in enumerate(zip(columns.keys, columns.flags)):
            if flags & LISTED:
                yield ip, columns.spans(row)

    def restrict(self, lo: int, hi: int) -> "ReputationIndex":
        """Project the index onto the address range ``lo..hi``.

        The cluster layer shards the address space by handing each
        worker ``full_index.restrict(range.lo, range.hi)``: the per-row
        columns become slices of the parent's (two bisects, no copy —
        under ``fork`` every shard keeps reading the same pages),
        dynamic ranges keep those overlapping the range, and run-wide
        products (windows, list categories, the ``lists`` and ``ases``
        sizes) are kept whole, so
        per-shard verdicts are field-for-field identical to the full
        index for every in-range address. Callers must align range
        edges so no dynamic prefix straddles two shards (the
        partitioner guarantees this); an overlapping one is kept whole
        on every shard it touches.
        """
        fam = self._family
        if not (fam.valid_ip(lo) and fam.valid_ip(hi)) or lo > hi:
            raise ValueError(f"bad address range: {lo!r}..{hi!r}")
        return self._successor(self._columns.restrict(lo, hi))

    # -- successors ----------------------------------------------------

    def with_interval_updates(
        self, updates: Mapping[int, Sequence[Interval]]
    ) -> "ReputationIndex":
        """A successor index with per-IP interval lists replaced (an
        empty sequence drops the address's listings; its reuse facts
        stay).

        This is the streaming layer's hot path. Each update is checked
        (:func:`~repro.service.columns.checked_spans`) and the parent's
        columns are folded with them into fresh tight ones
        (:func:`~repro.service.columns.fold`): runs of untouched rows
        are bulk copies, so a fold costs a few ``memcpy`` of the
        corpus plus work per changed address, and nothing a reader of
        the parent can hold is ever written. The ``lists`` and
        ``ases`` sizes are inherited: they are run-wide, and listing
        churn does not move them.
        """
        fam = self._family
        if updates and not (
            fam.valid_ip(min(updates)) and fam.valid_ip(max(updates))
        ):
            raise ValueError(
                f"address outside {fam.name}: "
                f"{min(updates)!r}..{max(updates)!r}"
            )
        checked = {ip: checked_spans(spans) for ip, spans in updates.items()}
        return self._successor(fold(self._columns, checked))

    def _successor(self, columns: Columns) -> "ReputationIndex":
        """An index over ``columns`` with this one's run-wide facts."""
        counts = _counts_of(
            columns, self._counts["lists"], self._counts["ases"]
        )
        return self._assemble(
            self._family, self._windows, self._categories, columns, counts
        )

    # Kept only for the frozen ``trie.contains_us`` probe in
    # benchmarks/serving/probes.py; it goes when a benchmark PR
    # retargets it at the record loop.
    def is_dynamic(self, ip: int) -> bool:
        """Inside a detected dynamically-reassigned prefix."""
        firsts, lasts = self._dynamic
        at = bisect_right(firsts, ip) - 1
        return at >= 0 and ip <= lasts[at]

    def _blocks_reused(self, list_id: str) -> bool:
        """Whether ``list_id`` warrants blocking even a reused address."""
        category = self._categories.get(list_id, AbuseCategory.REPUTATION)
        return action_for(True, category) == BlockAction.BLOCK

    # -- stats ---------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Size counters for logs and the ``stats`` wire op."""
        return dict(self._counts)

    # -- snapshots -----------------------------------------------------

    def save(self, path: "Path | str") -> Path:
        """Write a binary snapshot (atomic: temp file + rename)."""
        columns = self._columns
        if not columns.is_tight():
            # A shard slice: write its own tight tables.
            columns = fold(columns, {})
        return write_snapshot(
            path, self._family, columns, self._windows,
            self._categories, self._counts,
        )

    @classmethod
    def load(cls, path: "Path | str") -> "ReputationIndex":
        """Map a sealed in-memory copy of a snapshot;
        :class:`SnapshotError`, with the reason, on anything that is not
        a readable snapshot of this version.

        The copy is checked (header, length, CRC-32, section bounds)
        and then only viewed: no address is visited, no content is ever
        executed, and the file may change afterwards without reaching
        the index.
        """
        snapshot = read_snapshot(path)
        return cls._assemble(
            snapshot.family, snapshot.windows, snapshot.categories,
            snapshot.columns, snapshot.counts,
        )


def _counts_of(columns: Columns, lists: int, ases: int) -> Dict[str, int]:
    """What :meth:`ReputationIndex.stats` reports for ``columns`` and
    the run-wide ``lists`` and ``ases``: C-speed passes over two narrow
    columns — in ``restrict``, the only work that grows with the
    range."""
    flags = bytes(columns.flags)
    return {
        "ips": flags.count(LISTED) + flags.count(LISTED | NATED),
        "intervals": columns.offsets[-1] - columns.offsets[0],
        "nated_ips": flags.count(NATED) + flags.count(LISTED | NATED),
        "dynamic_prefixes": len(columns.dyn_first),
        "lists": lists,
        "ases": ases,
    }


def policy_category(info: BlocklistInfo) -> str:
    """The category the Section 6 action policy keys on.

    A list that reacts to DDoS at all is treated as a DDoS list (rate
    beats precision there, so those listings stay blocking); otherwise
    its primary category applies. Public because every index builder —
    :meth:`ReputationIndex.from_analysis` here, the adversary-lab
    scorer building an index straight from a scenario ledger — must
    derive the category map the same way for verdicts to agree.
    """
    if AbuseCategory.DDOS in info.categories:
        return AbuseCategory.DDOS
    return info.categories[0] if info.categories else AbuseCategory.REPUTATION
