"""The flat-column index against a brute-force reference model.

:class:`~tests.reference.Reference` keeps the tables the way they
arrive — a dict of span lists, a set, a list of prefixes — and answers
by scanning them. Every test builds both from the same tables and demands
field-for-field equal verdicts (and equal interval tables and size
counters) after each operation the serving stack performs: compile,
``save`` → ``load``, ``restrict`` at shard edges, chains of
``with_interval_updates`` (each link a fold into fresh columns), and
``index_as_of``.
"""

import dataclasses
import gc
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import PartitionMap
from repro.net.family import V4, V6
from repro.service import columns as columns_module
from repro.service import index as index_module
from repro.service.engine import QueryEngine
from repro.service.index import ReputationIndex
from repro.service.snapshot import SnapshotError, write_snapshot
from repro.service.wire import CODECS, MAX_LIST_ID_BYTES
from repro.stream.delta import truncate_spans
from repro.stream.epoch import index_as_of
from tests.reference import Reference, run_model

LISTS = ("alpha", "bravo-ddos", "charlie", "delta", "echo")
CATEGORIES = {"alpha": "spam", "bravo-ddos": "ddos", "charlie": "malware"}


def probe_ips(model, lo=None, hi=None):
    """Every address the model knows, its neighbours, the edges of
    every dynamic prefix and of the family — inside ``lo..hi``."""
    family = model.family
    ips = set(model.known_ips()) | {0, 1, family.max_int}
    for prefix in model.dynamic_prefixes:
        ips |= {prefix.first(), prefix.last()}
    ips |= {ip + step for ip in list(ips) for step in (-1, 1)}
    lo = 0 if lo is None else lo
    hi = family.max_int if hi is None else hi
    return sorted(ip for ip in ips if lo <= ip <= hi)


def probe_days(model):
    days = {-1, 0}
    for spans in model.intervals.values():
        for first, last, _ in spans:
            days |= {first - 1, first, last, last + 1}
    for start, end in model.windows:
        days |= {start, end}
    return sorted(days)


def assert_equal_everywhere(index, model, lo=None, hi=None, stats=True):
    """Verdicts, interval tables and (optionally) counters agree on
    every probe address and day in ``lo..hi``."""
    engine = QueryEngine(index)
    days = probe_days(model)
    if len(days) > 12:
        days = random.Random(len(days)).sample(days, 12)
    for ip in probe_ips(model, lo, hi):
        for day in days:
            got = dataclasses.asdict(engine.query(ip, day))
            got.pop("family")
            assert got == model.verdict(ip, day)
            assert index.lists_active_on(ip, day) == got["lists"]
        spans = tuple(model.intervals.get(ip, ()))
        assert index.intervals_of(ip) == spans
        assert index.is_dynamic(ip) == model.is_dynamic(ip)
    assert dict(index.interval_items()) == {
        ip: tuple(spans) for ip, spans in model.intervals.items()
    }
    if stats:
        assert index.stats() == model.stats()
    assert index.default_day() == (
        model.windows[-1][1] if model.windows else 0
    )


# -- the golden small run ----------------------------------------------


@pytest.fixture(scope="module")
def golden(small_full_run):
    return run_model(small_full_run), ReputationIndex.from_run(small_full_run)


class TestGoldenRun:
    def test_compiled_index_matches_reference(self, golden):
        model, index = golden
        assert_equal_everywhere(index, model)

    def test_loaded_snapshot_matches_reference(self, golden, tmp_path):
        model, index = golden
        loaded = ReputationIndex.load(index.save(tmp_path / "golden.idx"))
        assert_equal_everywhere(loaded, model)

    @pytest.mark.parametrize("shards", [1, 3, 7])
    def test_every_shard_slice_matches_reference(self, golden, shards):
        model, index = golden
        for shard in PartitionMap(shards).ranges:
            piece = index.restrict(shard.lo, shard.hi)
            assert_equal_everywhere(
                piece, model.restricted(shard.lo, shard.hi),
                shard.lo, shard.hi,
            )

    def test_index_as_of_matches_reference(self, golden):
        model, index = golden
        day = (model.windows[0][0] + model.windows[0][1]) // 2
        rolled = model.updated(
            {
                ip: truncate_spans(spans, day)
                for ip, spans in model.intervals.items()
            }
        )
        assert_equal_everywhere(index_as_of(index, day), rolled)
        assert_equal_everywhere(index, model)  # the full index stands


# -- generated tables, both families -----------------------------------


def _tables(family):
    """Small tables over a few clustered atoms, so that listed, NATed,
    AS-only and unknown addresses fall inside and beside dynamic
    prefixes, and (v6) keys share and differ in either 64-bit half."""
    host_bits = family.atom_host_bits
    atom = st.sampled_from(
        [1, 2, 3, 0x00C0FFEE, family.total_atoms - 2, family.total_atoms - 1]
    )
    host = st.sampled_from([0, 1, 2, 7, family.atom_mask - 1, family.atom_mask])
    address = st.builds(lambda a, h: a << host_bits | h, atom, host)
    span = st.builds(
        lambda first, days, list_id: (first, first + days, list_id),
        st.integers(0, 40), st.integers(0, 12), st.sampled_from(LISTS),
    )
    prefix = st.builds(
        lambda a, shorter: family.make_prefix(
            (a << host_bits) >> (host_bits + shorter) << (host_bits + shorter),
            family.atom_bits - shorter,
        ),
        atom, st.integers(0, 2),
    )
    return st.builds(
        lambda intervals, nated, asns, prefixes: Reference(
            windows=[(0, 20), (30, 52)],
            intervals=intervals,
            nated=set(nated),
            users=nated,
            dynamic_prefixes=prefixes,
            categories=CATEGORIES,
            asn_by_ip=asns,
            family=family,
        ),
        st.dictionaries(address, st.lists(span, max_size=4), max_size=12),
        st.dictionaries(address, st.integers(2, 78), max_size=4),
        st.dictionaries(address, st.sampled_from([0, 64500, 64501]), max_size=8),
        st.lists(prefix, max_size=3),
    )


def _edges(model):
    """Range edges worth cutting at: on, just below and just above
    every known address and prefix edge."""
    return st.sampled_from(probe_ips(model))


BOTH = pytest.mark.parametrize("family", [V4, V6], ids=["ipv4", "ipv6"])
GENERATED = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@BOTH
class TestGeneratedTables:
    @GENERATED
    @given(data=st.data())
    def test_compile_and_reload(self, family, data, tmp_path_factory):
        model = data.draw(_tables(family))
        index = model.compile()
        # Nested prefixes are stored once; the counter follows.
        assert_equal_everywhere(index, model, stats=False)
        path = tmp_path_factory.mktemp("snap") / "generated.idx"
        loaded = ReputationIndex.load(index.save(path))
        assert loaded.family is family
        assert_equal_everywhere(loaded, model, stats=False)
        assert loaded.stats() == index.stats()

    @GENERATED
    @given(data=st.data())
    def test_restrict_at_edges(self, family, data):
        model = data.draw(_tables(family))
        lo = data.draw(_edges(model))
        hi = data.draw(_edges(model).filter(lambda ip: ip >= lo))
        piece = model.compile().restrict(lo, hi)
        assert_equal_everywhere(
            piece, model.restricted(lo, hi), lo, hi, stats=False
        )
        # A slice of a slice is the slice of the intersection.
        inner = piece.restrict(lo, (lo + hi) // 2)
        assert_equal_everywhere(
            inner, model.restricted(lo, (lo + hi) // 2),
            lo, (lo + hi) // 2, stats=False,
        )

    @GENERATED
    @given(data=st.data())
    def test_update_chain(self, family, data, tmp_path_factory):
        """Add, extend, drop and unseen-list updates in a chain; every
        link answers like the model, and no link changes what an
        earlier one says."""
        model = data.draw(_tables(family))
        known = sorted(model.known_ips()) or [5]
        address = st.sampled_from(
            known + [min(ip + 1, family.max_int) for ip in known]
        )
        span = st.tuples(
            st.integers(0, 40), st.integers(41, 60),
            st.sampled_from(LISTS + ("never-seen-before",)),
        )
        links = [(model, model.compile())]
        for _ in range(data.draw(st.integers(1, 5))):
            updates = data.draw(
                st.dictionaries(address, st.lists(span, max_size=3), max_size=4)
            )
            parent_model, parent = links[-1]
            links.append(
                (
                    parent_model.updated(updates),
                    parent.with_interval_updates(updates),
                )
            )
        for link_model, link in links:
            assert_equal_everywhere(link, link_model, stats=False)
            expected = link_model.stats()
            assert link.stats()["ips"] == expected["ips"]
            assert link.stats()["intervals"] == expected["intervals"]
        path = tmp_path_factory.mktemp("snap") / "chained.idx"
        final_model, final = links[-1]
        assert_equal_everywhere(
            ReputationIndex.load(final.save(path)), final_model, stats=False
        )


# -- successors: every update is a fold, pinned -----------------------


def _plain_model(family=V4, rows=40):
    base = family.max_int - 10_000
    return Reference(
        windows=[(0, 50)],
        intervals={
            base + 3 * i: [(i % 7, i % 7 + 9, LISTS[i % 3])] for i in range(rows)
        },
        nated={base + 6 * i for i in range(rows // 2)},
        users={base + 6 * i: 2 + i for i in range(rows // 2)},
        dynamic_prefixes=[family.atom_prefix(base)],
        categories=CATEGORIES,
        asn_by_ip={base + 3 * i: 64500 + i % 4 for i in range(rows)},
        family=family,
    )


@BOTH
class TestOverlayAndFold:
    def test_small_delta_folds_and_leaves_the_parent(self, family):
        model = _plain_model(family)
        index = model.compile()
        ip = sorted(model.intervals)[5]
        updates = {ip: [(1, 2, "delta")], ip + 1: [(3, 4, "brand-new")]}
        successor = index.with_interval_updates(updates)
        assert_equal_everywhere(successor, model.updated(updates))
        assert_equal_everywhere(index, model)

    def test_a_chain_of_folds_leaves_each_parent(self, family):
        model = _plain_model(family)
        index = model.compile()
        chain, chain_model = index, model
        listed = sorted(model.intervals)
        for step, ip in enumerate(listed[:14]):
            updates = {ip: [(step, step + 1, "never-seen-before")]}
            if step % 3 == 0:
                updates[ip] = ()
            chain = chain.with_interval_updates(updates)
            chain_model = chain_model.updated(updates)
            assert_equal_everywhere(chain, chain_model)
        assert chain._columns is not index._columns
        assert "never-seen-before" in chain._columns.list_ids
        assert "never-seen-before" not in index._columns.list_ids
        assert_equal_everywhere(index, model)

    def test_dropped_address_keeps_its_reuse_facts(self, family):
        model = _plain_model(family)
        nated_listed = sorted(model.nated & set(model.intervals))
        updates = {ip: () for ip in sorted(model.intervals)}
        dropped = model.compile().with_interval_updates(updates)
        assert dropped.stats()["ips"] == 0
        assert dropped.stats()["intervals"] == 0
        verdict = QueryEngine(dropped).query(nated_listed[0])
        assert verdict.nated and verdict.users >= 2 and not verdict.listed
        assert_equal_everywhere(dropped, model.updated(updates))

    def test_successor_of_a_restricted_slice(self, family):
        """A shard follower's path: a slice's columns, which are not
        tight, folded with in-range updates."""
        model = _plain_model(family)
        listed = sorted(model.intervals)
        lo, hi = listed[3], listed[12]
        piece = model.compile().restrict(lo, hi)
        assert not piece._columns.is_tight()
        updates = {
            listed[3]: (),
            listed[7]: [(5, 6, "echo")],
            listed[9] + 1: [(1, 3, "never-seen-before"), (2, 8, "alpha")],
        }
        successor = piece.with_interval_updates(updates)
        assert successor._columns.is_tight()
        assert_equal_everywhere(
            successor, model.restricted(lo, hi).updated(updates), lo, hi
        )
        assert_equal_everywhere(piece, model.restricted(lo, hi), lo, hi)

    def test_bad_updates_are_refused_before_they_can_poison_a_fold(
        self, family
    ):
        index = _plain_model(family).compile()
        ip = family.max_int - 10_000
        for bad in (
            {ip: [(0, 1 << 31, "alpha")]},
            {ip: [(0, 1.5, "alpha")]},
            {ip: [(0, 1, None)]},
            {ip: [(0, 1)]},
            {family.max_int + 1: [(0, 1, "alpha")]},
            {-1: ()},
        ):
            with pytest.raises(ValueError):
                index.with_interval_updates(bad)


class TestColumnsAreShared:
    def test_restrict_is_views_of_the_parents_buffers(self):
        index = _plain_model().compile()
        listed = sorted(ip for ip, _ in index.interval_items())
        piece = index.restrict(listed[10], listed[20])
        whole, part = index._columns, piece._columns
        assert part.first is whole.first and part.last is whole.last
        for name in ("offsets", "flags", "users", "asns"):
            assert getattr(part, name).obj is getattr(whole, name).obj
        assert part.keys.low.obj is whole.keys.low.obj
        assert len(part.keys) == 11

    def test_loaded_index_outlives_its_file_and_its_siblings(self, tmp_path):
        model = _plain_model()
        path = model.compile().save(tmp_path / "mapped.idx")
        loaded = ReputationIndex.load(path)
        listed = sorted(model.intervals)
        piece = loaded.restrict(listed[0], listed[9])
        path.unlink()
        del loaded
        gc.collect()
        assert_equal_everywhere(
            piece, model.restricted(listed[0], listed[9]),
            listed[0], listed[9],
        )

    def test_saving_a_shard_slice_writes_only_its_rows(self, tmp_path):
        model = _plain_model()
        index = model.compile()
        listed = sorted(model.intervals)
        lo, hi = listed[5], listed[14]
        whole = index.save(tmp_path / "whole.idx")
        part = index.restrict(lo, hi).save(tmp_path / "part.idx")
        assert part.stat().st_size < whole.stat().st_size
        assert_equal_everywhere(
            ReputationIndex.load(part), model.restricted(lo, hi), lo, hi
        )


class TestStatsAreFixedNotCounted:
    def test_stats_reads_no_column(self):
        index = _plain_model().compile()
        expected = index.stats()
        index._columns = None  # a walk of any table would now fail
        assert index.stats() == expected

    def test_stats_follow_every_constructor(self, tmp_path):
        model = _plain_model()
        index = model.compile()
        listed = sorted(model.intervals)
        updates = {listed[0]: (), listed[1] + 1: [(1, 2, "alpha"), (4, 5, "echo")]}
        lo, hi = listed[0], listed[20]
        for got, want in (
            (index, model),
            (index.restrict(lo, hi), model.restricted(lo, hi)),
            (index.with_interval_updates(updates), model.updated(updates)),
            (
                index.with_interval_updates(updates).restrict(lo, hi),
                model.updated(updates).restricted(lo, hi),
            ),
            (ReputationIndex.load(index.save(tmp_path / "s.idx")), model),
        ):
            assert got.stats() == want.stats()


class TestDynamicRanges:
    def test_is_dynamic_keeps_no_per_address_memo(self):
        """The index answers from its range columns, not through
        ``PrefixSet.contains_ip`` and its ever-growing memo."""
        assert not hasattr(index_module, "PrefixSet")
        assert not hasattr(columns_module, "PrefixSet")
        index = _plain_model().compile()
        before = {
            name: len(value) for name, value in vars(index).items()
            if hasattr(value, "__len__")
        }
        for ip in range(0, 1 << 32, 1 << 17):
            index.is_dynamic(ip)
        after = {
            name: len(value) for name, value in vars(index).items()
            if hasattr(value, "__len__")
        }
        assert after == before

    @BOTH
    def test_nested_prefixes_are_one_range_neighbours_two(self, family):
        atom = family.atom_prefix(family.max_int)
        outer = family.make_prefix(
            atom.network & ~(1 << family.atom_host_bits), atom.length - 1
        )
        sibling = family.atom_prefix(outer.first())
        model = _plain_model(family)
        model.dynamic_prefixes = [atom, outer, sibling]
        index = model.compile()
        assert index.stats()["dynamic_prefixes"] == 1
        model.dynamic_prefixes = [atom, sibling]  # adjacent, not nested
        assert model.compile().stats()["dynamic_prefixes"] == 2
        assert_equal_everywhere(model.compile(), model)


class TestConstructorGuards:
    def test_address_of_the_other_family(self):
        tables = _plain_model(V4).tables()
        tables["intervals"] = {1 << 40: [(0, 1, "alpha")]}
        with pytest.raises(ValueError, match="ipv4"):
            ReputationIndex(**tables)

    def test_prefix_of_the_other_family(self):
        tables = _plain_model(V4).tables()
        tables["dynamic_prefixes"] = [V6.atom_prefix(V6.max_int)]
        with pytest.raises(ValueError, match="does not fit"):
            ReputationIndex(**tables)

    @pytest.mark.parametrize(
        "table, value",
        [
            ("asn_by_ip", {9: 0xFFFFFFFF}),
            ("asn_by_ip", {9: -1}),
            ("users", {9: 1 << 32}),
            ("intervals", {9: [(0, 1 << 31, "alpha")]}),
        ],
    )
    def test_value_wider_than_its_column(self, table, value):
        tables = _plain_model(V4).tables()
        tables[table] = value
        with pytest.raises(ValueError, match="does not fit"):
            ReputationIndex(**tables)


class TestListIdTheCodecCannotCarry:
    """A verdict record names each list behind a one-byte length, so a
    list id over ``MAX_LIST_ID_BYTES`` of UTF-8 is refused wherever a
    listing can enter an index — never accepted and failed later, a
    whole reply frame at a time."""

    # 128 two-byte characters: within the limit counted in characters,
    # over it in bytes.
    TOO_LONG = "é" * (MAX_LIST_ID_BYTES // 2 + 1)
    LONGEST = "é" * (MAX_LIST_ID_BYTES // 2) + "x"

    def test_the_longest_id_is_served_on_both_codecs(self):
        tables = _plain_model(V4).tables()
        tables["intervals"] = {9: [(0, 1, self.LONGEST)]}
        verdict = QueryEngine(ReputationIndex(**tables)).query(9, 0)
        assert verdict.lists == (self.LONGEST,)
        record = CODECS[V4].pack_verdict(verdict)
        assert CODECS[V4].decode_record(record) == verdict.to_wire()

    @pytest.mark.parametrize("table", ["intervals", "categories"])
    def test_compile_refuses(self, table):
        tables = _plain_model(V4).tables()
        tables[table] = {
            "intervals": {9: [(0, 1, self.TOO_LONG)]},
            "categories": {self.TOO_LONG: "spam"},
        }[table]
        with pytest.raises(
            ValueError, match="does not fit the index: list id of 256"
        ):
            ReputationIndex(**tables)

    def test_delta_refuses_and_leaves_the_parent_whole(self):
        model = _plain_model(V4)
        index = model.compile()
        with pytest.raises(ValueError, match="list id of 256 bytes"):
            index.with_interval_updates({9: [(0, 1, self.TOO_LONG)]})
        assert_equal_everywhere(index, model)

    def test_fold_refuses(self):
        columns = _plain_model(V4).compile()._columns
        with pytest.raises(ValueError, match="does not fit the index"):
            columns_module.fold(columns, {9: ((0, 1, self.TOO_LONG),)})

    def test_snapshot_refuses(self, tmp_path):
        index = _plain_model(V4).compile()
        columns = index._columns
        path = write_snapshot(
            tmp_path / "long.idx",
            V4,
            columns._replace(
                list_ids=columns.list_ids[:-1] + (self.TOO_LONG,)
            ),
            index.windows,
            {},
            index.stats(),
        )
        with pytest.raises(SnapshotError, match="list id of 256 bytes"):
            ReputationIndex.load(path)
