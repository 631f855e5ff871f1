"""Delta-layer tests: wire rows, the span fold, and the day-advance
replay reconstructing the store it was derived from.

The replay is proved on the path a server answers from: a
:class:`ReputationIndex` compiled from a random store, rolled back by
``index_as_of`` and fed each batch through ``EpochIndex.apply``. If an
address's served intervals ever differ from what a live collector knew
that day, every layer above (log, server, cluster) serves wrong
verdicts — so the oracle is written here from the store's listings,
not from the span helpers the served path itself calls.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocklists.timeline import Listing, ListingStore
from repro.service.index import ReputationIndex
from repro.stream.delta import (
    OP_ADD,
    OP_DELIST,
    OP_EXTEND,
    DeltaBatch,
    ListingDelta,
    apply_to_spans,
    day_advance_batches,
    truncate_spans,
)
from repro.stream.epoch import EpochIndex, index_as_of

# -- randomised stores -------------------------------------------------
#
# Interval identity is (ip, list_id, first_day); a real store never
# holds duplicates (gap-splitting guarantees distinct starts per
# (list, ip)), so the strategy dedupes on that key.

_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),  # ip
        st.sampled_from(["alpha", "beta", "gamma"]),  # list_id
        st.integers(min_value=0, max_value=25),  # first_day
        st.integers(min_value=0, max_value=8),  # duration - 1
    ),
    max_size=25,
)


def _build_store(rows):
    seen = set()
    store = ListingStore()
    for ip, list_id, first, extra in rows:
        key = (ip, list_id, first)
        if key in seen:
            continue
        seen.add(key)
        store.add(Listing(list_id, ip, first, first + extra))
    return store


stores = _rows.map(_build_store)


def _known_on(store, ip, day):
    """The oracle: ``ip``'s listings a live collector knows on ``day``
    — every one already started, ongoing ones cut at ``day``."""
    return sorted(
        (l.first_day, min(l.last_day, day), l.list_id)
        for l in store.listings_of_ip(ip)
        if l.first_day <= day
    )


def _served_replay(store, start_day):
    """Yield ``(day, index)`` as a server folds the store's churn: the
    compiled store rolled back to ``start_day``, then each batch."""
    intervals = {}
    for l in store:
        intervals.setdefault(l.ip, []).append(
            (l.first_day, l.last_day, l.list_id)
        )
    full = ReputationIndex(
        windows=[(0, 40)], intervals=intervals, nated=set(), users={},
        dynamic_prefixes=[], categories={}, asn_by_ip={},
    )
    epochs = EpochIndex(index_as_of(full, start_day), day=start_day)
    yield start_day, epochs.index
    for batch in day_advance_batches(store, start_day=start_day):
        yield batch.day, epochs.apply(batch).index


class TestListingDelta:
    def test_wire_roundtrip(self):
        delta = ListingDelta(7, 123, "alpha", OP_ADD, 5, 9)
        assert ListingDelta.from_wire(delta.to_wire()) == delta

    def test_removal_delist_roundtrips(self):
        delta = ListingDelta(7, 123, "alpha", OP_DELIST, 5, 4)
        assert delta.removes
        assert ListingDelta.from_wire(delta.to_wire()) == delta

    def test_non_delist_cannot_end_before_start(self):
        with pytest.raises(ValueError):
            ListingDelta(7, 123, "alpha", OP_ADD, 5, 4)
        with pytest.raises(ValueError):
            ListingDelta(7, 123, "alpha", OP_EXTEND, 5, 4)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            ListingDelta(7, 123, "alpha", "replace", 5, 9)

    @pytest.mark.parametrize(
        "row",
        [
            "not a row",
            [],
            ["add", 1, 2, "x", 3],  # five fields
            ["add", 1, 2, "x", 3, 4, 5],  # seven fields
            [3, 1, 2, "x", 3, 4],  # op not a string
            ["add", 1, 2, 9, 3, 4],  # list_id not a string
            ["add", "one", 2, "x", 3, 4],  # day not an int
            ["add", 1, True, "x", 3, 4],  # bool masquerading as int
            ["add", 1, 2, "x", 3.5, 4],  # float day
            ["add", 1, -1, "x", 3, 4],  # ip below range
            ["add", 1, 1 << 32, "x", 3, 4],  # ip above range
            ["frobnicate", 1, 2, "x", 3, 4],  # unknown op
            ["add", 1, 2, "x", 4, 3],  # add ending before start
        ],
    )
    def test_malformed_wire_rows_rejected(self, row):
        with pytest.raises(ValueError):
            ListingDelta.from_wire(row)

    def test_batch_sequence_must_be_positive(self):
        with pytest.raises(ValueError):
            DeltaBatch(0, 1, ())
        assert DeltaBatch(1, 1, []).deltas == ()


class TestApplyToSpans:
    def test_add_extend_delist_remove(self):
        spans = [(5, 9, "alpha")]
        spans = apply_to_spans(
            spans, [ListingDelta(1, 0, "beta", OP_ADD, 2, 3)]
        )
        assert spans == [(2, 3, "beta"), (5, 9, "alpha")]
        spans = apply_to_spans(
            spans, [ListingDelta(2, 0, "alpha", OP_EXTEND, 5, 12)]
        )
        assert (5, 12, "alpha") in spans
        spans = apply_to_spans(
            spans, [ListingDelta(3, 0, "beta", OP_DELIST, 2, 1)]
        )
        assert spans == [(5, 12, "alpha")]

    def test_idempotent_replay(self):
        deltas = [
            ListingDelta(1, 0, "alpha", OP_ADD, 2, 4),
            ListingDelta(1, 0, "beta", OP_DELIST, 7, 6),
        ]
        once = apply_to_spans([(7, 9, "beta")], deltas)
        twice = apply_to_spans(once, deltas)
        assert once == twice == [(2, 4, "alpha")]


class TestAsOfViews:
    def test_future_intervals_invisible(self):
        spans = [(10, 15, "alpha"), (3, 9, "beta")]
        assert truncate_spans(spans, 7) == [(3, 7, "beta")]


class TestDayAdvanceReplay:
    @settings(max_examples=100, deadline=None)
    @given(stores, st.integers(min_value=0, max_value=30))
    def test_full_replay_reconstructs_store(self, store, start_day):
        *_, (_, index) = _served_replay(store, start_day)
        for ip in store.all_ips():
            assert list(index.intervals_of(ip)) == sorted(
                (l.first_day, l.last_day, l.list_id)
                for l in store.listings_of_ip(ip)
            )

    @settings(max_examples=60, deadline=None)
    @given(stores, st.integers(min_value=0, max_value=30))
    def test_batches_are_contiguous_ordered_days(self, store, start_day):
        batches = list(day_advance_batches(store, start_day=start_day))
        assert [b.seq for b in batches] == list(
            range(1, len(batches) + 1)
        )
        days = [b.day for b in batches]
        assert days == sorted(days)
        assert all(day > start_day for day in days)
        for batch in batches:
            assert all(d.day == batch.day for d in batch.deltas)
            assert batch.deltas  # empty days are skipped

    @settings(max_examples=50, deadline=None)
    @given(stores, st.integers(min_value=0, max_value=30))
    def test_prefix_replay_matches_as_of_view(self, store, start_day):
        """Every epoch, the rollback's included, serves exactly what a
        live collector would hold on its day — the invariant the
        serving path's per-epoch verdicts rely on."""
        for day, index in _served_replay(store, start_day):
            for ip in store.all_ips():
                assert list(index.intervals_of(ip)) == _known_on(
                    store, ip, day
                )

    def test_replay_after_horizon_is_empty(self):
        store = _build_store([(1, "alpha", 2, 3)])
        assert list(day_advance_batches(store, start_day=20)) == []

    def test_end_day_limits_the_stream(self):
        store = _build_store([(1, "alpha", 2, 8)])
        batches = list(
            day_advance_batches(store, start_day=2, end_day=5)
        )
        assert [b.day for b in batches] == [3, 4, 5]

    def test_single_day_opener_adds_then_delists(self):
        store = _build_store([(1, "alpha", 5, 0)])
        (batch,) = day_advance_batches(store, start_day=4)
        assert [d.op for d in batch.deltas] == [OP_ADD, OP_DELIST]
        assert apply_to_spans([], batch.deltas) == [(5, 5, "alpha")]
