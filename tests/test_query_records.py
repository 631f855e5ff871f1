"""The record path: one loop from key search to packed record, no ``Verdict``.

The server hands its cache misses to the index's record loop
(``ReputationIndex.records``), which searches the key column through
its bucket directory and packs each record from the columns;
``QueryEngine.query`` decodes the same records. The brute-force
``tests.reference.Reference``, packed by ``pack_verdict``, is what
both must match byte for byte, on every kind of index the serving
stack builds; the rest pins that the object stays off the served path,
that the path is counted like the one it replaced, that the directory
searches like a plain bisect, that a day outside i32 is answered alike
everywhere, and the reply bytes of the bench corpus.
"""

import dataclasses
import hashlib
import random
import re
from bisect import bisect_left, bisect_right
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import scenario_index
from repro.cluster import LocalCluster, PartitionMap
from repro.net.family import V4, V6
from repro.service.client import ReputationClient
from repro.service.columns import BUCKET_SHIFT, KeyColumn
from repro.service.engine import QueryEngine, Verdict
from repro.service.index import ReputationIndex
from repro.service import server as server_module
from repro.service.server import ReputationServer
from repro.service.wire import CODECS, decode_binary_frame
from repro.v6serve import HitlistV6Model
from tests.reference import Reference, packed, run_model, scenario_model
from tests.test_packed_cache import _ask
from tests.test_service_binary import _binary_socket

FAMILIES = (V4, V6)
SERVING = Path(__file__).resolve().parents[1] / "benchmarks" / "serving"


def _assert_records_equal_reference(index, model, pairs):
    """The record path's bytes, and ``query``'s verdicts packed, against
    the reference model's, pair by pair."""
    engine = QueryEngine(index)
    codec = CODECS[index.family]
    records = index.records(pairs, 0, 0, codec)
    verdicts = engine.query_batch(pairs)
    assert len(records) == len(verdicts) == len(pairs)
    wrong = [
        (ip, day)
        for (ip, day), record, verdict in zip(pairs, records, verdicts)
        if not record == codec.pack_verdict(verdict) == packed(model, ip, day)
    ]
    assert not wrong, f"{len(wrong)} of {len(pairs)} pairs, first {wrong[:3]}"


def _pairs_over(index, max_days=None):
    """Every listed address × every window day, plus the unlisted
    neighbours of each, ``day=None`` and days outside every window."""
    listed = sorted(ip for ip, _spans in index.interval_items())
    days = [
        day for first, last in index.windows
        for day in range(first, last + 1)
    ][:max_days]
    top = index.family.max_int
    neighbours = sorted(
        {ip + step for ip in listed for step in (-1, 1) if 0 <= ip + step <= top}
        - set(listed)
    )
    outside = (days[0] - 1, days[-1] + 1, -(1 << 31), (1 << 31) - 1)
    pairs = [(ip, day) for ip in listed for day in days]
    pairs += [(ip, days[len(days) // 2]) for ip in neighbours]
    pairs += [
        (ip, day) for ip in listed + neighbours[:20]
        for day in (None, *outside)
    ]
    return pairs


@pytest.fixture(scope="module")
def golden(small_full_run):
    """The ``small`` run's reference model and compiled index."""
    return run_model(small_full_run), ReputationIndex.from_run(small_full_run)


def _corpus_pairs(index):
    """Each listed address on the first day of its first listing, the
    day after its last, and the default day; every fourth one's
    unlisted neighbours."""
    pairs = []
    top = index.family.max_int
    for at, (ip, spans) in enumerate(index.interval_items()):
        pairs += [(ip, spans[0][0]), (ip, spans[-1][1] + 1), (ip, None)]
        if at % 4 == 0:
            pairs += [
                (near, None) for near in (ip - 1, ip + 1) if 0 <= near <= top
            ]
    return pairs


class TestByteIdentity:
    """(ip, day) by (ip, day): ``records`` == ``pack_verdict`` of
    ``query(ip, day)`` == ``pack_verdict`` of the reference's verdict."""

    @pytest.fixture(scope="class")
    def pairs(self, golden):
        return _pairs_over(golden[1])

    def test_compiled_index(self, golden, pairs):
        model, index = golden
        assert any(day is None for _ip, day in pairs)
        _assert_records_equal_reference(index, model, pairs)

    def test_loaded_snapshot(self, golden, pairs, tmp_path):
        model, index = golden
        loaded = ReputationIndex.load(index.save(tmp_path / "small.idx"))
        _assert_records_equal_reference(loaded, model, pairs)

    def test_successor_with_an_unseen_list(self, golden, pairs):
        model, index = golden
        listed = sorted(ip for ip, _spans in index.interval_items())
        dropped, relisted, fresh = listed[0], listed[1], listed[-1] + 2
        day = index.default_day()
        updates = {
            dropped: [],
            # A list id the category table has never heard of.
            relisted: [(day - 3, day, "list-from-nowhere")],
            fresh: [
                (day - 1, day, "list-from-nowhere"),
                *index.intervals_of(relisted)[:1],
            ],
        }
        successor = index.with_interval_updates(updates)
        assert not QueryEngine(successor).query(dropped).listed
        assert QueryEngine(successor).query(relisted).lists == (
            "list-from-nowhere",
        )
        _assert_records_equal_reference(
            successor,
            model.updated(updates),
            pairs + [(fresh, day), (fresh, None), (fresh, day - 9)],
        )

    def test_restricted_shard_slices(self, golden, pairs):
        model, index = golden
        for shard in PartitionMap(3).ranges:
            _assert_records_equal_reference(
                index.restrict(shard.lo, shard.hi),
                model.restricted(shard.lo, shard.hi),
                [pair for pair in pairs if shard.lo <= pair[0] <= shard.hi],
            )

    def test_v6_index(self):
        scenario = HitlistV6Model().build(5)
        index = scenario_index(scenario)
        assert index.family is V6
        _assert_records_equal_reference(
            index, scenario_model(scenario), _pairs_over(index, 40)
        )

    def test_bench_corpus_and_its_shard_slices(self, monkeypatch):
        """The ``small`` run's keys share one bucket of shard 0's key
        directory; the bench corpus spreads over all of them, so a
        slice's rebased directory is searched for real."""
        monkeypatch.syspath_prepend(str(SERVING))
        import synth

        tables = synth.index_kwargs(synth.generate(0, divisor=400))
        model, index = Reference(**tables), ReputationIndex(**tables)
        pairs = _corpus_pairs(index)
        _assert_records_equal_reference(index, model, pairs)
        for shards in (2, 3, 4):
            for shard in PartitionMap(shards).ranges:
                _assert_records_equal_reference(
                    index.restrict(shard.lo, shard.hi),
                    model.restricted(shard.lo, shard.hi),
                    [pair for pair in pairs if shard.lo <= pair[0] <= shard.hi],
                )


_I32_MAX = (1 << 31) - 1
_I32 = st.integers(min_value=-(1 << 31), max_value=_I32_MAX)
_U32 = st.integers(min_value=0, max_value=(1 << 32) - 1)

#: One address's facts as an index can hold them: up to six list ids of
#: up to 255 UTF-8 bytes, each with a policy category and carrying the
#: address on the queried day or not; NAT and dynamic reuse; u32 users
#: and an origin ASN (AS4294967295 is reserved).
rows = st.tuples(
    st.dictionaries(
        st.text(max_size=40).filter(lambda s: len(s.encode()) <= 255),
        st.tuples(
            st.sampled_from(["ddos", "spam", "reputation"]), st.booleans()
        ),
        max_size=6,
    ),
    st.booleans(),
    st.booleans(),
    _U32,
    st.integers(min_value=0, max_value=(1 << 32) - 2),
)


class TestPackRecordProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(FAMILIES).flatmap(
            lambda family: st.tuples(
                st.just(family),
                st.integers(min_value=0, max_value=family.max_int),
            )
        ),
        _I32,
        rows,
        _U32,
        st.integers(min_value=0, max_value=(1 << 64) - 1),
    )
    def test_record_is_the_verdicts_record(
        self, keyed, day, row, epoch, seq
    ):
        """The record loop against the reference over generated
        one-address indexes, for the address and for its unlisted
        neighbour: the same bytes, which ``query`` decodes into the
        verdict they pack from."""
        family, ip = keyed
        lists, nated, dynamic, users, asn = row
        off_day = day + 1 if day < _I32_MAX else day - 1
        tables = dict(
            windows=[(day, day)],
            intervals={
                ip: [
                    (day, day, name) if on else (off_day, off_day, name)
                    for name, (_category, on) in lists.items()
                ]
            },
            nated={ip} if nated else set(),
            users={ip: users},
            dynamic_prefixes=[family.atom_prefix(ip)] if dynamic else [],
            categories={
                name: category for name, (category, _on) in lists.items()
            },
            asn_by_ip={ip: asn},
            family=family,
        )
        index, model = ReputationIndex(**tables), Reference(**tables)
        codec = CODECS[family]
        engine = QueryEngine(index)
        pairs = [(ip, day), (ip ^ 1, None)]
        for (at, when), record in zip(
            pairs, index.records(pairs, epoch, seq, codec)
        ):
            assert record == packed(model, at, when, epoch, seq)
            verdict = dataclasses.replace(
                engine.query(at, when), epoch=epoch, seq=seq
            )
            assert record == codec.pack_verdict(verdict)
            assert codec.decode_record(record) == verdict.to_wire()


def _assert_directory_searches(keys):
    """``keys``' directory-assisted searches against a plain bisect of
    the same rows: at 0 and 2**32 - 1 (and just outside), and at the
    first and last key of every non-empty bucket, each ±1."""
    assert keys.directory is not None and len(keys.directory) == 4097
    plain = list(keys.low)
    probes = {-1, 0, (1 << 32) - 1, 1 << 32}
    buckets = {}
    for key in plain:
        buckets.setdefault(key >> BUCKET_SHIFT, []).append(key)
    for bucket in buckets.values():
        for key in (bucket[0], bucket[-1]):
            probes.update((key - 1, key, key + 1))
    for ip in sorted(probes):
        lower = bisect_left(plain, ip)
        assert keys.lower(ip) == lower, ip
        assert keys.upper(ip) == bisect_right(plain, ip), ip
        assert keys.find(ip) == (
            lower if plain[lower:lower + 1] == [ip] else -1
        ), ip


def _tiny_tables(addresses):
    """The tables of a v4 index whose rows are ``addresses``, each
    listed on day 1."""
    return dict(
        windows=[(0, 1)],
        intervals={ip: [(1, 1, "alpha")] for ip in addresses},
        nated=set(),
        users={},
        dynamic_prefixes=[],
        categories={"alpha": "spam"},
        asn_by_ip={},
    )


class TestKeyDirectory:
    """The bucket directory over a 32-bit key column: built when an
    index adopts its columns, rebased by ``restrict``, rebuilt by a
    fold, and searched exactly like the column itself."""

    @pytest.fixture(scope="class")
    def tables(self):
        """Keys over the whole space, most buckets holding a few, plus
        the edges of every seventh bucket. (The ``small`` run's keys
        all share one bucket.)"""
        rng = random.Random(30)
        edges = {
            (bucket << BUCKET_SHIFT) + step
            for bucket in range(0, 4097, 7) for step in (-1, 0)
        }
        keys = set(rng.sample(range(1 << 32), 6000)) | edges
        return _tiny_tables(sorted(keys - {-1, 1 << 32}))

    @pytest.fixture(scope="class")
    def index(self, tables):
        return ReputationIndex(**tables)

    def test_compiled_loaded_and_folded(self, tables, index, tmp_path):
        listed = sorted(ip for ip, _spans in index.interval_items())
        dropped = {ip: [] for ip in listed[::2]}
        folded = index.with_interval_updates(dropped)
        loaded = ReputationIndex.load(index.save(tmp_path / "d.idx"))
        for built in (index, loaded, folded):
            _assert_directory_searches(built._columns.keys)
        _assert_records_equal_reference(
            folded,
            Reference(**tables).updated(dropped),
            [(ip + step, None) for ip in listed[::3] for step in (-1, 0, 1)
             if 0 <= ip + step < 1 << 32],
        )

    def test_every_shard_slice_is_rebased(self, tables, index):
        whole = index._columns.keys
        for shard in PartitionMap(3).ranges:
            part = index.restrict(shard.lo, shard.hi)
            keys = part._columns.keys
            assert keys.directory is not whole.directory
            assert keys.directory == KeyColumn(keys.low).indexed().directory
            _assert_directory_searches(keys)
            _assert_records_equal_reference(
                part,
                Reference(**tables).restricted(shard.lo, shard.hi),
                [(ip, 1) for ip in keys.low[::5]],
            )

    @pytest.mark.parametrize(
        "addresses", [(), (0,), ((1 << 32) - 1,), (0x0A000001,)]
    )
    def test_empty_and_one_row_indexes(self, addresses):
        tables = _tiny_tables(addresses)
        tiny = ReputationIndex(**tables)
        _assert_directory_searches(tiny._columns.keys)
        pairs = [
            (ip, day) for ip in (0, 1, 0x0A000001, (1 << 32) - 1)
            for day in (None, 0, 1)
        ]
        _assert_records_equal_reference(tiny, Reference(**tables), pairs)

    def test_a_wide_key_column_has_none(self):
        index = scenario_index(HitlistV6Model().build(5))
        assert index._columns.keys.directory is None

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                _U32,
                # Crowd a few buckets and their edges.
                st.integers(min_value=0, max_value=4096).flatmap(
                    lambda bucket: st.integers(
                        min_value=max((bucket << BUCKET_SHIFT) - 3, 0),
                        max_value=min(
                            (bucket << BUCKET_SHIFT) + 3, (1 << 32) - 1
                        ),
                    )
                ),
            ),
            unique=True,
            max_size=200,
        ).map(sorted),
        st.data(),
    )
    def test_directory_search_is_a_plain_bisect(self, keys, data):
        """``find`` / ``lower`` / ``upper`` through the directory — of
        a whole column and of a slice, whose directory is rebased —
        equal a plain bisect over the same rows."""
        column = KeyColumn.build(False, keys).indexed()
        start = data.draw(st.integers(min_value=0, max_value=len(keys)))
        stop = data.draw(st.integers(min_value=start, max_value=len(keys)))
        for searched in (column, column.slice(start, stop)):
            _assert_directory_searches(searched)
            plain = list(searched.low)
            for ip in data.draw(st.lists(_U32, max_size=20)):
                assert searched.find(ip) == (
                    plain.index(ip) if ip in plain else -1
                )
                assert searched.lower(ip) == bisect_left(plain, ip)
                assert searched.upper(ip) == bisect_right(plain, ip)


def _answers_by_every_op(address, pairs):
    """``pairs`` answered by every op on both codecs, as wire dicts:
    the JSON ``query`` and ``batch`` ops sent with ``call`` (``FT_MSG``
    on the binary codec), and ``query()`` / ``query_batch()``."""
    queries = [{"ip": V4.format(ip), "day": day} for ip, day in pairs]
    answers = {}
    for codec in ("json", "binary"):
        with ReputationClient(*address, codec=codec) as client:
            assert client.codec == codec
            answers[codec, "query op"] = [
                client.call({"op": "query", **query}) for query in queries
            ]
            answers[codec, "batch op"] = client.call(
                {"op": "batch", "queries": queries}
            )
            answers[codec, "query()"] = [
                client.query(ip, day) for ip, day in pairs
            ]
            answers[codec, "query_batch()"] = [
                dict(verdict) for verdict in client.query_batch(pairs)
            ]
    return answers


class TestServedFrames:
    @pytest.fixture()
    def server(self, index):
        with ReputationServer(
            QueryEngine(index), connection_timeout=5.0
        ) as server:
            server.start()
            yield server

    def test_a_frame_of_misses_builds_no_verdict(
        self, index, server, monkeypatch
    ):
        """The guard that keeps the object off the wire: no op on
        either codec builds one, not even for a day outside i32, which
        no record can carry."""
        listed = sorted(ip for ip, _spans in index.interval_items())
        pairs = [(ip, 230) for ip in listed[:30]] + [(1, None), (2, 230)]
        reference = QueryEngine(index)
        expected = [reference.query(ip, day).to_wire() for ip, day in pairs]
        wide = reference.query(listed[0], 2**40).to_wire()
        built = []
        init = Verdict.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Verdict, "__init__", counting_init)
        # Nothing stays cached: every op below answers misses.
        monkeypatch.setattr(server_module, "PACKED_CACHE_SIZE", 0)
        with _binary_socket(server.address) as peer:
            (payload,) = _ask(peer, pairs)
        with ReputationClient(*server.address) as client:
            assert client.stats()["cache"]["misses"] == len(pairs)
        answers = _answers_by_every_op(server.address, pairs)
        assert built == []
        with ReputationClient(*server.address, codec="binary") as client:
            assert client.query(listed[0], 2**40) == wide
        assert built == []
        assert CODECS[V4].decode_batch_reply(payload) == expected
        assert answers == dict.fromkeys(answers, expected)

    def test_a_routed_answer_builds_no_verdict(self, index, monkeypatch):
        """The same guard across the router: a counter in a forked
        shard is out of reach, so the shards inherit a ``Verdict`` that
        cannot be built (and a cache that keeps nothing) — and every
        answer is still the one a single engine gives. A day outside
        i32 reaches its shard packed, as its default-day record."""
        listed = sorted(ip for ip, _spans in index.interval_items())
        pairs = [(ip, 230) for ip in listed[::7]] + [(1, None), (2, 230)]
        pairs.append((listed[0], 2**40))
        reference = QueryEngine(index)
        expected = [reference.query(ip, day).to_wire() for ip, day in pairs]

        def refuse(self, *args, **kwargs):
            raise AssertionError("a Verdict was built")

        monkeypatch.setattr(Verdict, "__init__", refuse)
        monkeypatch.setattr(server_module, "PACKED_CACHE_SIZE", 0)
        with LocalCluster(index, shards=3) as cluster:
            assert cluster.router.wait_healthy(10.0)
            answers = _answers_by_every_op(cluster.address, pairs)
        assert answers == dict.fromkeys(answers, expected)

    def test_misses_and_hits_are_counted_where_they_were(
        self, index, server
    ):
        """``server.packed_hit_rate`` in the ledger is derived from
        ``queries.batch.queries``: it must count misses, and only
        misses, exactly as ``query_batch`` did."""
        listed = sorted(ip for ip, _spans in index.interval_items())
        hits = [(ip, 230) for ip in listed[:7]]
        misses = [(ip, 231) for ip in listed[:11]]
        with ReputationClient(*server.address) as client, _binary_socket(
            server.address
        ) as peer:
            _ask(peer, hits)  # prime
            before = client.stats()
            _ask(peer, misses[:5] + hits + misses[5:])
            after = client.stats()
        batch_before = before["queries"]["batch"]
        batch_after = after["queries"]["batch"]
        assert batch_after["queries"] - batch_before["queries"] == 11
        assert batch_after["calls"] - batch_before["calls"] == 1
        assert batch_after["seconds"] >= batch_before["seconds"]
        assert after["cache"]["misses"] - before["cache"]["misses"] == 11
        assert after["cache"]["hits"] - before["cache"]["hits"] == 7

    @pytest.mark.parametrize("bad", [-1, 1 << 32, True, "1.2.3.4", None])
    def test_bad_address_is_query_batchs_error(self, index, bad):
        engine = QueryEngine(index)
        with pytest.raises(ValueError) as by_batch:
            engine.query_batch([(5, None), (bad, 3)])
        with pytest.raises(ValueError) as by_records:
            index.records([(5, None), (bad, 3)], 0, 0, CODECS[V4])
        assert str(by_records.value) == str(by_batch.value)
        assert str(by_batch.value) == f"bad address integer: {bad!r}"

    @pytest.mark.parametrize("bad", [True, 230.9, "231"])
    def test_a_day_is_never_coerced(self, index, bad):
        """A day is an ``int`` or ``None``, on every path: ``True`` is
        not day 1, ``230.9`` not day 230, ``"231"`` not day 231."""
        engine = QueryEngine(index)
        asks = (
            lambda: engine.query(5, bad),
            lambda: engine.query_batch([(5, None), (5, bad)]),
            lambda: index.records([(5, None), (5, bad)], 0, 0, CODECS[V4]),
        )
        for ask in asks:
            with pytest.raises(
                ValueError, match=re.escape(f"bad day integer: {bad!r}")
            ):
                ask()


class TestWideDays:
    """A day outside i32 has no record. ``query`` and the JSON
    ``query`` and ``batch`` ops all ask the address's record on the
    default day and answer it unlisted, with the asked day, through the
    one ``wire.unlisted_on``; all give the same dict, also for an
    address listed on the default day."""

    @pytest.fixture(scope="class")
    def server(self, golden):
        with ReputationServer(
            QueryEngine(golden[1]), connection_timeout=5.0
        ) as server:
            server.start()
            yield server

    @staticmethod
    def _address(model, kind):
        listed = set(model.intervals)
        if kind == "nated":
            return min(model.nated & listed)
        if kind == "dynamic":
            return min(ip for ip in listed if model.is_dynamic(ip))
        if kind == "listed-today":
            today = model.windows[-1][1]
            return min(
                ip for ip in model.nated & listed
                if model.verdict(ip, today)["listed"]
            )
        return min(ip for ip in model.known_ips() if ip not in listed)

    @pytest.mark.parametrize("day", [-(1 << 31) - 1, 1 << 31, 1 << 40])
    @pytest.mark.parametrize(
        "kind", ["nated", "dynamic", "unlisted", "listed-today"]
    )
    def test_engine_and_json_ops_agree(self, golden, server, kind, day):
        model, index = golden
        ip = self._address(model, kind)
        verdict = QueryEngine(index).query(ip, day)
        got = dataclasses.asdict(verdict)
        got.pop("family")
        assert got == model.verdict(ip, day)
        assert verdict.nated or verdict.dynamic or kind == "unlisted"
        query = {"ip": V4.format(ip), "day": day}
        with ReputationClient(*server.address) as client:
            assert client.call({"op": "query", **query}) == verdict.to_wire()
            assert client.call({"op": "batch", "queries": [query] * 2}) == [
                verdict.to_wire()
            ] * 2


def test_same_bytes(monkeypatch):
    """EXPERIMENTS.md "Same bytes": 51,200 bench-corpus keys, sent as
    the request records of 128-query frames, through the server's
    records routine hash to the digest their reply bytes have had since
    it was first taken, so any change to a reply byte fails here. A
    second pass over every key the cache then holds is answered from
    the cache alone, with the first pass's bytes."""
    monkeypatch.syspath_prepend(str(SERVING))
    import synth

    tables = synth.generate(0)
    server = ReputationServer(
        QueryEngine(ReputationIndex(**synth.index_kwargs(tables)))
    )
    codec = CODECS[V4]
    pairs = synth.query_keys(tables, random.Random(0), 51_200)
    keys = []
    for at in range(0, len(pairs), 128):
        frame = codec.encode_batch_request(pairs[at:at + 128], 1)
        keys += codec.split_batch_request(decode_binary_frame(frame)[2], 128)
    first, again = [], []
    try:
        for at in range(0, len(keys), 128):
            server._records(keys[at:at + 128], None, first.extend, pytest.fail)
        held = list(server._packed)
        misses = server._counters.read("cache")["misses"]
        for at in range(0, len(held), 128):
            server._records(held[at:at + 128], None, again.extend, pytest.fail)
        assert server._counters.read("cache")["misses"] == misses
    finally:
        server.shutdown()
    assert hashlib.sha256(b"".join(first)).hexdigest() == (
        "8401e79d3807e5bc3542485e9c6b316eeb2180c8f9b3dda16ad2eaff9333de51"
    )
    # 50,399 distinct keys overflow the table: each time it passes the
    # capacity a rebuild keeps the newest three quarters.
    assert len(set(keys)) == 50_399 and len(held) == 25_710
    answered = dict(zip(keys, first))
    assert again == [answered[key] for key in held]
