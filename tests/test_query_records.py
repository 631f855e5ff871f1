"""The binary batch path: ``index.facts`` → packed record, no ``Verdict``.

``QueryEngine.query_records`` hands each :func:`~repro.service.engine.
evaluate` row straight to ``BinaryCodec.pack_record``. The object path
(``query`` → ``Verdict`` → ``pack_verdict``) is the reference it must
match byte for byte, on every kind of index the serving stack builds;
the rest pins that the object stays off the path and that the path is
counted like the one it replaced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import scenario_index
from repro.cluster import LocalCluster, PartitionMap
from repro.net.family import V4, V6
from repro.service.client import ReputationClient
from repro.service.engine import QueryEngine, Verdict, evaluate
from repro.service.index import ReputationIndex
from repro.service import server as server_module
from repro.service.server import ReputationServer
from repro.service.wire import CODECS
from repro.v6serve import HitlistV6Model
from tests.test_packed_cache import _ask
from tests.test_service_binary import _binary_socket

FAMILIES = (V4, V6)


def _assert_records_equal_verdicts(index, pairs):
    """The record path's bytes against the object path's, pair by
    pair, both on one engine."""
    engine = QueryEngine(index)
    codec = CODECS[index.family]
    records = engine.query_records(engine.resolve_state(), pairs, codec)
    assert len(records) == len(pairs)
    for (ip, day), record in zip(pairs, records):
        assert record == codec.pack_verdict(engine.query(ip, day)), (ip, day)


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


class TestByteIdentity:
    """(ip, day) by (ip, day): ``query_records`` ==
    ``pack_verdict(query(ip, day))``."""

    @pytest.fixture(scope="class")
    def index(self, small_full_run):
        return ReputationIndex.from_run(small_full_run)

    @pytest.fixture(scope="class")
    def pairs(self, index):
        return _pairs_over(index)

    def test_compiled_index(self, index, pairs):
        assert any(day is None for _ip, day in pairs)
        _assert_records_equal_verdicts(index, pairs)

    def test_loaded_snapshot(self, index, pairs, tmp_path):
        loaded = ReputationIndex.load(index.save(tmp_path / "small.idx"))
        _assert_records_equal_verdicts(loaded, pairs)

    def test_successor_with_a_live_overlay(self, index, pairs):
        listed = sorted(ip for ip, _spans in index.interval_items())
        dropped, relisted, fresh = listed[0], listed[1], listed[-1] + 2
        day = index.default_day()
        successor = index.with_interval_updates(
            {
                dropped: [],
                # A list id the category table has never heard of.
                relisted: [(day - 3, day, "list-from-nowhere")],
                fresh: [
                    (day - 1, day, "list-from-nowhere"),
                    *index.intervals_of(relisted)[:1],
                ],
            }
        )
        assert set(successor._overlay) == {dropped, relisted, fresh}
        assert not QueryEngine(successor).query(dropped).listed
        assert QueryEngine(successor).query(relisted).lists == (
            "list-from-nowhere",
        )
        _assert_records_equal_verdicts(
            successor, pairs + [(fresh, day), (fresh, None), (fresh, day - 9)]
        )

    def test_restricted_shard_slices(self, index, pairs):
        for shard in PartitionMap(3).ranges:
            part = index.restrict(shard.lo, shard.hi)
            _assert_records_equal_verdicts(
                part,
                [pair for pair in pairs if shard.lo <= pair[0] <= shard.hi],
            )

    def test_v6_index(self):
        index = scenario_index(HitlistV6Model().build(5))
        assert index.family is V6
        _assert_records_equal_verdicts(index, _pairs_over(index, 40))


_I32 = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
_U32 = st.integers(min_value=0, max_value=(1 << 32) - 1)

#: Rows as the columns can hold them: u32 users and ASN, up to 255
#: list ids of up to 255 UTF-8 bytes, any action of the policy.
rows = st.tuples(
    st.lists(
        st.text(max_size=40).filter(lambda s: len(s.encode()) <= 255),
        max_size=6,
        unique=True,
    ).map(lambda ids: tuple(sorted(ids))),
    st.booleans(),
    st.booleans(),
    _U32,
    _U32,
    st.sampled_from(["ignore", "greylist", "block"]),
)


class TestPackRecordProperty:
    @settings(max_examples=300, deadline=None)
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
        """One packer, two front ends: from fields and from the object
        built out of the same fields, to the same bytes — which decode
        back to the object's wire form."""
        family, ip = keyed
        codec = CODECS[family]
        record = codec.pack_record(ip, day, *row, epoch, seq)
        verdict = Verdict.from_row(family, ip, day, *row, epoch, seq)
        assert record == codec.pack_verdict(verdict)
        assert codec.decode_record(record) == verdict.to_wire()


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
    @pytest.fixture(scope="class")
    def index(self, small_full_run):
        return ReputationIndex.from_run(small_full_run)

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
        either codec builds one — only a day outside i32, which no
        record can carry, builds exactly one."""
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
        with _binary_socket(server.address) as sock:
            (payload,) = _ask(sock, pairs)
        with ReputationClient(*server.address) as client:
            assert client.stats()["cache"]["misses"] == len(pairs)
        answers = _answers_by_every_op(server.address, pairs)
        assert built == []
        with ReputationClient(*server.address, codec="binary") as client:
            assert client.query(listed[0], 2**40) == wide
        assert built == [1]  # the day outside i32, and only it
        assert CODECS[V4].decode_batch_reply(payload) == expected
        assert answers == dict.fromkeys(answers, expected)

    def test_a_routed_answer_builds_no_verdict(self, index, monkeypatch):
        """The same guard across the router: a counter in a forked
        shard is out of reach, so the shards inherit a ``Verdict`` that
        cannot be built (and a cache that keeps nothing) — and every
        answer is still the one a single engine gives."""
        listed = sorted(ip for ip, _spans in index.interval_items())
        pairs = [(ip, 230) for ip in listed[::7]] + [(1, None), (2, 230)]
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
        ) as sock:
            _ask(sock, hits)  # prime
            before = client.stats()
            _ask(sock, misses[:5] + hits + misses[5:])
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
            engine.query_records(
                engine.resolve_state(), [(5, None), (bad, 3)], CODECS[V4]
            )
        assert str(by_records.value) == str(by_batch.value)
        assert str(by_batch.value) == f"bad address integer: {bad!r}"


def test_evaluate_is_the_one_row(small_full_run):
    """``Verdict`` and record are both views of :func:`evaluate`'s
    row — the function the engine module documents as the single
    evaluation routine."""
    index = ReputationIndex.from_run(small_full_run)
    ip, spans = next(iter(index.interval_items()))
    day = spans[0][0]
    row = evaluate(index, ip, day)
    assert row[:5] == index.facts(ip, day) and row[5] in ("greylist", "block")
    assert QueryEngine(index).query(ip, day) == Verdict.from_row(
        V4, ip, day, *row
    )
    assert evaluate(index, ip, day - 10_000)[5] == "ignore"
