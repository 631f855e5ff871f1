"""The serving stack's one verdict cache: ``ReputationServer._packed``.

The engine behind the server keeps no per-key state, so every claim a
cache has to honour is made here, over a live binary connection: a hit
returns the bytes of the first answer, a key is the request record as
it came (so ``day=None`` and the default day are two keys, holding one
record's bytes), an epoch swap can never be answered from a superseded
epoch's record (between batches, between two batches of one pipelined
window, or in the middle of a batch — where every record of the frame
still reports the one epoch the frame was probed under, and is stored
in that epoch's table), a swap to the very next epoch carries every
record of an address its batch did not rewrite, restamped and byte for
byte what the reference owes, while any other swap starts an empty
table, the cache stays bounded, and an evicted key is simply evaluated
again.
"""

import pytest

from repro.net.family import V4
from repro.service import server as server_module
from repro.service.client import ReputationClient
from repro.service.engine import QueryEngine
from repro.service.server import ReputationServer
from repro.service.wire import CODECS
from repro.stream.delta import DeltaBatch, ListingDelta
from repro.stream.epoch import EpochIndex
from tests.reference import packed
from tests.test_service_binary import _binary_socket

CODEC = CODECS[V4]


@pytest.fixture(scope="module")
def listed(index):
    return sorted(ip for ip, _spans in index.interval_items())


def _serve(engine):
    server = ReputationServer(engine, connection_timeout=5.0)
    server.start()
    return server


def _ask(peer, *batches):
    """Send every batch in ONE write (a pipelined window) on ``peer``,
    a socket and its reader, then read the raw reply payloads back in
    order."""
    sock, frames = peer
    sock.sendall(
        b"".join(
            CODEC.encode_batch_request(pairs, rid)
            for rid, pairs in enumerate(batches, start=1)
        )
    )
    payloads = []
    for rid in range(1, len(batches) + 1):
        ftype, got_rid, payload = frames.read(binary=True)
        assert (ftype, got_rid) == (CODEC.ft_reply, rid)
        payloads.append(payload)
    return payloads


def _held(server):
    """The server's table: its epoch, and per ``(ip, day)`` key the
    epoch its record reports."""
    return server._epoch, {
        CODEC.decode_requests([key])[0]: CODEC.decode_record(record)["epoch"]
        for key, record in server._packed.items()
    }


def _extension(index):
    """An ``(ip, day, delta)`` where ``ip`` is unlisted on ``day`` until
    ``delta`` (one ``extend``) is applied."""
    for ip, spans in index.interval_items():
        if spans:
            first, last, list_id = spans[0]
            day = max(span[1] for span in spans) + 50
            return ip, day, ListingDelta(
                day, ip, list_id, "extend", first, day
            )
    raise AssertionError("index has no intervals")


class TestPackedCacheHits:
    def test_repeat_is_byte_identical_and_equals_the_engine(
        self, index, listed
    ):
        pairs = [(ip, 230) for ip in listed[:40]] + [
            (listed[0], None),
            (1, 230),  # an address the index has no fact for
        ]
        server = _serve(QueryEngine(index))
        try:
            with _binary_socket(server.address) as peer:
                (first,) = _ask(peer, pairs)
                (again,) = _ask(peer, pairs)
            assert again == first
            reference = QueryEngine(index)
            assert CODEC.decode_batch_reply(first) == [
                reference.query(ip, day).to_wire() for ip, day in pairs
            ]
            with ReputationClient(*server.address) as client:
                cache = client.stats()["cache"]
        finally:
            server.shutdown()
        # Every pair is its own key, missed once and hit once.
        assert cache == {
            "entries": len(pairs),
            "capacity": server_module.PACKED_CACHE_SIZE,
            "hits": len(pairs),
            "misses": len(pairs),
        }

    def test_a_key_is_the_request_record_as_it_came(self, index, listed):
        """``day=None``, the explicit default day, and ``has_day=0``
        with day bytes that are not zero are three keys; all three are
        answered as the default day, with one record's bytes."""
        ip, default = listed[0], index.default_day()
        asked = [CODEC.pack_request(ip, None), CODEC.pack_request(ip, default)]
        asked.append(asked[0][:-4] + (7).to_bytes(4, "big"))
        server = _serve(QueryEngine(index))
        try:
            with _binary_socket(server.address) as (sock, frames):
                for rid in (1, 2):
                    sock.sendall(CODEC.encode_request_frame(asked, rid))
                    ftype, got_rid, payload = frames.read(binary=True)
                    assert (ftype, got_rid) == (CODEC.ft_reply, rid)
                    records = CODEC.split_batch_reply(payload)
                    assert records == [records[0]] * 3
            assert list(server._packed) == asked
            assert server._counters.read("cache") == {"hits": 3, "misses": 3}
        finally:
            server.shutdown()
        assert CODEC.decode_record(records[0]) == (
            QueryEngine(index).query(ip, None).to_wire()
        )
        assert CODEC.decode_record(records[0])["day"] == default


class TestPackedCacheAcrossEpochs:
    """A cached record is only ever served for the epoch it names."""

    @pytest.fixture()
    def streamed(self, index):
        epochs = EpochIndex(index)
        server = _serve(QueryEngine(epochs))
        yield epochs, server
        server.shutdown()

    def _check_swap(self, before, after, ip, list_id):
        assert (before["epoch"], before["seq"]) == (0, 0)
        assert not before["listed"]
        assert (after["epoch"], after["seq"]) == (1, 1)
        assert after["listed"] and list_id in after["lists"]

    def test_swap_between_batches(self, index, streamed):
        epochs, server = streamed
        ip, day, delta = _extension(index)
        with _binary_socket(server.address) as peer:
            (cold,) = _ask(peer, [(ip, day)])
            (cached,) = _ask(peer, [(ip, day)])
            assert cached == cold
            epochs.apply(DeltaBatch(1, day, (delta,)))
            (fresh,) = _ask(peer, [(ip, day)])
        (before,) = CODEC.decode_batch_reply(cached)
        (after,) = CODEC.decode_batch_reply(fresh)
        self._check_swap(before, after, ip, delta.list_id)
        assert after == QueryEngine(epochs).query(ip, day).to_wire()

    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_swap_between_point_queries(self, index, streamed, codec):
        """A point query — the JSON ``query`` op, or the binary
        ``query()``'s one-pair frame — reads and fills the same cache,
        and is never answered from a superseded epoch's record."""
        epochs, server = streamed
        ip, day, delta = _extension(index)
        with ReputationClient(*server.address, codec=codec) as client:
            cold = client.query(ip, day)
            assert client.query(ip, day) == cold
            epochs.apply(DeltaBatch(1, day, (delta,)))
            fresh = client.query(ip, day)
            cache = client.stats()["cache"]
        self._check_swap(cold, fresh, ip, delta.list_id)
        assert fresh == QueryEngine(epochs).query(ip, day).to_wire()
        assert (cache["hits"], cache["misses"]) == (1, 2)
        # The swap's first request carried epoch 0's table into epoch
        # 1's but for the record of the address the batch rewrote.
        assert _held(server) == (1, {(ip, day): 1})

    def test_swap_inside_a_pipelined_window(
        self, index, streamed, monkeypatch
    ):
        """Two batches arrive in one read; the swap lands after the
        first is answered and before the second is looked at."""
        epochs, server = streamed
        ip, day, delta = _extension(index)
        answer = server._records
        handled = []

        def answer_then_swap(pairs, op, reply, fail):
            answer(pairs, op, reply, fail)
            handled.append(pairs)
            if len(handled) == 2:  # the priming batch, then the first
                epochs.apply(DeltaBatch(1, day, (delta,)))

        monkeypatch.setattr(server, "_records", answer_then_swap)
        with _binary_socket(server.address) as peer:
            _ask(peer, [(ip, day)])  # prime the epoch-0 record
            first, second = _ask(peer, [(ip, day)], [(ip, day)])
        assert len(handled) == 3
        (before,) = CODEC.decode_batch_reply(first)
        (after,) = CODEC.decode_batch_reply(second)
        self._check_swap(before, after, ip, delta.list_id)

    def _swap_before_evaluation(
        self, monkeypatch, server, epochs, batch, nth
    ):
        """Apply ``batch`` on the loop thread just before the served
        index evaluates its ``nth`` query (0-based): inside one call,
        after the server read its epoch. The record loop draws its miss
        pairs one at a time, so the swap goes in as it draws the
        ``nth``. Returns the addresses evaluated, in order."""
        served = type(epochs.index)  # every epoch's index, the swap's too
        records = served.records
        evaluated = []

        def swapping(pairs):
            for pair in pairs:
                if len(evaluated) == nth:
                    epochs.apply(batch)
                evaluated.append(pair[0])
                yield pair

        def records_swapping(index, pairs, epoch, seq, codec):
            return records(index, swapping(pairs), epoch, seq, codec)

        monkeypatch.setattr(served, "records", records_swapping)
        return evaluated

    def test_swap_in_the_middle_of_a_batch(
        self, index, listed, streamed, monkeypatch
    ):
        """One frame, one epoch: a swap landing between two of a
        frame's misses moves neither record, nor its cache entry, to
        the new epoch; the next frame answers both from it — the
        untouched address's record carried over, restamped, and only
        the changed one evaluated again."""
        epochs, server = streamed
        ip, day, delta = _extension(index)
        other = next(a for a in listed if a != ip)
        evaluated = self._swap_before_evaluation(
            monkeypatch, server, epochs, DeltaBatch(1, day, (delta,)), nth=1
        )
        pairs = [(other, day), (ip, day)]
        with _binary_socket(server.address) as peer:
            (straddling,) = _ask(peer, pairs)
            assert _held(server) == (0, {(other, day): 0, (ip, day): 0})
            (settled,) = _ask(peer, pairs)
        first, second = CODEC.decode_batch_reply(straddling)
        assert (first["epoch"], first["seq"]) == (0, 0)
        # ``ip`` was evaluated after the swap, against the frame's own
        # epoch all the same; ``other`` never reached the index again.
        assert evaluated == [other, ip, ip]
        same, after = CODEC.decode_batch_reply(settled)
        self._check_swap(second, after, ip, delta.list_id)
        assert (same["epoch"], same["seq"]) == (1, 1)
        assert _held(server) == (1, {(other, day): 1, (ip, day): 1})

    def test_swap_between_probe_and_evaluation(
        self, index, listed, streamed, monkeypatch
    ):
        """A ``[miss, hit]`` frame whose swap lands after the cache
        probe: the miss is evaluated against the epoch the hit was
        probed under, so epoch and ``seq`` never step back in a reply."""
        epochs, server = streamed
        ip, day, delta = _extension(index)
        other = next(a for a in listed if a != ip)
        with _binary_socket(server.address) as peer:
            _ask(peer, [(other, day)])  # prime the hit, at epoch 0
            self._swap_before_evaluation(
                monkeypatch, server, epochs, DeltaBatch(1, day, (delta,)),
                nth=0,
            )
            (straddling,) = _ask(peer, [(ip, day), (other, day)])
            # The miss went into the table it was probed in.
            assert _held(server) == (0, {(other, day): 0, (ip, day): 0})
            (settled,) = _ask(peer, [(ip, day), (other, day)])
        miss, hit = CODEC.decode_batch_reply(straddling)
        assert (miss["epoch"], miss["seq"]) == (hit["epoch"], hit["seq"])
        after, _ = CODEC.decode_batch_reply(settled)
        self._check_swap(miss, after, ip, delta.list_id)

    def test_swap_in_the_middle_of_a_json_batch(
        self, index, listed, streamed, monkeypatch
    ):
        """The JSON ``batch`` op is one epoch too."""
        epochs, server = streamed
        ip, day, delta = _extension(index)
        other = next(a for a in listed if a != ip)
        self._swap_before_evaluation(
            monkeypatch, server, epochs, DeltaBatch(1, day, (delta,)), nth=1
        )
        pairs = [(other, day), (ip, day)]
        with ReputationClient(*server.address, codec="json") as client:
            first, second = client.query_batch(pairs)
            _, after = client.query_batch(pairs)
        assert (first["epoch"], first["seq"]) == (0, 0)
        self._check_swap(second, after, ip, delta.list_id)


class TestPackedCacheCarry:
    """A swap to the very next epoch carries the table, a slice a
    request: each record of an address the batch did not rewrite is
    restamped, never evaluated again."""

    @pytest.fixture()
    def following(self, world):
        epochs = EpochIndex(world.base, day=world.start_day)
        server = _serve(QueryEngine(epochs))
        with _binary_socket(server.address) as (sock, frames):
            rids = iter(range(1, 1 << 20))

            def ask(keys):
                """The records answering request records ``keys``."""
                rid = next(rids)
                sock.sendall(CODEC.encode_request_frame(keys, rid))
                ftype, got, payload = frames.read(binary=True)
                assert (ftype, got) == (CODEC.ft_reply, rid)
                return CODEC.split_batch_reply(payload)

            yield epochs, server, ask
        server.shutdown()

    @staticmethod
    def _owed(world, keys, seq):
        """The reference's records for ``keys`` at ``seq``, whose epoch
        number it is too."""
        model = world.reference.as_of(world.day_of_seq[seq])
        return [
            packed(model, ip, day, seq, seq)
            for ip, day in CODEC.decode_requests(keys)
        ]

    def test_thirty_swaps_are_byte_identical_and_carry_what_held(
        self, world, following
    ):
        epochs, server, ask = following
        days = (None, world.days[len(world.days) // 2], world.days[-1])
        keys = [
            CODEC.pack_request(ip, day) for ip in world.listed for day in days
        ]
        # One request carries the whole table.
        assert len(keys) <= server_module.CARRY_SLICE
        assert ask(keys) == self._owed(world, keys, 0)
        misses, rewritten = len(keys), []
        for batch in world.batches[:30]:
            held = list(server._packed)
            epoch = epochs.apply(batch)
            assert epoch.changed == {delta.ip for delta in batch.deltas}
            rewritten.append(sum(
                ip in epoch.changed for ip, _ in CODEC.decode_requests(held)
            ))
            assert ask(held) == self._owed(world, held, batch.seq)
            # Only the rewritten addresses' keys reached the engine.
            misses += rewritten[-1]
            assert server._counters.read("cache")["misses"] == misses
            assert sorted(server._packed) == sorted(held)
        assert 0 < sum(rewritten) < 30 * len(keys) / 2

    def test_two_swaps_between_requests_start_an_empty_table(
        self, world, following
    ):
        epochs, server, ask = following
        keys = [CODEC.pack_request(ip, None) for ip in world.listed]
        ask(keys)
        for batch in world.batches[:2]:
            epochs.apply(batch)
        (ip, day), seq = CODEC.decode_requests(keys[:1])[0], 2
        assert ask(keys[:1]) == self._owed(world, keys[:1], seq)
        assert _held(server) == (seq, {(ip, day): seq})
        assert server._counters.read("cache")["misses"] == len(keys) + 1

    def test_the_table_crosses_a_slice_a_request(
        self, world, following, monkeypatch
    ):
        monkeypatch.setattr(server_module, "CARRY_SLICE", 8)
        epochs, server, ask = following
        # Addresses no batch touches: the index has no fact for them.
        held = [CODEC.pack_request(ip, None) for ip in range(1, 41)]
        ask(held)
        batch = world.batches[0]
        epochs.apply(batch)
        asked = [CODEC.pack_request(100 + n, None) for n in range(6)]
        for n, key in enumerate(asked, 1):
            ask([key])
            assert len(server._packed) == min(8 * n, len(held)) + n
        assert _held(server)[1] == dict.fromkeys(
            CODEC.decode_requests(held + asked), batch.seq
        )
        assert ask(held) == self._owed(world, held, batch.seq)
        assert server._counters.read("cache")["misses"] == len(held + asked)


class TestPackedCacheBound:
    def test_stays_bounded_and_evicted_keys_are_still_right(
        self, index, listed, monkeypatch
    ):
        capacity, batch = 8, 5
        monkeypatch.setattr(server_module, "PACKED_CACHE_SIZE", capacity)
        keys = [(ip, day) for day in (229, 230) for ip in listed[:20]]
        batches = [
            keys[at:at + batch] for at in range(0, len(keys), batch)
        ]
        reference = QueryEngine(index)
        server = _serve(QueryEngine(index))
        try:
            with _binary_socket(server.address) as peer:
                for pairs in batches:
                    (payload,) = _ask(peer, pairs)
                    assert len(server._packed) <= capacity
                    assert CODEC.decode_batch_reply(payload) == [
                        reference.query(ip, day).to_wire()
                        for ip, day in pairs
                    ]
                # Past the capacity one rebuild keeps the newest three
                # quarters: the oldest keys were evicted (FIFO), and
                # asked again they are misses, answered as before.
                kept = capacity * 3 // 4
                assert list(server._packed) == [
                    CODEC.pack_request(ip, day) for ip, day in keys[-kept:]
                ]
                (payload,) = _ask(peer, batches[0])
            assert CODEC.decode_batch_reply(payload) == [
                reference.query(ip, day).to_wire()
                for ip, day in batches[0]
            ]
            with ReputationClient(*server.address) as client:
                cache = client.stats()["cache"]
        finally:
            server.shutdown()
        assert cache == {
            "entries": kept,
            "capacity": capacity,
            "hits": 0,
            "misses": len(keys) + batch,
        }
