"""Sharded cluster tests: partitioning, restricted indexes, routing,
failover, degradation, and the ISSUE's acceptance scenario.

The acceptance bar: a cluster following a live update log must return
verdicts field-for-field equal to the single-process server's for
every blocklisted IP, under concurrent clients, *while* a shard is
killed and restarted mid-run — the only tolerated deviation being
explicit ``SHARD_UNAVAILABLE`` degradation during the outage window.
"""

import gc
import multiprocessing
import os
import queue
import random
import signal
import socket
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.net.family import V4, V6
from repro.net.ipv4 import MAX_IPV4, int_to_ip
from repro.cluster import (
    MAX_SHARDS,
    LocalCluster,
    PartitionMap,
    Router,
    SHARD_UNAVAILABLE,
    ShardProcess,
    ShardRange,
    filter_batch,
)
from repro.cluster import shard as shard_module
from repro.cluster.router import Backend
from repro.service.aio import Link
from repro.service.client import ReputationClient, ServiceError
from repro.service.engine import QueryEngine
from repro.service.index import ReputationIndex
from repro.service.server import ReputationServer
from repro.service.wire import CODECS, FT_MSG, decode_msg_payload
from repro.stream.epoch import EpochIndex
from repro.stream.log import UpdateLogWriter
from tests.conftest import wait_for_seq
from tests.test_frozen_bench_surface import SERVING
from tests.fake_peer import FakePeer, json_only, polite, silent, verdict, wrong_family
from tests.test_service_binary import _binary_socket


class TestPartition:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5, 8, 16, 255])
    def test_covers_the_space_contiguously(self, shards):
        partition = PartitionMap(shards)
        assert len(partition) == shards
        ranges = partition.ranges
        assert ranges[0].lo == 0
        assert ranges[-1].hi == MAX_IPV4
        for left, right in zip(ranges, ranges[1:]):
            assert right.lo == left.hi + 1

    @pytest.mark.parametrize("shards", [1, 3, 7, 64])
    def test_ranges_are_slash24_aligned(self, shards):
        for shard_range in PartitionMap(shards).ranges:
            assert shard_range.lo & 0xFF == 0
            assert shard_range.hi & 0xFF == 0xFF

    def test_a_slash24_never_straddles_shards(self):
        partition = PartitionMap(7)
        for shard_range in partition.ranges:
            boundary = shard_range.lo
            # Every address of the /24 containing any boundary lands
            # on the same shard — the dynamic-verdict invariant.
            block = boundary >> 8
            owners = {
                partition.shard_of((block << 8) | offset)
                for offset in (0, 1, 127, 254, 255)
            }
            assert len(owners) == 1

    def test_shard_of_matches_linear_scan(self):
        partition = PartitionMap(5)
        probes = [
            0, 1, 255, 256, MAX_IPV4, MAX_IPV4 - 255,
            *(r.lo for r in partition.ranges),
            *(r.hi for r in partition.ranges),
            *((r.lo + r.hi) // 2 for r in partition.ranges),
        ]
        for ip in probes:
            expected = next(
                i
                for i, r in enumerate(partition.ranges)
                if r.contains(ip)
            )
            assert partition.shard_of(ip) == expected

    def test_balanced_within_one_block(self):
        partition = PartitionMap(3)
        sizes = {r.size() for r in partition.ranges}
        assert max(sizes) - min(sizes) <= 256

    def test_wire_round_trip(self):
        partition = PartitionMap(4)
        wire = partition.to_wire()
        assert wire["shards"] == 4
        rebuilt = [ShardRange.from_wire(pair) for pair in wire["ranges"]]
        assert rebuilt == list(partition.ranges)

    @pytest.mark.parametrize("bad", [0, -1, MAX_SHARDS + 1])
    def test_bad_shard_counts_rejected(self, bad):
        with pytest.raises(ValueError):
            PartitionMap(bad)

    def test_unaligned_range_rejected(self):
        with pytest.raises(ValueError):
            ShardRange(1, 255)
        with pytest.raises(ValueError):
            ShardRange(0, 254)


class TestRestrict:
    def test_union_of_slices_covers_the_index(self, full_index):
        partition = PartitionMap(3)
        slices = [
            full_index.restrict(r.lo, r.hi) for r in partition.ranges
        ]
        sliced_ips = set()
        for piece in slices:
            sliced_ips.update(ip for ip, _ in piece.interval_items())
        assert sliced_ips == {
            ip for ip, _ in full_index.interval_items()
        }

    def test_slice_verdicts_match_full_index(self, full_index):
        partition = PartitionMap(3)
        full_engine = QueryEngine(full_index)
        for shard_range in partition.ranges:
            piece = full_index.restrict(shard_range.lo, shard_range.hi)
            engine = QueryEngine(piece)
            in_range = [
                ip
                for ip, _ in full_index.interval_items()
                if shard_range.contains(ip)
            ]
            for ip in in_range:
                assert (
                    engine.query(ip).to_wire()
                    == full_engine.query(ip).to_wire()
                )

    def test_out_of_range_addresses_are_gone(self, full_index):
        partition = PartitionMap(3)
        first = partition.ranges[0]
        piece = full_index.restrict(first.lo, first.hi)
        outside = [
            ip
            for ip, _ in full_index.interval_items()
            if not first.contains(ip)
        ]
        for ip in outside[:10]:
            assert not list(piece.intervals_of(ip))

    def test_bad_range_rejected(self, full_index):
        with pytest.raises(ValueError):
            full_index.restrict(10, 5)
        with pytest.raises(ValueError):
            full_index.restrict(-1, 10)


def _health(address):
    """Each backend's ``healthy``, shard by shard, as the router's
    ``stats`` rows report it to an operator."""
    with ReputationClient(*address, timeout=10.0) as client:
        shards = client.stats()["shards"]
    return [[row["healthy"] for row in shard["backends"]] for shard in shards]


class TestRouterStatic:
    @pytest.fixture(scope="class")
    def cluster(self, full_index):
        with LocalCluster(full_index, shards=3) as c:
            assert c.router.wait_healthy(10.0)
            # One shard host: every live backend is a worker process.
            assert all(
                isinstance(pid, int) and pid != os.getpid()
                for slot in c.shard_pids()
                for pid in slot
            )
            yield c

    @pytest.fixture(scope="class")
    def client(self, cluster):
        with ReputationClient(*cluster.address) as c:
            yield c

    def test_point_queries_match_single_process(
        self, full_index, listed_ips, client
    ):
        single = QueryEngine(full_index)
        for ip in listed_ips:
            assert client.query(ip) == single.query(ip).to_wire()

    def test_batch_merges_in_request_order(
        self, full_index, listed_ips, client
    ):
        single = QueryEngine(full_index)
        # Interleave shards so the scatter-gather merge is exercised.
        ips = listed_ips[::-1]
        got = client.query_batch([(ip, None) for ip in ips])
        assert [v["ip"] for v in got] == [int_to_ip(ip) for ip in ips]
        for ip, verdict in zip(ips, got):
            assert verdict == single.query(ip).to_wire()

    def test_hello_reports_fleet(self, client):
        hello = client.hello()
        assert hello["service"] == "repro-reputation"
        assert hello["epoch"] == hello["seq"] == 0
        fleet = hello["cluster"]
        assert fleet["shards"] == 3
        assert fleet["shards_up"] == 3
        assert fleet["epoch_min"] == fleet["epoch_max"] == 0

    def test_stats_aggregate_index_totals(self, client, full_index):
        stats = client.stats()
        sizes = full_index.stats()
        for key in ("ips", "intervals", "nated_ips", "dynamic_prefixes"):
            assert stats["index"][key] == sizes[key]
        assert stats["index"]["lists"] == sizes["lists"]
        assert len(stats["shards"]) == 3
        assert all(
            backend["healthy"]
            for shard in stats["shards"]
            for backend in shard["backends"]
        )

    def test_ping_and_bad_requests(self, cluster, client):
        assert client.call({"op": "ping"}) == "pong"
        with pytest.raises(ServiceError, match="unknown op"):
            client.call({"op": "flood"})
        with pytest.raises(ServiceError, match="bad ip"):
            client.call({"op": "query", "ip": [1]})
        with pytest.raises(ServiceError, match="queries"):
            client.call({"op": "batch"})

    def test_router_counters_accumulate(self, cluster, client):
        before = client.stats()["router"]
        client.call({"op": "query", "ip": "1.2.3.4"})  # a point
        client.query("1.2.3.4")  # binary: a batch of one
        client.query_batch([("1.2.3.4", None), ("200.2.3.4", None)])
        after = client.stats()["router"]
        assert after["point"] == before["point"] + 1
        assert after["batch"] == before["batch"] + 2
        assert after["batch_queries"] == before["batch_queries"] + 3

    def test_a_thousand_replies_record_no_backend_event(
        self, listed_ips, client
    ):
        """Every reply says its link is up; only a flip of a backend's
        health is an event, so a healthy fleet's replies add none."""

        def flips():
            events = client.stats()["events"]
            return [e for e in events if e["kind"] == "backend"]

        before = flips()
        for n in range(1000):
            client.query(listed_ips[n % len(listed_ips)])
        assert flips() == before == []

    def test_mismatched_backend_list_rejected(self, full_index):
        with pytest.raises(ValueError, match="backend"):
            Router(PartitionMap(3), [[("127.0.0.1", 1)]])

    def test_unpackable_day_travels_packed_across_shards(
        self, full_index, listed_ips, cluster
    ):
        # A day outside i32 fits no packed record, so the front door
        # sends its address's default-day record, packed like every
        # other, and answers the day asked from that shard's record.
        # Whatever the mix, the reply is the single server's.
        queries = [
            ("1.2.3.4", 2**40), ("1.2.3.4", None),
            ("200.2.3.4", 2**40), ("200.2.3.4", 7),
            ("100.2.3.4", None),
        ] + [(ip, None) for ip in listed_ips[:8]]
        assert {
            cluster.partition.shard_of(V4.parse(ip))
            for ip, _ in queries[:5]
        } == {0, 1, 2}
        with ReputationServer(QueryEngine(full_index)) as direct:
            direct.start()
            with ReputationClient(*direct.address, codec="json") as c:
                reference = c.query_batch(queries)
        assert reference[0]["day"] == 2**40
        for codec in ("json", "binary"):
            with ReputationClient(
                *cluster.address, codec=codec
            ) as client:
                assert client.codec == codec
                assert client.query_batch(queries) == reference
                assert client.query_batch_pipelined(
                    [queries, queries[2:], queries[4:]], window=2
                ) == [reference, reference[2:], reference[4:]]

    def test_a_call_gets_the_single_servers_answer(
        self, full_index, listed_ips, cluster
    ):
        """What a ``call()`` returns cannot tell a router from a single
        server, on either codec. A JSON ``batch`` op on a binary
        connection used to get a packed reply frame from the router,
        which the client refused (``reply frame mismatch``) and closed
        on."""
        listed = [int_to_ip(ip) for ip in listed_ips[:6]]
        requests = [
            {"op": "batch", "queries": [{"ip": ip} for ip in listed]},
            {"op": "batch", "queries": [
                {"ip": "1.2.3.4", "day": 2**40}, {"ip": "200.2.3.4", "day": 7}
            ]},
            {"op": "batch", "queries": []},
            {"op": "query", "ip": listed[0]},
            {"op": "query", "ip": "1.2.3.4", "day": 2**40},
        ]
        with ReputationServer(QueryEngine(full_index)) as direct:
            direct.start()
            for codec in ("json", "binary"):
                with ReputationClient(
                    *direct.address, codec=codec
                ) as single, ReputationClient(
                    *cluster.address, codec=codec
                ) as routed:
                    for request in requests:
                        assert routed.call(request) == single.call(
                            request
                        ), (codec, request)

    def test_empty_batch_returns_empty(self, cluster):
        # Regression: zero shard fan-outs must still produce a reply
        # (the merge counter starts at zero, so nothing else would
        # ever complete the slot) — on both the packed-binary path
        # (an FT_BATCH_REQ with count 0) and the JSON one.
        for codec in ("binary", "json"):
            with ReputationClient(
                *cluster.address, codec=codec
            ) as client:
                assert client.query_batch([]) == []


class TestRouterStatsPayload:
    """The merged ``stats`` payload's shape and fleet summary, captured
    on the commit where the router still ran a ``hello`` gather after
    the ``stats`` one to learn each shard's ``(epoch, seq)``."""

    def test_payload_is_pinned(
        self, tmp_path, base_index, start_day, replay_batches, listed_ips
    ):
        log_path = tmp_path / "updates.gz"
        writer = UpdateLogWriter(log_path, start_day=start_day)
        applied = replay_batches[:3]
        for batch in applied:
            writer.append(batch)
        seq = applied[-1].seq
        epochs = EpochIndex(base_index, day=start_day)
        for batch in applied:
            epochs.apply(batch)
        sizes = epochs.current.index.stats()
        with LocalCluster(
            base_index,
            shards=3,
            follow=log_path,
            start_day=start_day,
        ) as cluster:
            assert cluster.router.wait_healthy(10.0)
            assert wait_for_seq(cluster, seq, timeout=30.0)
            partition = cluster.partition.to_wire()
            with ReputationClient(*cluster.address) as client:
                client.query(listed_ips[0])
                client.query_batch([(ip, None) for ip in listed_ips[:10]])
                stats = client.stats()
                cluster.kill_primary(2)
                degraded = client.stats()

        assert list(stats) == [
            "cluster", "router", "partition", "index", "shards", "loop",
            "events",
        ]
        assert stats["loop"] == {
            "callback_errors": 0, "callback_error": None, "accept_errors": 0,
            "closes": {},
        }
        assert stats["events"] == []  # no backend's health has flipped
        assert list(stats["cluster"].items()) == [
            ("shards", 3),
            ("backends", 3),
            ("healthy_backends", 3),
            ("shards_up", 3),
            ("epoch_min", seq),
            ("epoch_max", seq),
            ("seq_min", seq),
            ("seq_max", seq),
        ]
        # The binary query() was a batch of one.
        assert list(stats["router"].items()) == [
            ("point", 0),
            ("batch", 2),
            ("batch_queries", 11),
            ("degraded", 0),
            ("failovers", 0),
            ("partition_epoch", 0),
        ]
        assert stats["partition"] == partition
        assert list(stats["index"]) == [
            "ips", "intervals", "nated_ips", "dynamic_prefixes", "ases",
            "lists",
        ]
        assert stats["index"] == sizes
        assert sum(row["hits"] for row in stats["shards"]) == 11
        for shard_id, row in enumerate(stats["shards"]):
            assert list(row) == [
                "shard", "range", "hits", "backends", "stats"
            ]
            assert row["shard"] == shard_id
            assert row["range"] == partition["ranges"][shard_id]
            assert [list(b) for b in row["backends"]] == [
                ["address", "healthy"]
            ]
            assert row["backends"][0]["healthy"] is True
            assert row["stats"]["epoch"]["epoch"] == seq
            assert row["stats"]["epoch"]["seq"] == seq

        # A dead shard: counted down, its row kept with no payload, the
        # maxima taken over the shards that answered and the minima
        # counting it at its slot's mark.
        assert degraded["cluster"]["shards_up"] == 2
        assert degraded["cluster"]["healthy_backends"] == 2
        assert degraded["cluster"]["epoch_min"] == seq
        assert degraded["cluster"]["seq_min"] == seq
        assert degraded["cluster"]["seq_max"] == seq
        assert degraded["shards"][2]["stats"] is None
        assert degraded["shards"][0]["stats"]["epoch"]["seq"] == seq
        # The one flip is the dead primary's, with the cause its link
        # went down with (the row's is the link's latest).
        (down,) = degraded["events"]
        row = degraded["shards"][2]["backends"][0]
        assert (down["kind"], down["healthy"]) == ("backend", False)
        assert down["cause"] and "cause" in row
        assert down["address"] == ":".join(map(str, row["address"]))

    def test_index_block_is_the_full_index(self, monkeypatch):
        """On a corpus whose ASes span shards (the serving benchmark's
        at divisor 400: 680 summed over three shards, 632 distinct),
        a router's ``index`` block is the full index's ``stats()``.
        Summing each shard's distinct ASes counted an AS once per shard
        that holds it."""
        monkeypatch.syspath_prepend(str(SERVING))
        import synth

        index = ReputationIndex(
            **synth.index_kwargs(synth.generate(0, divisor=400))
        )
        with LocalCluster(index, shards=3) as cluster:
            with ReputationClient(*cluster.address) as client:
                sizes = client.stats()["index"]
        assert sizes == index.stats()


class TestProcessMode:
    """The one shard host — what ``repro cluster`` runs: a forked
    worker per backend, watched only through its own wire protocol."""

    def test_follow_wait_kill_restart(
        self, tmp_path, base_index, start_day, replay_batches, listed_ips
    ):
        log_path = tmp_path / "updates.gz"
        writer = UpdateLogWriter(log_path, start_day=start_day)
        writer.append(replay_batches[0])
        writer.append(replay_batches[1])
        reached = replay_batches[1].seq
        epochs = EpochIndex(base_index, day=start_day)
        for batch in replay_batches[:3]:
            epochs.apply(batch)
        single = QueryEngine(epochs)
        day = replay_batches[2].day

        def matches_single(client):
            got = client.query_batch([(ip, day) for ip in listed_ips])
            return got == [
                single.query(ip, day).to_wire() for ip in listed_ips
            ]

        with LocalCluster(
            base_index,
            shards=2,
            follow=log_path,
            start_day=start_day,
        ) as cluster:
            assert cluster.router.wait_healthy(10.0)
            pids = [pid for slot in cluster.shard_pids() for pid in slot]
            assert len(set(pids)) == 2 and None not in pids
            assert os.getpid() not in pids

            assert wait_for_seq(cluster, reached, timeout=30.0)
            assert not wait_for_seq(cluster, reached + 1, timeout=0.3)
            writer.append(replay_batches[2])
            assert wait_for_seq(cluster, reached + 1, timeout=30.0)
            with ReputationClient(*cluster.address) as client:
                assert matches_single(client)

                # Kill/restart: same port, a new worker, which replays
                # the log from the pristine base up to the same seq.
                victim = cluster.partition.shard_of(listed_ips[0])
                port = cluster.backend(victim).address[1]
                killed = cluster.backend(victim)
                cluster.kill_primary(victim)
                assert killed.exitcode == -signal.SIGKILL
                assert cluster.shard_pids()[victim] == [None]
                assert not wait_for_seq(cluster, reached + 1, timeout=0.3)
                assert cluster.restart_primary(victim)[1] == port
                assert cluster.shard_pids()[victim][0] not in (None, *pids)
                assert wait_for_seq(cluster, reached + 1, timeout=30.0)
                assert cluster.router.wait_healthy(10.0)
                assert matches_single(client)


class TestShardHost:
    """:class:`ShardProcess`, the only host: a start failure carries
    the worker's reason, nothing is orphaned, nothing leaks."""

    @staticmethod
    def _workers():
        return [
            child
            for child in multiprocessing.active_children()
            if child.name.startswith("repro-shard-")
        ]

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"
    )
    def test_occupied_port_reports_the_workers_reason(self, full_index):
        with socket.socket() as squatter:
            squatter.bind(("127.0.0.1", 0))
            squatter.listen(1)
            port = squatter.getsockname()[1]
            shard = ShardProcess(
                full_index, 7, ShardRange(0, MAX_IPV4), port=port
            )
            fds = set(os.listdir("/proc/self/fd"))
            with pytest.raises(RuntimeError) as raised:
                shard.start()
            assert set(os.listdir("/proc/self/fd")) == fds
        message = str(raised.value)
        assert message.startswith("shard 7 failed to start: OSError: ")
        assert "Address already in use" in message
        assert shard.pid is None and shard.exitcode == 1
        assert not self._workers()
        with pytest.raises(RuntimeError, match="not started"):
            shard.address
        gc.collect()

    def test_stop_drains_and_kill_crashes(self, full_index):
        shard = ShardProcess(full_index, 0, ShardRange(0, MAX_IPV4))
        shard.start()
        assert [child.pid for child in self._workers()] == [shard.pid]
        shard.stop()
        assert (shard.pid, shard.exitcode) == (None, 0)
        shard.stop()  # idempotent
        shard.start()
        shard.kill()
        assert (shard.pid, shard.exitcode) == (None, -signal.SIGKILL)
        assert not self._workers()

    def test_stop_kills_a_worker_that_will_not_drain(
        self, full_index, monkeypatch
    ):
        def deaf_worker(pipe, base, shard_range, settings):
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            with pipe:
                pipe.send(("ok", ("127.0.0.1", 1)))
            while True:
                time.sleep(3600.0)

        monkeypatch.setattr(shard_module, "_shard_process_main", deaf_worker)
        monkeypatch.setattr(shard_module, "_DRAIN_S", 0.2)
        shard = ShardProcess(full_index, 0, ShardRange(0, MAX_IPV4))
        shard.start()
        shard.stop()
        assert (shard.pid, shard.exitcode) == (None, -signal.SIGKILL)
        assert not self._workers()

    @pytest.mark.parametrize("mode", ["thread", ""])
    def test_thread_mode_is_gone(self, full_index, mode):
        with pytest.raises(ValueError, match="removed"):
            LocalCluster(full_index, mode=mode)
        # The frozen serving benchmark's spelling still constructs.
        LocalCluster(full_index, shards=1, mode="process")


class TestFailover:
    def test_replica_answers_when_primary_dies(self, full_index, listed_ips):
        with LocalCluster(full_index, shards=2, replicas=1) as cluster:
            assert cluster.router.wait_healthy(10.0)
            single = QueryEngine(full_index)
            with ReputationClient(*cluster.address) as client:
                cluster.kill_primary(0)
                for ip in listed_ips:
                    assert (
                        client.query(ip) == single.query(ip).to_wire()
                    )
                stats = client.stats()
                assert stats["router"]["failovers"] >= 1
                shard0 = stats["shards"][0]["backends"]
                assert not shard0[0]["healthy"]
                assert shard0[1]["healthy"]
                assert stats["cluster"]["shards_up"] == 2

    def test_failovers_never_step_back_across_a_split(
        self, full_index, listed_ips
    ):
        """``router.failovers`` is the router's count, not a sum over
        slots: a split rebuilds every slot, and the sum fell back with
        them."""
        with LocalCluster(full_index, shards=2, replicas=1) as cluster:
            assert cluster.router.wait_healthy(10.0)
            with ReputationClient(*cluster.address) as client:
                cluster.kill_primary(0)
                for ip in listed_ips:
                    client.query(ip)
                seen = [client.stats()["router"]["failovers"]]
                cluster.split_shard(1)
                seen.append(client.stats()["router"]["failovers"])
                for ip in listed_ips:
                    client.query(ip)
                seen.append(client.stats()["router"]["failovers"])
        assert seen[0] >= 1
        assert seen == sorted(seen), seen

    def test_restarted_primary_rejoins(self, full_index, listed_ips):
        with LocalCluster(full_index, shards=2, replicas=1) as cluster:
            assert cluster.router.wait_healthy(10.0)
            with ReputationClient(*cluster.address) as client:
                cluster.kill_primary(1)
                client.query("200.2.3.4")  # lands on shard 1's replica
                cluster.restart_primary(1)
                assert cluster.router.wait_healthy(10.0)
                stats = client.stats()
                assert all(
                    backend["healthy"]
                    for shard in stats["shards"]
                    for backend in shard["backends"]
                )


    def test_process_mode_primary_stops_under_pipelined_load(
        self, full_index, listed_ips
    ):
        # The primary is SIGKILLed while a client-side pipelined
        # stream is in flight (the ``kill-under-load-*`` faults in
        # tests/faults.py check the same crash request id by request id).
        beat = 0.2
        with LocalCluster(
            full_index,
            shards=2,
            replicas=1,
            heartbeat_interval=beat,
        ) as cluster:
            router = cluster.router
            assert router.wait_healthy(10.0)
            single = QueryEngine(full_index)
            batch = [(ip, None) for ip in listed_ips]
            expected = [single.query(ip).to_wire() for ip in listed_ips]
            batches = [batch] * 400
            stopped_at = []

            def stop_primary_mid_stream():
                deadline = time.monotonic() + 10.0
                while (
                    router.load_snapshot()["shards"][0]["hits"] < 2000
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.001)
                cluster.kill_primary(0)
                stopped_at.append(time.monotonic())

            stopper = threading.Thread(target=stop_primary_mid_stream)
            with ReputationClient(
                *cluster.address, codec="binary", timeout=30.0
            ) as client:
                stopper.start()
                results = client.query_batch_pipelined(batches, window=8)
                stopper.join(timeout=15.0)
                assert not stopper.is_alive() and stopped_at
                # Every batch answered exactly once, none degraded.
                assert len(results) == len(batches)
                assert all(result == expected for result in results)
                # The stop really landed inside the stream.
                hits = router.load_snapshot()["shards"][0]["hits"]
                assert hits > 2000

                # A beat finds the dead primary through its own link.
                while time.monotonic() < stopped_at[0] + 2 * beat:
                    if not _health(router.address)[0][0]:
                        break
                    time.sleep(0.01)
                assert _health(router.address)[0] == [False, True]
                assert client.query_batch(batch) == expected
                assert client.stats()["router"]["failovers"] >= 1

                cluster.restart_primary(0)
                assert router.wait_healthy(10.0)
                assert _health(router.address)[0] == [True, True]
                assert client.query_batch(batch) == expected


class TestDegraded:
    def test_dead_shard_degrades_not_fails(self, full_index, listed_ips):
        with LocalCluster(full_index, shards=3) as cluster:
            assert cluster.router.wait_healthy(10.0)
            partition = cluster.partition
            dead = partition.shard_of(listed_ips[0])
            single = QueryEngine(full_index)
            with ReputationClient(*cluster.address) as client:
                cluster.kill_primary(dead)

                # Point query on the dead shard: explicit error reply.
                with pytest.raises(
                    ServiceError, match=SHARD_UNAVAILABLE
                ):
                    client.query(listed_ips[0])

                # Batch: only the dead shard's positions degrade.
                got = client.query_batch(
                    [(ip, None) for ip in listed_ips]
                )
                for ip, verdict in zip(listed_ips, got):
                    if partition.shard_of(ip) == dead:
                        assert verdict == {
                            "ip": int_to_ip(ip),
                            "day": None,
                            "error": SHARD_UNAVAILABLE,
                            "shard": dead,
                        }
                    else:
                        assert (
                            verdict == single.query(ip).to_wire()
                        )
                assert client.stats()["router"]["degraded"] >= 1

                # Live shards' hello still answers, reporting the hole.
                hello = client.hello()
                assert hello["cluster"]["shards_up"] == 2

                # Restart: full service resumes.
                cluster.restart_primary(dead)
                assert cluster.router.wait_healthy(10.0)
                assert (
                    client.query(listed_ips[0])
                    == single.query(listed_ips[0]).to_wire()
                )


def _edge_index():
    """A v4 index listing the first and last address of every shard
    range of ``PartitionMap(1)`` … ``PartitionMap(4)``, and addresses
    beside them: a pair routed to a neighbouring shard gets another
    answer, since no other shard holds its listing."""
    rng = random.Random(31)
    edges = {
        address
        for shards in range(1, 5)
        for shard_range in PartitionMap(shards).ranges
        for address in (shard_range.lo, shard_range.hi)
    }
    listed = sorted(edges | {rng.randrange(MAX_IPV4 + 1) for _ in range(40)})
    return ReputationIndex(
        windows=[(0, 40)],
        intervals={
            ip: [(rng.randrange(0, 20), rng.randrange(20, 40),
                  f"list-{rng.randrange(4)}")]
            for ip in listed
        },
        nated=set(listed[::4]),
        users={ip: 2 + position for position, ip in enumerate(listed[::4])},
        dynamic_prefixes=[V4.atom_prefix(ip) for ip in listed[1::5]],
        categories={"list-0": "spam", "list-1": "scanner"},
        asn_by_ip={
            ip: 64500 + position % 7 for position, ip in enumerate(listed)
        },
    )


_EDGE_INDEX = _edge_index()
_EDGE_IPS = sorted(ip for ip, _ in _EDGE_INDEX.interval_items())
_DAYS = st.one_of(st.none(), st.integers(0, 45))


def _dead_address():
    """A loopback port nobody listens on."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        return listener.getsockname()[:2]


class TestScatterGatherProperty:
    """A routed batch is the single-process engine's answer, record for
    record and in request order, for ``PartitionMap(n)``, n = 1…4;
    with one shard's backend down, ``SHARD_UNAVAILABLE`` stands at
    exactly that shard's positions and nowhere else."""

    @pytest.fixture(scope="class")
    def fleets(self):
        dead = _dead_address()
        servers, routers, clients = [], {}, {}
        try:
            for shards in range(1, 5):
                partition = PartitionMap(shards)
                addresses = []
                for shard_range in partition.ranges:
                    server = ReputationServer(QueryEngine(
                        _EDGE_INDEX.restrict(shard_range.lo, shard_range.hi)
                    ))
                    server.start()
                    servers.append(server)
                    addresses.append(server.address)
                for down in (None, *range(shards)):
                    router = Router(partition, [
                        [dead if shard == down else address]
                        for shard, address in enumerate(addresses)
                    ])
                    router.start()
                    routers[shards, down] = router
                    clients[shards, down] = ReputationClient(
                        *router.address, timeout=10.0
                    )
            yield clients
        finally:
            for client in clients.values():
                client.close()
            for router in routers.values():
                router.shutdown()
            for server in servers:
                server.shutdown()

    @staticmethod
    def _check(clients, shards, down, queries):
        single = QueryEngine(_EDGE_INDEX)
        partition = PartitionMap(shards)
        expected = [
            {"ip": int_to_ip(ip), "day": day, "error": SHARD_UNAVAILABLE,
             "shard": down}
            if partition.shard_of(ip) == down
            else single.query(ip, day).to_wire()
            for ip, day in queries
        ]
        assert clients[shards, down].query_batch(queries) == expected

    @settings(max_examples=60, deadline=None)
    @given(shards=st.integers(1, 4), data=st.data())
    def test_random_keys_with_duplicates(self, fleets, shards, data):
        keys = st.one_of(
            st.sampled_from(_EDGE_IPS), st.integers(0, MAX_IPV4)
        )
        queries = data.draw(st.lists(st.tuples(keys, _DAYS), max_size=48))
        queries += data.draw(st.permutations(queries))[: len(queries) // 2]
        down = data.draw(st.sampled_from([None, *range(shards)]))
        self._check(fleets, shards, down, queries)

    @settings(max_examples=30, deadline=None)
    @given(shards=st.integers(1, 4), data=st.data())
    def test_all_keys_in_one_shard(self, fleets, shards, data):
        shard_range = data.draw(st.sampled_from(PartitionMap(shards).ranges))
        inside = [ip for ip in _EDGE_IPS if shard_range.contains(ip)]
        keys = st.one_of(
            st.sampled_from(inside),
            st.integers(shard_range.lo, shard_range.hi),
        )
        queries = data.draw(
            st.lists(st.tuples(keys, _DAYS), min_size=1, max_size=32)
        )
        down = data.draw(st.sampled_from([None, *range(shards)]))
        self._check(fleets, shards, down, queries)

    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_the_ends_of_every_shard_range(self, fleets, shards):
        ends = [
            (address, None)
            for shard_range in PartitionMap(shards).ranges
            for address in (shard_range.lo, shard_range.hi)
        ]
        for down in (None, *range(shards)):
            self._check(fleets, shards, down, ends)
            self._check(fleets, shards, down, ends[::-1])

    @pytest.mark.parametrize("shards", [1, 4])
    def test_the_empty_batch(self, fleets, shards):
        for down in (None, *range(shards)):
            self._check(fleets, shards, down, [])


class TestWritePass:
    """The router writes once per link per loop pass."""

    WINDOW = 16

    def test_a_window_reaches_each_shard_in_one_write(
        self, full_index, monkeypatch
    ):
        """A pipelined window of 16 batches over three shards: each
        backend link takes it in at most two writes (sixteen while each
        sub was flushed on its own), and each shard answers it so."""
        writes = Counter()
        flush = Link.flush

        def counted(link):
            queued = len(link.outbuf)
            flush(link)
            if len(link.outbuf) < queued:
                writes[link] += 1

        monkeypatch.setattr(Link, "flush", counted)
        partition = PartitionMap(3)
        codec = CODECS[V4]
        rng = random.Random(16)
        batches = [
            [(rng.randrange(MAX_IPV4 + 1), None) for _ in range(128)]
            for _ in range(self.WINDOW + 1)
        ]
        single = QueryEngine(full_index)
        shards = [
            ReputationServer(QueryEngine(full_index.restrict(r.lo, r.hi)))
            for r in partition.ranges
        ]
        for shard in shards:
            shard.start()
        router = Router(partition, [[shard.address] for shard in shards])
        router.start()
        try:
            with _binary_socket(router.address) as (sock, frames):
                # Warm: every link connected and past its hello.
                sock.sendall(codec.encode_batch_request(batches[0], 1))
                assert frames.read(binary=True)[1] == 1
                writes.clear()
                sock.sendall(b"".join(
                    codec.encode_batch_request(batch, rid)
                    for rid, batch in enumerate(batches[1:], 2)
                ))
                for rid, batch in enumerate(batches[1:], 2):
                    ftype, got, payload = frames.read(binary=True)
                    assert (ftype, got) == (codec.ft_reply, rid)
                    assert codec.decode_batch_reply(payload) == [
                        single.query(ip).to_wire() for ip, _ in batch
                    ]
            upstream = [n for link, n in writes.items()
                        if isinstance(link, Backend)]
            answers = [n for link, n in writes.items()
                       if getattr(link, "server", None) in shards]
            downstream = [n for link, n in writes.items()
                          if getattr(link, "server", None) is router]
            # EXPERIMENTS.md quotes this line (pytest -s shows it).
            print(f"writes per {self.WINDOW}-batch window: router to "
                  f"each shard {upstream}, each shard back {answers}, "
                  f"router to client {downstream}")
            assert len(upstream) == len(answers) == 3
            assert max(upstream) <= 2, upstream
            assert max(answers) <= 2, answers
        finally:
            router.shutdown()
            for shard in shards:
                shard.shutdown()

    def test_subs_from_a_timer_or_a_callback_leave_in_their_pass(self):
        """With no timer armed and nothing else in flight, a heartbeat
        beat's probe (a timer) and a ``hello`` asked through
        ``run_sync`` each reach a quiet backend: only their own pass
        could write them."""
        asked = queue.Queue()  # what the peer was asked, as it arrives
        peer = FakePeer(lambda request: asked.put(request) or polite(request))
        router = Router(
            PartitionMap(1), [[tuple(peer.address)]], heartbeat_interval=60.0
        )
        reactor = router.reactor
        # The bare loop: no deadline sweep, no idle sweep, no beat.
        loop = threading.Thread(target=reactor.run, daemon=True)
        loop.start()
        try:
            (backend,) = router.shard_slot(0).backends

            def hello():
                router.ask_each([backend], {"op": "hello"}, lambda _: None)

            reactor.run_sync(hello)  # connect and negotiate: I/O carries it
            negotiation = {"op": "hello", "accept_codecs": ["binary"]}
            assert asked.get(timeout=5.0) == negotiation
            assert asked.get(timeout=5.0) == {"op": "hello"}
            assert _wait_quiet(backend)
            reactor.run_sync(lambda: reactor.call_later(0.0, router._beat))
            assert asked.get(timeout=5.0) == {"op": "hello"}
            assert _wait_quiet(backend)
            reactor.run_sync(hello)
            assert asked.get(timeout=5.0) == {"op": "hello"}
        finally:
            router.shutdown()
            loop.join(timeout=5.0)
            reactor.close()
            peer.close()


def _wait_quiet(backend, timeout=5.0):
    """The backend's answer came back: nothing is in flight on it (read
    off the loop: a bare read, which must not wake it)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not (backend.pending or backend.waiting):
            return True
        time.sleep(0.005)
    return False


def _undecodable_records(request):
    """Answers every packed batch with records that slice cleanly but
    carry an action code no reader knows: only decoding them finds the
    fault."""
    if isinstance(request, dict):
        return polite(request)
    record = bytearray(CODECS[V4].pack_verdict(verdict()))
    record[CODECS[V4]._action_at] = 0xEE
    return len(request).to_bytes(4, "big") + bytes(record) * len(request)


def test_a_shard_record_that_does_not_decode_is_a_declared_error():
    """A JSON op's reply is decoded from the shards' records: one that
    does not decode answers the request with an in-band error — never
    a hang — and the connection stays usable."""
    peer = FakePeer(_undecodable_records)
    router = Router(PartitionMap(1), [[tuple(peer.address)]])
    router.start()
    try:
        with ReputationClient(*router.address, codec="json") as client:
            for call in (
                lambda: client.query_batch([(1, 5), (2, None)]),
                lambda: client.query(1, 5),
            ):
                with pytest.raises(
                    ServiceError, match="internal error: undecodable record"
                ):
                    call()
            assert client.ping() is True
    finally:
        router.shutdown()
        peer.close()


@pytest.mark.filterwarnings("error::ResourceWarning")
# A ResourceWarning raised in a finalizer is "unraisable": without
# this it would be reported, not fail the test.
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
class TestBackendMisbehavior:
    @pytest.fixture()
    def real_backend(self, full_index):
        with ReputationServer(QueryEngine(full_index)) as server:
            server.start()
            yield server

    def _router(self, fake, real_backend, heartbeat_interval):
        router = Router(
            PartitionMap(1),
            [[tuple(fake.address), real_backend.address]],
            backend_timeout=1.0,
            heartbeat_interval=heartbeat_interval,
        )
        router.start()
        return router

    def test_backend_refusing_binary_is_declared_unhealthy(
        self, full_index, listed_ips, real_backend
    ):
        # One upstream codec: a backend that answers the hello without
        # granting binary is not spoken to in JSON instead. The link
        # closes with that cause, the request that met it fails over
        # at once (not after the backend timeout), no beat re-marks
        # the backend healthy while it keeps refusing, and ``stats``
        # says why.
        beat = 0.2
        refusal = "garbled frame: backend refused the binary codec"
        fake = FakePeer(json_only)
        router = self._router(fake, real_backend, heartbeat_interval=beat)
        alone = Router(
            PartitionMap(1), [[tuple(fake.address)]], backend_timeout=1.0
        )
        alone.start()
        try:
            single = QueryEngine(full_index)
            ip = listed_ips[0]
            with ReputationClient(
                *router.address, timeout=10.0
            ) as client:
                started = time.monotonic()
                assert client.query(ip) == single.query(ip).to_wire()
                assert time.monotonic() - started < 0.8  # timeout: 1.0
                watched = time.monotonic() + 4 * beat
                while time.monotonic() < watched:
                    assert _health(router.address) == [[False, True]]
                    time.sleep(beat / 4)
                stats = client.stats()
            assert stats["router"]["failovers"] >= 1
            refusing, replica = stats["shards"][0]["backends"]
            assert refusing == {
                "address": list(fake.address),
                "healthy": False,
                "cause": refusal,
            }
            assert list(replica) == ["address", "healthy"]

            # With no replica to ask, the answer is the declared one.
            with ReputationClient(*alone.address, timeout=10.0) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.query(ip)
                assert str(excinfo.value) == (
                    f"{SHARD_UNAVAILABLE}: shard 0 has no live backend"
                )
                (row,) = client.stats()["shards"][0]["backends"]
                assert row["cause"] == refusal
                (degraded,) = client.query_batch([(ip, 3)])
                assert degraded == {
                    "ip": int_to_ip(ip),
                    "day": 3,
                    "error": SHARD_UNAVAILABLE,
                    "shard": 0,
                }
        finally:
            router.shutdown()
            alone.shutdown()
            fake.close()

    def test_silent_backend_goes_unhealthy_and_stays_unhealthy(
        self, full_index, listed_ips, real_backend
    ):
        # The fake answers a ping on any *fresh* connection but never
        # the router's pipelined link (it swallows the codec hello): the
        # first query's sub times out on the loop's deadline sweep (the
        # loop itself stays live) and fails over to the replica.
        # Health judged over throwaway probe connections re-marked it
        # healthy every beat, so every query paid the backend timeout
        # before failing over; judged by what the real link
        # experienced, only the first request may.
        beat, timeout = 0.2, 1.0
        fake = FakePeer(silent)
        router = self._router(fake, real_backend, heartbeat_interval=beat)
        replacement = None
        try:
            single = QueryEngine(full_index)
            with ReputationClient(
                *router.address, timeout=10.0
            ) as client:
                took = []
                for ip in listed_ips[:6]:
                    started = time.monotonic()
                    assert client.query(ip) == single.query(ip).to_wire()
                    took.append(time.monotonic() - started)
                assert took[0] < 8.0 and all(s < 0.2 for s in took[1:]), took

                # ...and it stays unhealthy, beat after beat, while
                # the fake keeps accepting and answering fresh pings.
                watched = time.monotonic() + 4 * beat
                while time.monotonic() < watched:
                    assert _health(router.address) == [[False, True]]
                    time.sleep(beat / 4)
                started = time.monotonic()
                assert client.query(listed_ips[0]) == (
                    single.query(listed_ips[0]).to_wire()
                )
                assert time.monotonic() - started < 0.2

                # A real shard on the same port rejoins by itself: two
                # beats after the link still stuck on the fake has hit
                # its deadline (timeout + one sweep period).
                fake.close()
                replacement = ReputationServer(
                    QueryEngine(full_index), port=fake.address[1]
                )
                replacement.start()
                rejoin_by = (
                    time.monotonic() + timeout + timeout / 4 + 2 * beat
                )
                while (
                    _health(router.address) != [[True, True]]
                    and time.monotonic() < rejoin_by
                ):
                    time.sleep(0.01)
                assert _health(router.address) == [[True, True]]
        finally:
            router.shutdown()
            fake.close()
            if replacement is not None:
                replacement.shutdown()
            gc.collect()  # a leaked link socket must fail *this* test


    def test_a_backend_deadline_fires_through_a_drain(
        self, full_index, listed_ips, real_backend
    ):
        # The loop's one sweep runs on while the router drains: a query
        # stuck on a silent primary when shutdown begins fails over to
        # the replica at its deadline, inside the drain's 1 s grace,
        # instead of being cut off unanswered.
        fake = FakePeer(silent)
        router = Router(
            PartitionMap(1), [[tuple(fake.address), real_backend.address]],
            backend_timeout=0.4, heartbeat_interval=30.0,
        )
        router.start()
        drain = threading.Timer(0.2, router.request_shutdown)
        try:
            with ReputationClient(*router.address, codec="json") as client:
                drain.start()
                assert client.query(listed_ips[0]) == (
                    QueryEngine(full_index).query(listed_ips[0]).to_wire()
                )
        finally:
            drain.join()
            router.shutdown()
            fake.close()


class TestUpstreamKeepalive:
    def test_beats_keep_an_idle_upstream_link_warm(
        self, full_index, listed_ips
    ):
        # A shard's idle sweep used to close the router's silent
        # upstream link, so the first request after a quiet spell paid
        # connect + hello behind an idle-EOF reconnect. The beats now
        # travel down that very link and count as activity on it.
        idle = 0.4
        single = QueryEngine(full_index)
        ip = listed_ips[0]
        with ReputationServer(
            QueryEngine(full_index), connection_timeout=idle
        ) as shard:
            shard.start()
            router = Router(
                PartitionMap(1),
                [[shard.address]],
                heartbeat_interval=idle / 4,
            )
            router.start()
            try:
                with ReputationClient(
                    *router.address, timeout=10.0
                ) as client:
                    assert client.query(ip) == single.query(ip).to_wire()
                    # The router's upstream link, seen from the shard.
                    (upstream,) = shard._conns.values()
                    time.sleep(4 * idle)
                    assert list(shard._conns.values()) == [
                        upstream
                    ]
                    assert upstream.sock is not None
                    assert client.query(ip) == single.query(ip).to_wire()
                    assert list(shard._conns.values()) == [
                        upstream
                    ]
                    assert client.stats()["router"]["failovers"] == 0
            finally:
                router.shutdown()


def _one_listing_index(family):
    """The smallest index of ``family`` with something to say."""
    return ReputationIndex(
        windows=[(0, 30)],
        intervals={family.max_int - 5: [(0, 30, "pin-list")]},
        nated=set(),
        users={},
        dynamic_prefixes=[],
        categories={},
        asn_by_ip={},
        family=family,
    )


@pytest.mark.parametrize("family", [V4, V6], ids=["ipv4", "ipv6"])
class TestUpstreamFamilyGuard:
    """A batch-reply frame of the wrong address family is a garbled
    reply: the router fails over or degrades, and never decodes the
    records with the asker's layout."""

    def _queries(self, family):
        return [(family.max_int - 5, 10), (7, None), (family.max_int, 3)]

    def test_wrong_family_reply_fails_over_to_replica(self, family):
        index = _one_listing_index(family)
        fake = FakePeer(wrong_family(family))
        with ReputationServer(QueryEngine(index)) as real:
            real.start()
            router = Router(
                PartitionMap(1, family=family),
                [[tuple(fake.address), real.address]],
                backend_timeout=2.0,
                heartbeat_interval=30.0,
            )
            router.start()
            try:
                single = QueryEngine(index)
                queries = self._queries(family)
                with ReputationClient(
                    *router.address, timeout=10.0, family=family
                ) as client:
                    assert client.codec == "binary"
                    assert client.query_batch(queries) == [
                        single.query(ip, day).to_wire()
                        for ip, day in queries
                    ]
                    assert client.stats()["router"]["failovers"] >= 1
            finally:
                router.shutdown()
                fake.close()

    def test_wrong_family_reply_without_replica_degrades(self, family):
        fake = FakePeer(wrong_family(family))
        router = Router(
            PartitionMap(1, family=family),
            [[tuple(fake.address)]],
            backend_timeout=2.0,
            heartbeat_interval=30.0,
        )
        router.start()
        try:
            queries = self._queries(family)
            with ReputationClient(
                *router.address, timeout=10.0, family=family
            ) as client:
                assert client.query_batch(queries) == [
                    {
                        "ip": family.format(ip),
                        "day": day,
                        "error": SHARD_UNAVAILABLE,
                        "shard": 0,
                    }
                    for ip, day in queries
                ]
        finally:
            router.shutdown()
            fake.close()


@pytest.mark.parametrize("family", [V4, V6], ids=["ipv4", "ipv6"])
class TestDownstreamFamilyGuard:
    """A cluster is one family on one port: a packed batch frame of
    the other family is refused in-band, and costs the peer nothing
    else — the same connection then answers its own family."""

    def test_wrong_family_frame_is_refused_in_band(
        self, family
    ):
        index = _one_listing_index(family)
        served, other = CODECS[family], CODECS[V6 if family is V4 else V4]
        queries = [(family.max_int - 5, 10), (7, None)]
        single = QueryEngine(index)
        with LocalCluster(index, shards=2) as cluster:
            assert cluster.router.wait_healthy(10.0)
            with _binary_socket(cluster.address) as (s, frames):
                s.sendall(other.encode_batch_request([(1, None), (2, 5)], 7))
                ftype, rid, payload = frames.read(binary=True)
                assert (ftype, rid) == (FT_MSG, 7)
                assert decode_msg_payload(payload) == {
                    "ok": False,
                    "error": (
                        f"{other.family.name} batch frame cannot be "
                        f"answered by this {family.name}-only cluster"
                    ),
                }
                s.sendall(served.encode_batch_request(queries, 8))
                ftype, rid, payload = frames.read(binary=True)
                assert (ftype, rid) == (served.ft_reply, 8)
                assert served.decode_batch_reply(payload) == [
                    single.query(ip, day).to_wire() for ip, day in queries
                ]


class TestFilterBatch:
    def test_keeps_only_in_range_deltas(self, replay_batches):
        partition = PartitionMap(3)
        for batch in replay_batches[:20]:
            kept_total = 0
            for shard_range in partition.ranges:
                piece = filter_batch(batch, shard_range)
                assert piece.seq == batch.seq
                assert piece.day == batch.day
                assert all(
                    shard_range.contains(d.ip) for d in piece.deltas
                )
                kept_total += len(piece.deltas)
            assert kept_total == len(batch.deltas)

    def test_unfiltered_batch_is_not_copied(self, replay_batches):
        whole = ShardRange(0, MAX_IPV4)
        batch = replay_batches[0]
        assert filter_batch(batch, whole) is batch


class TestClusterCli:
    def test_bad_shard_count_is_error(self, capsys):
        assert main(["cluster", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_bad_replicas_is_error(self, capsys):
        assert main(["cluster", "--replicas", "-1"]) == 2
        assert "--replicas" in capsys.readouterr().err

    def test_bad_port_is_error(self, capsys):
        assert main(["cluster", "--port", "70000"]) == 2
        assert "port" in capsys.readouterr().err

    def test_follow_conflicts_with_snapshot(self, capsys):
        code = main(
            [
                "cluster", "--follow", "x.gz", "--snapshot", "y.idx",
                "--port", "0",
            ]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_bad_conn_timeout_is_error(self, capsys):
        assert main(["serve", "--conn-timeout", "0"]) == 2
        assert "conn-timeout" in capsys.readouterr().err
        assert main(["cluster", "--conn-timeout", "-1"]) == 2
        assert "conn-timeout" in capsys.readouterr().err

    def test_bad_split_flag_forks_no_worker(
        self, tmp_path, full_index, capsys, monkeypatch
    ):
        forked = []

        def refuse(self):
            forked.append(self)
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(ShardProcess, "spawn", refuse)
        snapshot = full_index.save(tmp_path / "s.idx")
        code = main(
            [
                "cluster", "--port", "0", "--snapshot", str(snapshot),
                "--auto-split", "--split-factor", "0.5",
            ]
        )
        err = capsys.readouterr().err.splitlines()
        assert (code, forked) == (2, [])
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "factor" in err[0] and "0.5" in err[0]
