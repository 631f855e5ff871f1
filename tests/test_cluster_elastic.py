"""Online elasticity: manual shard splits under live traffic, the
router's partition cutover machinery, and the closed-loop acceptance
scenario — a hot-range mix drives one shard hot, the auto-splitter
rebalances online, and not a single query fails or returns a verdict
different from a static single-process engine's.
"""

import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro.cluster import AutoSplitter, LocalCluster, PartitionMap
from repro.cluster import shard as shard_module
from repro.loadgen import (
    LoadHarness,
    TrafficGenerator,
    get_mix,
    population_from_analysis,
)
from repro.net.ipv4 import int_to_ip
from repro.service.client import ReputationClient, TransportError
from repro.service.engine import QueryEngine


class TestManualSplit:
    def test_split_under_live_traffic_loses_nothing(
        self, full_index, listed_ips
    ):
        """Clients hammer the router while a shard splits; every reply
        stays field-for-field identical to the static engine and no
        request fails."""
        single = QueryEngine(full_index)
        want = {ip: single.query(ip).to_wire() for ip in listed_ips}
        with LocalCluster(full_index, shards=3) as cluster:
            assert cluster.router.wait_healthy(10.0)
            victim = cluster.partition.shard_of(listed_ips[0])
            failures = []
            stop = threading.Event()

            def hammer(offset):
                try:
                    with ReputationClient(*cluster.address) as client:
                        i = 0
                        while not stop.is_set():
                            ip = listed_ips[
                                (offset + i) % len(listed_ips)
                            ]
                            if client.query(ip) != want[ip]:
                                failures.append(("mismatch", ip))
                            pairs = [
                                (p, None)
                                for p in listed_ips[offset::3]
                            ]
                            got = client.query_batch(pairs)
                            for (p, _), verdict in zip(pairs, got):
                                if verdict != want[p]:
                                    failures.append(("batch", p))
                            i += 1
                except Exception as exc:  # pragma: no cover
                    failures.append(("client died", repr(exc)))

            workers = [
                threading.Thread(target=hammer, args=(offset,))
                for offset in range(3)
            ]
            for worker in workers:
                worker.start()
            time.sleep(0.1)  # traffic in flight before the cutover
            info = cluster.split_shard(victim)
            time.sleep(0.1)  # and after it
            stop.set()
            for worker in workers:
                worker.join(timeout=30.0)

            assert not failures, failures[:5]
            assert info["shard"] == victim
            assert info["new_shards"] == [victim, victim + 1]
            assert info["shards"] == 4
            assert len(cluster.partition) == 4
            # The halves tile exactly the old range.
            left = cluster.partition.range_of(victim)
            right = cluster.partition.range_of(victim + 1)
            assert right.lo == left.hi + 1

            # The router agrees: 4 shards, bumped epoch, and verdicts
            # still come from the right backends.
            snapshot = cluster.router.load_snapshot()
            assert snapshot["partition_epoch"] == 1
            assert len(snapshot["shards"]) == 4
            with ReputationClient(*cluster.address) as client:
                assert client.hello()["cluster"]["shards"] == 4
                got = client.query_batch(
                    [(ip, None) for ip in listed_ips]
                )
                for ip, verdict in zip(listed_ips, got):
                    assert verdict == want[ip], int_to_ip(ip)

    def test_split_routes_hits_to_the_new_shards(
        self, full_index, listed_ips
    ):
        with LocalCluster(full_index, shards=2) as cluster:
            assert cluster.router.wait_healthy(10.0)
            victim = cluster.partition.shard_of(listed_ips[0])
            cluster.split_shard(victim)
            with ReputationClient(*cluster.address) as client:
                for ip in listed_ips:
                    client.query(ip)
            snapshot = cluster.router.load_snapshot()
            by_shard = {
                row["shard"]: row["hits"] for row in snapshot["shards"]
            }
            for ip in listed_ips:
                owner = cluster.partition.shard_of(ip)
                assert by_shard[owner] > 0
                break

    def test_repeated_splits_keep_serving(self, full_index, listed_ips):
        single = QueryEngine(full_index)
        with LocalCluster(full_index, shards=2) as cluster:
            assert cluster.router.wait_healthy(10.0)
            for _ in range(3):
                victim = cluster.partition.shard_of(listed_ips[0])
                cluster.split_shard(victim)
            assert len(cluster.partition) == 5
            assert cluster.router.load_snapshot()["partition_epoch"] == 3
            with ReputationClient(*cluster.address) as client:
                got = client.query_batch(
                    [(ip, None) for ip in listed_ips]
                )
                for ip, verdict in zip(listed_ips, got):
                    assert verdict == single.query(ip).to_wire()

    def test_unstarted_cluster_rejects_split(self, full_index):
        cluster = LocalCluster(full_index, shards=2)
        with pytest.raises(RuntimeError, match="not started"):
            cluster.split_shard(0)
        cluster.close()

    def test_apply_partition_rejects_mismatched_backends(
        self, full_index
    ):
        with LocalCluster(full_index, shards=2) as cluster:
            assert cluster.router.wait_healthy(10.0)
            with pytest.raises(ValueError, match="backend"):
                cluster.router.apply_partition(
                    PartitionMap(3), [[("127.0.0.1", 1)]]
                )


def _split_events(cluster):
    """The ``split`` events of the router's record, newest first."""
    with ReputationClient(*cluster.address) as client:
        return [e for e in client.stats()["events"] if e["kind"] == "split"]


class TestAutoSplitAcceptance:
    """The ISSUE's elasticity bar: a seeded hot-range mix against a
    live cluster must trigger an online split, with zero failed
    queries and every verdict identical to the static engine's."""

    def test_hot_range_triggers_split_with_full_fidelity(
        self, full_index, analysis
    ):
        mix = get_mix("hot-range")
        ips, days = population_from_analysis(mix, analysis)
        generator = TrafficGenerator(mix, ips, days, seed=11)
        events = generator.schedule(6000, 4000.0)

        with LocalCluster(full_index, shards=3) as cluster:
            assert cluster.router.wait_healthy(10.0)
            splitter = AutoSplitter(
                cluster,
                interval=0.15,
                factor=1.8,
                sustain=2,
                min_hits=50,
                max_shards=8,
            )
            splitter.start()
            try:
                harness = LoadHarness(
                    *cluster.address, conns=3, capture=True
                )
                report = harness.run(
                    events,
                    mix=mix.name,
                    seed=11,
                    target_qps=4000.0,
                )
            finally:
                splitter.stop()

            events = _split_events(cluster)
            splits = [e for e in events if e["phase"] == "done"]
            assert splits, events
            assert len(cluster.partition) >= 4
            assert (
                cluster.router.load_snapshot()["partition_epoch"]
                >= len(splits)
            )

            # Zero lost queries through every cutover.
            assert report.sent == 6000
            assert report.failed == 0, report.as_dict()
            assert report.ok == 6000

            # Field-for-field fidelity for every captured verdict.
            engine = QueryEngine(full_index)
            assert len(harness.captured) == report.ok
            for ip, day, verdict in harness.captured:
                want = engine.query(ip, day).to_wire()
                assert verdict == want, (int_to_ip(ip), day)

            # The split landed where the heat was: the hot /24 sits
            # inside one of the shards produced by the first split.
            hot_block_ip = ips[0]
            first = splits[-1]  # newest first
            assert first["shard"] in range(len(cluster.partition))
            owner = cluster.partition.shard_of(hot_block_ip)
            owner_range = cluster.partition.range_of(owner)
            assert owner_range.contains(hot_block_ip)

    def test_splitter_skips_at_max_shards(self, full_index, analysis):
        mix = get_mix("hot-range")
        ips, days = population_from_analysis(mix, analysis)
        events = TrafficGenerator(mix, ips, days, seed=5).schedule(
            1500, 5000.0
        )
        with LocalCluster(full_index, shards=2) as cluster:
            assert cluster.router.wait_healthy(10.0)
            splitter = AutoSplitter(
                cluster,
                interval=0.1,
                factor=1.5,
                sustain=2,
                min_hits=50,
                max_shards=2,  # already there: every nomination skips
            )
            splitter.start()
            try:
                report = LoadHarness(*cluster.address, conns=2).run(
                    events, mix=mix.name
                )
            finally:
                splitter.stop()
            assert report.failed == 0
            assert len(cluster.partition) == 2
            events = _split_events(cluster)
            assert {e["phase"] for e in events} <= {"skip"}
            for event in events:
                assert event["reason"] == "at max_shards=2"

    def test_splitter_knob_validation(self, full_index):
        cluster = LocalCluster(full_index, shards=2)
        with pytest.raises(ValueError, match="interval"):
            AutoSplitter(cluster, interval=0.0)
        with pytest.raises(ValueError, match="max_shards"):
            AutoSplitter(cluster, max_shards=0)
        splitter = AutoSplitter(cluster)
        splitter.start()
        with pytest.raises(RuntimeError, match="already started"):
            splitter.start()
        splitter.stop()
        cluster.close()


def _split_born_workers():
    return {
        child.pid
        for child in multiprocessing.active_children()
        if child.name.startswith("repro-shard-")
    }


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestSplitOnTheLoop:
    """The cutover and the auto-splitter run on the router's loop: they
    start no thread, a split's forked workers close nothing the router
    still owns, and nothing a cluster forked outlives its close."""

    def test_splitter_and_split_start_no_thread(self, full_index):
        with LocalCluster(full_index, shards=2) as cluster:
            assert cluster.router.wait_healthy(10.0)
            before = set(threading.enumerate())
            splitter = AutoSplitter(cluster, interval=0.05)
            splitter.start()
            assert set(threading.enumerate()) == before
            cluster.split_shard(0)
            splitter.stop()
            assert set(threading.enumerate()) == before
            assert len(cluster.partition) == 3

    def test_router_shutdown_closes_for_the_peer(self, full_index, listed_ips):
        """Each split-born worker inherits the router's sockets: the
        listener and every connection. Closing them in the router must
        close them for the peer all the same."""
        with LocalCluster(full_index, shards=2) as cluster:
            assert cluster.router.wait_healthy(10.0)
            address = cluster.address
            with ReputationClient(*address, timeout=10.0) as client:
                client.query(listed_ips[0])  # connected before the split
                cluster.split_shard(cluster.partition.shard_of(listed_ips[0]))
                cluster.router.shutdown()
                with pytest.raises(ConnectionRefusedError):
                    socket.create_connection(address, timeout=1.0).close()
                started = time.monotonic()
                with pytest.raises(TransportError):
                    client.query(listed_ips[0])
                assert time.monotonic() - started < 1.0

    def test_close_mid_split_leaves_no_worker(self, full_index, monkeypatch):
        def silent_worker(pipe, base, shard_range, settings):
            time.sleep(3600.0)  # never reports: the split stays in boot

        cluster = LocalCluster(full_index, shards=2)
        try:
            cluster.start()
            forked = _split_born_workers()
            monkeypatch.setattr(
                shard_module, "_shard_process_main", silent_worker
            )
            outcome = []

            def split():
                try:
                    cluster.split_shard(0)
                except RuntimeError as exc:
                    outcome.append(exc)

            splitter = threading.Thread(target=split)
            splitter.start()
            deadline = time.monotonic() + 10.0
            while len(_split_born_workers() - forked) < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            forked |= _split_born_workers()
            assert len(forked) == 4
        finally:
            cluster.close()
        splitter.join(10.0)
        assert not splitter.is_alive()
        assert "closed" in str(outcome[0])
        assert not [pid for pid in forked if _alive(pid)]
