"""Load-generator tests: shared stats, mix registry, deterministic
schedules, the hot-range detector policy, and the harness driving a
live single-process server.

Determinism is the load subsystem's contract: the same mix, population
and seed must produce byte-identical schedules, because an SLO
regression is only meaningful if two runs replayed the same traffic.
"""

import json
import socket

import pytest

from repro.adversary import scenario_index
from repro.cli import main
from repro.cluster import HotRangeDetector, LocalCluster
from repro.loadgen import (
    Event,
    LoadHarness,
    MIXES,
    MixSpec,
    TrafficGenerator,
    get_mix,
    mix_names,
    percentile,
    population_from_analysis,
    population_from_hitlist,
    render_report,
    summarize,
    window_day_workload,
)
from repro.service.engine import QueryEngine
from repro.service.server import ReputationServer
from repro.v6serve import HitlistV6Model


class TestStats:
    def test_percentile_nearest_rank(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 0.5) == 3.0
        assert percentile(samples, 1.0) == 5.0
        # Nearest-rank on sorted samples: ordered[int(q * (n - 1))].
        ordered = sorted(samples)
        for q in (0.1, 0.25, 0.9, 0.99):
            assert percentile(samples, q) == ordered[int(q * 4)]

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 0.5)
        with pytest.raises(ValueError, match="out of range"):
            percentile([1.0], 1.5)
        with pytest.raises(ValueError, match="out of range"):
            percentile([1.0], -0.1)

    def test_summarize_digest(self):
        samples = [float(v) for v in range(1, 101)]
        digest = summarize(samples)
        assert digest["count"] == 100
        assert digest["mean"] == pytest.approx(50.5)
        assert digest["p50"] == percentile(samples, 0.5)
        assert digest["p90"] == percentile(samples, 0.9)
        assert digest["p99"] == percentile(samples, 0.99)
        assert digest["max"] == 100.0

    def test_summarize_empty_is_zeroed(self):
        digest = summarize([])
        assert digest["count"] == 0
        assert digest["p99"] == 0.0 and digest["max"] == 0.0

    def test_window_day_workload_shape(self, analysis):
        pairs = window_day_workload(analysis, 500)
        assert len(pairs) == 500
        listed = set(analysis.blocklisted_ips)
        days = set()
        for start, end in analysis.windows:
            days.update((start, (start + end) // 2, end))
        assert all(ip in listed for ip, _ in pairs)
        assert all(day in days for _, day in pairs)

    def test_window_day_workload_truncates_and_repeats(self, analysis):
        short = window_day_workload(analysis, 3)
        assert len(short) == 3
        huge = window_day_workload(analysis, 10_000)
        assert len(huge) == 10_000
        # Repetition is cyclic: the head repeats verbatim.
        assert huge[: len(short)] == short


class TestMixes:
    def test_registry_names(self):
        assert set(mix_names()) == set(MIXES)
        assert "steady" in MIXES and "hot-range" in MIXES

    def test_get_mix_unknown_lists_options(self):
        with pytest.raises(KeyError, match="steady"):
            get_mix("nope")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"zipf_s": -0.1},
            {"hot_ips": 0},
            {"batch_fraction": 1.5},
            {"batch_size": 0},
            {"burst_factor": 0.5},
            {"burst_fraction": 1.0},
            {"churn_storms": -1},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            MixSpec("bad", "invalid knobs", **kwargs)


class TestGenerator:
    def test_same_seed_same_schedule(self, analysis):
        mix = get_mix("steady")
        ips, days = population_from_analysis(mix, analysis)
        one = TrafficGenerator(mix, ips, days, seed=7)
        two = TrafficGenerator(mix, ips, days, seed=7)
        assert one.schedule(2000, 5000.0) == two.schedule(2000, 5000.0)

    def test_different_seed_differs(self, analysis):
        mix = get_mix("steady")
        ips, days = population_from_analysis(mix, analysis)
        one = TrafficGenerator(mix, ips, days, seed=1).schedule(500, 5000.0)
        two = TrafficGenerator(mix, ips, days, seed=2).schedule(500, 5000.0)
        assert one != two

    def test_schedule_carries_exact_query_count(self, analysis):
        hitlist = [(0x20010DB8 << 96) | (n << 64) | n for n in range(64)]
        for name in mix_names():
            mix = get_mix(name)
            if mix.family == "ipv6":
                ips, days = population_from_hitlist(mix, hitlist)
            else:
                ips, days = population_from_analysis(mix, analysis)
            events = TrafficGenerator(mix, ips, days).schedule(
                1000, 10_000.0
            )
            assert sum(e.queries() for e in events) == 1000
            assert all(
                e.queries() <= mix.batch_size
                for e in events
                if e.kind == "batch"
            )
            assert all(
                e.queries() == 1 for e in events if e.kind == "point"
            )

    def test_due_times_are_monotonic(self, analysis):
        mix = get_mix("hot-range")
        ips, days = population_from_analysis(mix, analysis)
        events = TrafficGenerator(mix, ips, days).schedule(800, 8000.0)
        ats = [e.at for e in events]
        assert ats == sorted(ats)
        assert ats[0] > 0.0

    def test_hot_block_concentrates_traffic(self, analysis):
        mix = get_mix("hot-range")
        ips, days = population_from_analysis(mix, analysis)
        # The hot head shares a single /24 ...
        head = ips[: mix.hot_ips]
        assert len({ip >> 8 for ip in head}) == 1
        hot_block = head[0] >> 8
        # ... and the zipf skew routes most queries into it.
        events = TrafficGenerator(mix, ips, days).schedule(
            2000, 10_000.0
        )
        queried = [
            ip for e in events for ip, _ in e.pairs
        ]
        in_block = sum(1 for ip in queried if (ip >> 8) == hot_block)
        assert in_block / len(queried) > 0.6

    def test_storm_times_evenly_spread(self, analysis):
        mix = get_mix("churn-storm")
        ips, days = population_from_analysis(mix, analysis)
        times = TrafficGenerator(mix, ips, days).storm_times(8.0)
        assert times == [2.0, 4.0, 6.0]

    def test_validation(self, analysis):
        mix = get_mix("steady")
        ips, days = population_from_analysis(mix, analysis)
        generator = TrafficGenerator(mix, ips, days)
        with pytest.raises(ValueError, match="at least one"):
            generator.schedule(0, 100.0)
        with pytest.raises(ValueError, match="positive"):
            generator.schedule(10, 0.0)
        with pytest.raises(ValueError, match="address population"):
            TrafficGenerator(mix, [], days)
        with pytest.raises(ValueError, match="day population"):
            TrafficGenerator(mix, ips, [])


def _snapshot(epoch, hits):
    return {
        "partition_epoch": epoch,
        "shards": [{"shard": i, "hits": h} for i, h in enumerate(hits)],
    }


class TestHotRangeDetector:
    def test_nominates_after_sustained_heat(self):
        detector = HotRangeDetector(factor=2.0, sustain=3, min_hits=10)
        assert detector.observe(_snapshot(0, [0, 0, 0])) is None
        # Shard 1 takes ~all the traffic for three windows.
        assert detector.observe(_snapshot(0, [5, 100, 5])) is None
        assert detector.observe(_snapshot(0, [10, 200, 10])) is None
        assert detector.observe(_snapshot(0, [15, 300, 15])) == 1

    def test_streak_resets_after_nomination(self):
        # With 2 shards, fair share is half the window, so factor 2
        # would demand 100% of traffic; 1.5 (75%) leaves headroom.
        detector = HotRangeDetector(factor=1.5, sustain=2, min_hits=10)
        detector.observe(_snapshot(0, [0, 0]))
        assert detector.observe(_snapshot(0, [1, 100])) is None
        assert detector.observe(_snapshot(0, [2, 200])) == 1
        # A fresh streak is required before the next nomination.
        assert detector.observe(_snapshot(0, [3, 300])) is None
        assert detector.observe(_snapshot(0, [4, 400])) == 1

    def test_epoch_change_resets_baseline(self):
        detector = HotRangeDetector(factor=2.0, sustain=2, min_hits=10)
        detector.observe(_snapshot(0, [0, 0]))
        assert detector.observe(_snapshot(0, [0, 100])) is None
        # The split landed: new epoch, new layout, counters restart.
        assert detector.observe(_snapshot(1, [0, 5, 5])) is None
        assert detector.observe(_snapshot(1, [0, 105, 10])) is None
        assert detector.observe(_snapshot(1, [0, 205, 15])) == 1

    def test_quiet_windows_break_the_streak(self):
        detector = HotRangeDetector(factor=1.5, sustain=2, min_hits=100)
        detector.observe(_snapshot(0, [0, 0]))
        assert detector.observe(_snapshot(0, [10, 1000])) is None
        # Window total below min_hits: skew over noise, streak dies.
        assert detector.observe(_snapshot(0, [11, 1010])) is None
        assert detector.observe(_snapshot(0, [20, 2000])) is None
        assert detector.observe(_snapshot(0, [30, 3000])) == 1

    def test_balanced_load_never_nominates(self):
        detector = HotRangeDetector(factor=2.0, sustain=1, min_hits=10)
        detector.observe(_snapshot(0, [0, 0, 0]))
        for step in range(1, 6):
            hits = [100 * step, 110 * step, 105 * step]
            assert detector.observe(_snapshot(0, hits)) is None

    def test_single_shard_never_nominates(self):
        detector = HotRangeDetector(factor=2.0, sustain=1, min_hits=1)
        detector.observe(_snapshot(0, [0]))
        assert detector.observe(_snapshot(0, [10_000])) is None

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="factor"):
            HotRangeDetector(factor=1.0)
        with pytest.raises(ValueError, match="sustain"):
            HotRangeDetector(sustain=0)
        with pytest.raises(ValueError, match="min_hits"):
            HotRangeDetector(min_hits=0)


class TestHarness:
    @pytest.fixture(scope="class")
    def server(self, full_index):
        with ReputationServer(QueryEngine(full_index)) as srv:
            srv.start()
            yield srv

    def _schedule(self, analysis, name, n, qps):
        mix = get_mix(name)
        ips, days = population_from_analysis(mix, analysis)
        generator = TrafficGenerator(mix, ips, days, seed=0)
        return mix, generator.schedule(n, qps)

    def test_run_answers_everything(self, analysis, server):
        mix, events = self._schedule(analysis, "steady", 600, 6000.0)
        harness = LoadHarness(*server.address, conns=2)
        report = harness.run(
            events, mix=mix.name, target_qps=6000.0
        )
        assert report.sent == 600
        assert report.ok == 600
        assert report.failed == 0
        assert report.point_latency["count"] > 0
        assert report.batch_latency["count"] > 0
        assert report.achieved_qps() > 0
        rendered = render_report(report)
        assert "failed=0" in rendered and "p99" in rendered

    def test_capture_matches_static_engine(
        self, analysis, full_index, server
    ):
        mix, events = self._schedule(analysis, "batch-heavy", 400, 8000.0)
        harness = LoadHarness(*server.address, conns=2, capture=True)
        report = harness.run(events, mix=mix.name)
        assert report.failed == 0
        assert len(harness.captured) == report.ok
        engine = QueryEngine(full_index)
        for ip, day, verdict in harness.captured:
            assert verdict == engine.query(ip, day).to_wire()

    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_dead_shard_rows_are_degraded_not_ok(self, full_index, codec):
        """Batches straddling a live and a SIGKILLed shard (no
        replica): the dead shard's rows are tallied degraded whichever
        mapping type the codec hands back, the live one's are ok and
        captured as plain dicts."""
        high = 0xC8000000  # 200.0.0.0: the top third of the range
        events = [
            Event(0.001 * at, "batch", ((1 + at, None), (high + at, None)))
            for at in range(50)
        ]
        with LocalCluster(
            full_index, shards=3, heartbeat_interval=0.2
        ) as cluster:
            assert cluster.router.wait_healthy(timeout=10.0)
            dead = cluster.partition.shard_of(high)
            assert dead != cluster.partition.shard_of(1)
            cluster.kill_primary(dead)
            harness = LoadHarness(
                *cluster.address, conns=1, codec=codec, capture=True
            )
            report = harness.run(events)
        assert (report.sent, report.ok, report.degraded) == (100, 50, 50)
        assert report.failed == 50
        assert all(
            type(verdict) is dict and ip < high
            for ip, _day, verdict in harness.captured
        )

    def test_report_round_trips_through_json(self, analysis, server):
        mix, events = self._schedule(analysis, "steady", 100, 5000.0)
        report = LoadHarness(*server.address, conns=1).run(
            events, mix=mix.name, seed=3, target_qps=5000.0
        )
        decoded = json.loads(report.to_json())
        assert decoded["mix"] == "steady"
        assert decoded["seed"] == 3
        assert decoded["sent"] == 100
        assert decoded["failed"] == 0
        assert decoded["point_latency_s"]["count"] >= 0

    def test_dead_endpoint_counts_transport_errors(self, analysis):
        # A port nothing listens on: every query must land in the
        # transport-error ledger, never hang or raise out of run().
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()[:2]
        probe.close()
        mix, events = self._schedule(analysis, "steady", 50, 5000.0)
        report = LoadHarness(host, port, conns=2, timeout=2.0).run(
            events, mix=mix.name
        )
        assert report.ok == 0
        assert report.transport_errors == report.sent == 50

    def test_empty_schedule_rejected(self, server):
        with pytest.raises(ValueError, match="empty schedule"):
            LoadHarness(*server.address).run([])

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError, match="connection"):
            LoadHarness("127.0.0.1", 1, conns=0)
        with pytest.raises(ValueError, match="window"):
            LoadHarness("127.0.0.1", 1, window=0)


class TestStormHookFromLog:
    @pytest.fixture(scope="class")
    def scenario_log(self, tmp_path_factory):
        from repro.adversary import (
            get_adversary,
            score_scenario,
            write_scenario_log,
        )

        score = score_scenario(get_adversary("slow-drip").build(2020))
        path = tmp_path_factory.mktemp("churn") / "source.log"
        return write_scenario_log(score, path)

    def test_replays_source_batches_on_storms(
        self, scenario_log, tmp_path
    ):
        from repro.loadgen import storm_hook
        from repro.stream import UpdateLogReader, UpdateLogWriter

        source_batches = UpdateLogReader(scenario_log).poll()
        target = tmp_path / "live.log"
        UpdateLogWriter(target, start_day=0)  # header-only live log
        storm, pending = storm_hook(source_batches, target)
        assert pending == len(source_batches)
        for index in range(3):
            storm(index)
        storm(len(source_batches) + 5)  # beyond pending: a no-op
        replayed = UpdateLogReader(target).poll()
        assert replayed == source_batches[:3]

    def test_resumes_past_already_logged_batches(
        self, scenario_log, tmp_path
    ):
        from repro.loadgen import storm_hook
        from repro.stream import UpdateLogReader, UpdateLogWriter

        source_batches = UpdateLogReader(scenario_log).poll()
        target = tmp_path / "live.log"
        writer = UpdateLogWriter(target, start_day=0)
        for batch in source_batches[:4]:
            writer.append(batch)
        # Any iterable of batches will do — the hook filters lazily.
        storm, pending = storm_hook(iter(source_batches), target)
        assert pending == len(source_batches) - 4
        storm(0)
        replayed = UpdateLogReader(target).poll()
        assert replayed == source_batches[:5]

    def test_start_day_mismatch_rejected(
        self, scenario_log, tmp_path, capsys
    ):
        """``repro load`` owns both logs' headers, so it is the one to
        refuse a source whose seq numbers would not line up."""
        from repro.stream import UpdateLogReader, UpdateLogWriter

        target = tmp_path / "live.log"
        UpdateLogWriter(target, start_day=7)
        code = main(
            [
                "load", "--port", "1", "--mix", "churn-storm",
                "--churn-log", str(target),
                "--churn-source", str(scenario_log),
            ]
        )
        assert code == 2
        assert "starts at day" in capsys.readouterr().err
        assert UpdateLogReader(target).poll() == []


class TestLoadCli:
    def test_churn_source_requires_churn_log(self, capsys):
        code = main(
            [
                "load", "--port", "1",
                "--churn-source", "whatever.log",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--churn-source requires --churn-log" in err

    def test_bad_queries_is_error(self, capsys):
        assert main(["load", "--queries", "0", "--port", "1"]) == 2
        assert "--queries" in capsys.readouterr().err

    def test_bad_target_qps_is_error(self, capsys):
        assert main(["load", "--target-qps", "0", "--port", "1"]) == 2
        assert "--target-qps" in capsys.readouterr().err

    def test_bad_conns_is_error(self, capsys):
        assert main(["load", "--conns", "0", "--port", "1"]) == 2
        assert "--conns" in capsys.readouterr().err

    def test_bad_port_is_error(self, capsys):
        assert main(["load", "--port", "70000"]) == 2
        assert "port" in capsys.readouterr().err

    def test_unreachable_endpoint_is_error(self, capsys):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main(
            [
                "load", "--port", str(port), "--queries", "20",
                "--target-qps", "5000",
            ]
        )
        assert code == 2
        assert "no queries succeeded" in capsys.readouterr().err

    @pytest.mark.parametrize("mix", ["steady", "v6-hitlist"])
    def test_live_run_writes_report(
        self, full_index, tmp_path, capsys, mix
    ):
        """A mix end to end against a live server of its family's
        index: the small run's, or the hitlist-v6 scenario's."""
        index = full_index
        if mix == "v6-hitlist":
            index = scenario_index(HitlistV6Model().build(2020))
        out = tmp_path / "report.json"
        with ReputationServer(QueryEngine(index)) as server:
            server.start()
            host, port = server.address
            code = main(
                [
                    "load", "--host", host, "--port", str(port),
                    "--mix", mix, "--queries", "300",
                    "--target-qps", "6000", "--conns", "2",
                    "--out", str(out),
                ]
            )
        assert code == 0
        shown = capsys.readouterr().out
        assert f"mix={mix}" in shown and "failed=0" in shown
        decoded = json.loads(out.read_text())
        assert decoded["mix"] == mix
        assert decoded["sent"] == decoded["ok"] == 300
        assert decoded["failed"] == 0

    def test_binary_degraded_rows_are_counted(
        self, analysis, full_index, tmp_path, capsys
    ):
        """``repro load`` on the binary codec against a cluster whose
        shard under the load population was SIGKILLed, no replica:
        every batch row is a degraded record view, and is tallied so."""
        out = tmp_path / "report.json"
        ips, _days = population_from_analysis(get_mix("steady"), analysis)
        with LocalCluster(
            full_index, shards=3, heartbeat_interval=0.2
        ) as cluster:
            assert cluster.router.wait_healthy(timeout=10.0)
            assert {cluster.partition.shard_of(ip) for ip in ips} == {0}
            cluster.kill_primary(0)
            host, port = cluster.address
            code = main(
                [
                    "load", "--host", host, "--port", str(port),
                    "--codec", "binary", "--mix", "steady",
                    "--queries", "300", "--target-qps", "6000",
                    "--conns", "2", "--out", str(out),
                ]
            )
        assert code == 2
        captured = capsys.readouterr()
        assert "no queries succeeded" in captured.err
        report = json.loads(out.read_text())
        # Batch rows degrade per address; a point query to the dead
        # shard is rejected whole.
        assert report["degraded"] > 0 and report["ok"] == 0
        assert report["degraded"] + report["rejected"] == report["sent"] == 300
        assert f"(degraded={report['degraded']} " in captured.out
