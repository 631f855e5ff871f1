"""Streaming service tests: epoch swaps, the wire handshake, the
follower's lifecycle and the streaming CLI. The acceptance scenario —
the whole update log replayed by a live follower while clients ask,
every answer the state of the epoch it names — is the
``log-swaps-under-load`` fault in ``tests/faults.py``.
"""

import argparse
import sys
import threading

import pytest

from repro.cli import (
    CliError,
    _serving_base,
    main,
)
from repro.cluster import LocalCluster
from repro.service.client import ReputationClient
from repro.service.engine import QueryEngine
from repro.service.server import PROTOCOL_VERSION, ReputationServer
from repro.stream.delta import (
    DeltaBatch,
    ListingDelta,
    truncate_spans,
)
from repro.stream.epoch import EVENTS_KEPT, EpochIndex, Events, index_as_of
from repro.stream.follower import LogFollower
from repro.stream.log import UpdateLogWriter, read_update_log
from tests.conftest import wait_for_seq


def _sample_span(index):
    """Some (ip, span) actually present in the index."""
    for ip, spans in index.interval_items():
        if spans:
            return ip, spans[0]
    raise AssertionError("index has no intervals")


class TestIndexAsOf:
    def test_intervals_rolled_back_products_kept(
        self, full_index, base_index, start_day
    ):
        base_engine = QueryEngine(base_index)
        full_engine = QueryEngine(full_index)
        for ip, spans in full_index.interval_items():
            expected = truncate_spans(spans, start_day)
            assert list(base_index.intervals_of(ip)) == expected
            # Measurement-side products survive the rollback whole —
            # they come from the pipeline, not the feed churn.
            base, full = base_engine.query(ip), full_engine.query(ip)
            assert (base.asn, base.nated, base.users) == (
                full.asn, full.nated, full.users
            )

    def test_rollback_shrinks_interval_footprint(
        self, full_index, base_index
    ):
        assert (
            base_index.stats()["intervals"]
            < full_index.stats()["intervals"]
        )
        assert base_index.windows == full_index.windows

    def test_base_plus_full_replay_equals_batch_index(
        self, full_index, base_index, replay_batches
    ):
        epochs = EpochIndex(base_index)
        for batch in replay_batches:
            epochs.apply(batch)
        final = epochs.index
        for ip, spans in full_index.interval_items():
            assert list(final.intervals_of(ip)) == sorted(spans)


class TestEpochIndex:
    def _delta(self, ip, span, *, op="extend", last=None):
        first, old_last, list_id = span[0], span[1], span[2]
        return ListingDelta(
            old_last + 1, ip, list_id, op,
            first, old_last + 100 if last is None else last,
        )

    def test_apply_publishes_successor(self, base_index):
        epochs = EpochIndex(base_index)
        ip, span = _sample_span(base_index)
        before = epochs.current
        assert (before.number, before.seq) == (0, 0)
        probe_day = span[1] + 50
        assert not before.index.lists_active_on(ip, probe_day)
        after = epochs.apply(
            DeltaBatch(1, probe_day, (self._delta(ip, span),))
        )
        assert (after.number, after.seq) == (1, 1)
        assert span[2] in after.index.lists_active_on(ip, probe_day)
        # The superseded epoch is untouched: a reader holding it keeps
        # getting the old answers (that is the zero-downtime contract).
        assert not before.index.lists_active_on(ip, probe_day)

    def test_replayed_batch_is_skipped(self, base_index):
        epochs = EpochIndex(base_index)
        ip, span = _sample_span(base_index)
        batch = DeltaBatch(1, 1, (self._delta(ip, span),))
        first = epochs.apply(batch)
        again = epochs.apply(batch)
        assert again is first
        assert epochs.stats()["batches_skipped"] == 1

    def test_sequence_gap_rejected(self, base_index):
        epochs = EpochIndex(base_index)
        ip, span = _sample_span(base_index)
        with pytest.raises(ValueError):
            epochs.apply(DeltaBatch(3, 1, (self._delta(ip, span),)))

    def test_untouched_addresses_keep_their_intervals(self, base_index):
        epochs = EpochIndex(base_index)
        ip, span = _sample_span(base_index)
        other = next(
            i for i, s in base_index.interval_items() if i != ip and s
        )
        epochs.apply(DeltaBatch(1, 1, (self._delta(ip, span),)))
        assert epochs.index.intervals_of(other) == (
            base_index.intervals_of(other)
        )

    def test_day_0_is_day_0(self, base_index):
        assert base_index.default_day() != 0
        assert EpochIndex(base_index, day=0).stats()["day"] == 0
        assert EpochIndex(base_index).stats()["day"] == (
            base_index.default_day()
        )

    def test_events_read_while_appended(self):
        """Followers add events while the loop reads them: the read is
        one copy of the deque, which no append can tear, and the record
        never holds more than its bound."""
        events, stop = Events(), threading.Event()

        def add():
            while not stop.is_set():
                events.add("epoch", number=0)

        adders = [threading.Thread(target=add) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for adder in adders:
                adder.start()
            for _ in range(2000):
                assert len(events.recent()) <= EVENTS_KEPT
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for adder in adders:
                adder.join(5.0)
        assert not any(adder.is_alive() for adder in adders)

    def test_stats_counters(self, base_index, start_day):
        epochs = EpochIndex(base_index, day=start_day)
        stats = epochs.stats()
        assert stats == {
            "epoch": 0,
            "seq": 0,
            "day": start_day,
            "deltas_applied": 0,
            "batches_skipped": 0,
            "error": None,
        }


class TestEngineEpochs:
    def test_static_engine_reports_epoch_zero(self, full_index):
        engine = QueryEngine(full_index)
        ip, _ = _sample_span(full_index)
        verdict = engine.query(ip)
        assert (verdict.epoch, verdict.seq) == (0, 0)
        current = engine.epochs.current
        assert (current.number, current.seq) == (0, 0)
        assert current.day == full_index.default_day()

    def test_hot_swap_invalidates_cache_by_epoch(self, base_index):
        epochs = EpochIndex(base_index)
        engine = QueryEngine(epochs)
        ip, span = _sample_span(base_index)
        probe_day = span[1] + 50
        stale = engine.query(ip, probe_day)
        assert not stale.listed and stale.epoch == 0
        engine.query(ip, probe_day)
        delta = ListingDelta(
            probe_day, ip, span[2], "extend", span[0], probe_day
        )
        epochs.apply(DeltaBatch(1, probe_day, (delta,)))
        fresh = engine.query(ip, probe_day)
        # Same (ip, day): the epoch-0 verdict must not answer.
        assert fresh.epoch == 1 and fresh.seq == 1
        assert fresh.listed and span[2] in fresh.lists

    def test_streaming_stats_carry_epoch_block(self, base_index, full_index):
        epochs = EpochIndex(base_index)
        blocks = []
        for engine, streaming in ((QueryEngine(epochs), True),
                                  (QueryEngine(full_index), False)):
            with ReputationServer(engine, streaming=streaming) as server:
                with ReputationClient(*server.start()) as client:
                    blocks.append(client.stats()["epoch"])
        assert blocks == [epochs.stats(), {"epoch": 0, "seq": 0}]


class TestHelloHandshake:
    def test_static_server_handshake(self, full_index):
        server = ReputationServer(
            QueryEngine(full_index), connection_timeout=5.0
        )
        host, port = server.start()
        try:
            with ReputationClient(host, port) as client:
                hello = client.hello()
                assert hello == {
                    "service": "repro-reputation",
                    "protocol": PROTOCOL_VERSION,
                    "streaming": False,
                    "epoch": 0,
                    "seq": 0,
                }
        finally:
            server.shutdown()

    def test_streaming_server_handshake_tracks_epochs(
        self, base_index, replay_batches
    ):
        epochs = EpochIndex(base_index)
        server = ReputationServer(
            QueryEngine(epochs), connection_timeout=5.0, streaming=True
        )
        host, port = server.start()
        try:
            with ReputationClient(host, port) as client:
                assert client.hello()["streaming"] is True
                assert client.hello()["epoch"] == 0
                epochs.apply(replay_batches[0])
                hello = client.hello()
                assert hello["epoch"] == 1
                assert hello["seq"] == replay_batches[0].seq
                stats = client.stats()
                assert stats["epoch"]["epoch"] == 1
                assert stats["epoch"]["day"] == replay_batches[0].day
        finally:
            server.shutdown()


class TestFollowerFailureIsDeclared:
    """A follower's lifecycle around its failures: a clean stop
    declares nothing, and a stopped follower stays stopped. The
    failures themselves — each a declared stale state — are the
    ``log-*`` faults in ``tests/faults.py``."""

    @pytest.fixture()
    def following(self, tmp_path, base_index, start_day, replay_batches):
        """A live server following a one-batch log."""
        log_path = tmp_path / "updates.gz"
        UpdateLogWriter(log_path, start_day=start_day).append(
            replay_batches[0]
        )
        epochs = EpochIndex(base_index, day=start_day)
        follower = LogFollower(log_path, epochs, poll_interval=0.01)
        with ReputationServer(
            QueryEngine(epochs), connection_timeout=5.0, streaming=True
        ) as server:
            address = server.start()
            with follower, ReputationClient(*address) as client:
                assert wait_for_seq([address], replay_batches[0].seq, 10.0)
                assert client.stats()["epoch"]["error"] is None
                yield follower, client

    def test_clean_stop_declares_nothing(self, following):
        follower, client = following
        follower.stop()
        stats = client.stats()
        assert stats["epoch"]["error"] is None
        assert [e["kind"] for e in stats["events"]] == ["epoch"]

    def test_a_stopped_follower_does_not_start_again(self, following):
        """Single-use, like a shard host: ``start()`` after ``stop()``
        used to spawn a thread that saw the stop flag and left at once
        — not following, and no ``error``."""
        follower, _ = following
        follower.stop()
        with pytest.raises(RuntimeError, match="was stopped"):
            follower.start()
        follower.stop()  # still idempotent


class TestCliStream:
    @pytest.fixture(scope="class")
    def cli_env(self, tmp_path_factory):
        mp = pytest.MonkeyPatch()
        mp.setenv(
            "RESULTS_CACHE_DIR",
            str(tmp_path_factory.mktemp("run-cache")),
        )
        yield mp
        mp.undo()

    @pytest.fixture(scope="class")
    def cli_log(self, cli_env, tmp_path_factory):
        out = tmp_path_factory.mktemp("stream") / "updates.gz"
        assert main(["stream", "--out", str(out)]) == 0
        return out

    def test_stream_writes_replayable_log(
        self, cli_log, start_day, replay_batches
    ):
        header, batches = read_update_log(cli_log)
        assert header["start_day"] == start_day
        assert header["meta"]["preset"] == "small"
        assert header["meta"]["seed"] == 2020
        # The CLI's cached run is the same seeded world as the session
        # fixture, so its churn stream is bit-identical.
        assert batches == replay_batches

    def test_stream_replaces_existing_file(self, cli_env, tmp_path):
        out = tmp_path / "updates.gz"
        out.write_bytes(b"old junk")
        assert main(["stream", "--out", str(out)]) == 0
        header, batches = read_update_log(out)
        assert header["magic"] == "repro-update-log"
        assert batches

    def test_stream_paced_emission(self, cli_env, tmp_path, capsys):
        out = tmp_path / "paced.gz"
        assert main(
            ["stream", "--out", str(out), "--replay-days", "1e6"]
        ) == 0
        assert "day batches" in capsys.readouterr().out
        _, batches = read_update_log(out)
        assert batches

    def test_follow_state_builds_and_validates(
        self, cli_env, cli_log, start_day
    ):
        args = argparse.Namespace(
            follow=str(cli_log), snapshot=None,
            preset="small", seed=2020, workers=1,
        )
        index, follow, day = _serving_base(args)
        assert (follow, day) == (cli_log, start_day)
        meta = read_update_log(cli_log)[0]["meta"]
        sizes = index.stats()
        assert (sizes["ips"], sizes["intervals"]) == (
            meta["ips"], meta["intervals"]
        )

    def test_cluster_follow_rolls_the_run_back_once(
        self, cli_env, cli_log, start_day, monkeypatch
    ):
        """``repro cluster --follow``'s boot: ``_serving_base`` rolls
        the run back to the log's start day, and the cluster serves
        that index as it stands."""
        real, days = index_as_of, []

        def counted(index, day):
            days.append(day)
            return real(index, day)

        for module in list(sys.modules.values()):
            if getattr(module, "index_as_of", None) is real:
                monkeypatch.setattr(module, "index_as_of", counted)
        args = argparse.Namespace(
            follow=str(cli_log), snapshot=None,
            preset="small", seed=2020, workers=1,
        )
        index, follow, day = _serving_base(args)
        LocalCluster(index, shards=2, follow=follow, start_day=day).close()
        assert days == [start_day]

    def test_follow_state_rejects_mismatched_base(
        self, cli_env, tmp_path
    ):
        log = tmp_path / "other.gz"
        UpdateLogWriter(
            log, start_day=214, meta={"ips": 99999, "intervals": 1}
        )
        args = argparse.Namespace(
            follow=str(log), snapshot=None,
            preset="small", seed=2020, workers=1,
        )
        with pytest.raises(CliError, match="wrong preset/seed"):
            _serving_base(args)

    def test_serve_follow_conflicts_with_snapshot(self, capsys):
        code = main(
            [
                "serve", "--follow", "x.gz", "--snapshot", "y.idx",
                "--port", "0",
            ]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_serve_follow_missing_log_is_error(self, tmp_path, capsys):
        code = main(
            [
                "serve", "--follow", str(tmp_path / "absent.gz"),
                "--port", "0",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
