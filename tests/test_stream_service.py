"""Streaming service tests: epoch swaps, the wire handshake, and the
ISSUE's acceptance scenario end to end.

The acceptance test is the subsystem's reason to exist: start a server
on the window-start index state, replay the run's whole update log
through a live follower while concurrent clients hammer it, and
require (a) zero failed queries, (b) every verdict internally
consistent with the single epoch it reports (no torn reads), and
(c) after catch-up, verdicts field-for-field equal to the batch
engine's answers.
"""

import argparse
import os
import threading
import time

import pytest

from repro.cli import (
    CliError,
    _announce_follow_end,
    _serving_base,
    main,
)
from repro.net.ipv4 import int_to_ip
from repro.service.client import ReputationClient
from repro.service.engine import QueryEngine
from repro.service.index import ReputationIndex
from repro.service.server import PROTOCOL_VERSION, ReputationServer
from repro.stream.delta import (
    DeltaBatch,
    ListingDelta,
    day_advance_batches,
    truncate_spans,
)
from repro.stream.epoch import EpochIndex, index_as_of
from repro.stream.follower import LogFollower
from repro.stream.log import UpdateLogWriter, read_update_log

from .test_stream_log import _member, _record_doc


@pytest.fixture(scope="module")
def full_index(small_full_run):
    return ReputationIndex.from_run(small_full_run)


@pytest.fixture(scope="module")
def observed(small_full_run):
    return small_full_run.analysis.observed


@pytest.fixture(scope="module")
def start_day(small_full_run):
    return int(small_full_run.analysis.windows[0][0])


@pytest.fixture(scope="module")
def base_index(full_index, start_day):
    return index_as_of(full_index, start_day)


@pytest.fixture(scope="module")
def replay_batches(observed, start_day):
    return list(day_advance_batches(observed, start_day=start_day))


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
        epochs.apply_all(replay_batches)
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

    def test_untouched_addresses_share_interval_storage(
        self, base_index
    ):
        epochs = EpochIndex(base_index)
        ip, span = _sample_span(base_index)
        other = next(
            i for i, s in base_index.interval_items() if i != ip and s
        )
        epochs.apply(DeltaBatch(1, 1, (self._delta(ip, span),)))
        # Copy-on-write: the successor reads the *same* columns as its
        # parent and carries only the touched address in its overlay.
        assert epochs.index._columns is base_index._columns
        assert set(epochs.index._overlay) == {ip}
        assert not base_index._overlay
        assert epochs.index.intervals_of(other) == (
            base_index.intervals_of(other)
        )

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
        assert engine.epoch_state() == (0, 0)
        assert engine.stats()["epoch"] == {"epoch": 0, "seq": 0}

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

    def test_streaming_stats_carry_epoch_block(self, base_index):
        epochs = EpochIndex(base_index)
        engine = QueryEngine(epochs)
        stats = engine.stats()
        assert stats["epoch"]["epoch"] == 0
        assert "deltas_applied" in stats["epoch"]


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


class TestFollowEndToEnd:
    """The acceptance scenario, with the log produced live."""

    def _expected_lists(self, observed, ip, query_day, stream_day):
        """Active lists for (ip, query_day) in the state a collector
        holds on stream_day — what a verdict stamped with that stream
        position must report, whatever epoch the swap is on."""
        return sorted(
            {
                l.list_id
                for l in observed.listings_of_ip(ip)
                if l.first_day <= stream_day
                and l.first_day <= query_day <= min(l.last_day, stream_day)
            }
        )

    def test_live_replay_fidelity_and_no_torn_reads(
        self,
        tmp_path,
        small_full_run,
        full_index,
        base_index,
        observed,
        start_day,
        replay_batches,
    ):
        analysis = small_full_run.analysis
        ips = sorted(analysis.blocklisted_ips)
        days = [d for w in analysis.windows for d in w]
        day_of_seq = {0: start_day}
        day_of_seq.update(
            (batch.seq, batch.day) for batch in replay_batches
        )
        final_seq = replay_batches[-1].seq

        log_path = tmp_path / "updates.gz"
        writer = UpdateLogWriter(log_path, start_day=start_day)
        epochs = EpochIndex(base_index, day=start_day)
        server = ReputationServer(
            QueryEngine(epochs), connection_timeout=10.0, streaming=True
        )
        host, port = server.start()
        follower = LogFollower(log_path, epochs, poll_interval=0.002)
        failures = []
        produced = threading.Event()

        def produce():
            # A live producer: the follower tails a growing file, so
            # swaps genuinely interleave with the queries below.
            for batch in replay_batches:
                writer.append(batch)
            produced.set()

        def consume(worker_seed):
            try:
                last_epoch = -1
                with ReputationClient(host, port) as client:
                    for i in range(250):
                        ip = ips[(worker_seed + 3 * i) % len(ips)]
                        query_day = days[(worker_seed + i) % len(days)]
                        verdict = client.query(ip, query_day)
                        if verdict["epoch"] < last_epoch:
                            failures.append(
                                ("epoch went backwards", verdict)
                            )
                        last_epoch = verdict["epoch"]
                        expected = self._expected_lists(
                            observed, ip, query_day,
                            day_of_seq[verdict["seq"]],
                        )
                        if verdict["lists"] != expected:
                            failures.append(("torn lists", verdict))
                        if verdict["listed"] != bool(expected):
                            failures.append(("torn listed", verdict))
                        if verdict["unjust"] != (
                            bool(expected)
                            and (verdict["nated"] or verdict["dynamic"])
                        ):
                            failures.append(("torn unjust", verdict))
            except Exception as exc:  # pragma: no cover — must not happen
                failures.append(("query failed", repr(exc)))

        try:
            follower.start()
            workers = [
                threading.Thread(target=consume, args=(seed,))
                for seed in range(4)
            ]
            producer = threading.Thread(target=produce)
            for thread in workers + [producer]:
                thread.start()
            for thread in workers + [producer]:
                thread.join(timeout=60.0)
            assert produced.is_set()
            assert not failures, failures[:5]
            assert follower.wait_for_seq(final_seq, timeout=30.0), (
                epochs.stats()
            )

            # After full replay: field-for-field equality with the
            # batch engine, for every blocklisted IP on every window
            # boundary day.
            batch_engine = QueryEngine(full_index)
            with ReputationClient(host, port) as client:
                for day in days:
                    streamed = client.query_batch(
                        [(ip, day) for ip in ips]
                    )
                    for ip, got in zip(ips, streamed):
                        want = batch_engine.query(ip, day).to_wire()
                        got = dict(got)
                        assert got.pop("epoch") == final_seq
                        assert got.pop("seq") == final_seq
                        want.pop("epoch"), want.pop("seq")
                        assert got == want, (int_to_ip(ip), day)
        finally:
            follower.stop()
            server.shutdown()
        assert epochs.error is None


class TestFollowerFailureIsDeclared:
    """A dead follower must be a *declared* stale state: whatever ends
    the tail thread reaches the ``stats`` op's ``epoch`` block within
    a second — for a forked shard that block is the parent's only
    view — while the server keeps answering from the last good
    epoch."""

    @pytest.fixture()
    def following(self, tmp_path, base_index, start_day, replay_batches):
        """A live server following a one-batch log through a symlink
        (so a test can swap what the path names in one rename)."""
        real = tmp_path / "updates.real.gz"
        UpdateLogWriter(real, start_day=start_day).append(
            replay_batches[0]
        )
        log_path = tmp_path / "updates.gz"
        log_path.symlink_to(real)
        epochs = EpochIndex(base_index, day=start_day)
        follower = LogFollower(
            log_path,
            epochs,
            poll_interval=0.01,
            on_end=_announce_follow_end,  # what ``repro serve`` hangs there
        )
        with ReputationServer(
            QueryEngine(epochs), connection_timeout=5.0, streaming=True
        ) as server:
            host, port = server.start()
            with follower, ReputationClient(host, port) as client:
                assert follower.wait_for_seq(
                    replay_batches[0].seq, timeout=10.0
                )
                assert client.stats()["epoch"]["error"] is None
                yield log_path, follower, client

    def _declared_reason(self, client, good_seq, ip):
        deadline = time.monotonic() + 1.0
        reason = client.stats()["epoch"]["error"]
        while reason is None and time.monotonic() < deadline:
            time.sleep(0.01)
            reason = client.stats()["epoch"]["error"]
        assert reason is not None, "follower death not declared in 1 s"
        # Stale beats down: the last good epoch still answers.
        assert client.query(ip)["seq"] == good_seq
        assert client.hello()["seq"] == good_seq
        return reason

    def test_seq_gap_reaches_the_stats_op(
        self, following, replay_batches, capsys
    ):
        log_path, follower, client = following
        good = replay_batches[0]
        gap = DeltaBatch(good.seq + 2, good.day + 2, ())
        with open(log_path, "ab") as handle:
            handle.write(_member(_record_doc(gap)))
        ip = good.deltas[0].ip
        reason = self._declared_reason(client, good.seq, ip)
        assert "sequence gap" in reason
        assert follower._epochs.error == reason
        # ``repro serve --follow`` says so once, on stderr: the tail
        # thread's last act is the end hook.
        follower.stop()
        assert follower._thread is None
        err = capsys.readouterr().err
        assert err.count("follower stopped:") == 1
        assert reason in err and f"seq {good.seq}" in err

    def test_unreadable_log_reaches_the_stats_op(
        self, following, replay_batches, tmp_path
    ):
        """Not an ``UpdateLogError``: ``open()`` itself fails (here
        EISDIR; EACCES and EIO take the same path)."""
        log_path, follower, client = following
        good = replay_batches[0]
        (tmp_path / "blocker").mkdir()
        swap = tmp_path / "swap"
        swap.symlink_to(tmp_path / "blocker")
        os.replace(swap, log_path)
        ip = good.deltas[0].ip
        reason = self._declared_reason(client, good.seq, ip)
        assert "IsADirectoryError" in reason
        assert not follower._thread.is_alive()

    def test_list_id_the_codec_cannot_carry_reaches_the_stats_op(
        self, following, replay_batches
    ):
        """A delta naming a list id too long for a verdict record is
        refused where it enters — a declared stale state — not folded
        in to fail every binary frame that touches its address, the
        innocent neighbours in the frame included."""
        log_path, follower, client = following
        good = replay_batches[0]
        ip = good.deltas[0].ip
        poison = ListingDelta(
            good.day + 1, ip, "x" * 300, "add", good.day + 1, good.day + 9
        )
        bad = DeltaBatch(good.seq + 1, good.day + 1, (poison,))
        with open(log_path, "ab") as handle:
            handle.write(_member(_record_doc(bad)))
        reason = self._declared_reason(client, good.seq, ip)
        assert reason == (
            "ValueError: bad listing intervals: list id of 300 bytes "
            "exceeds the 255-byte limit"
        )
        assert client.codec == "binary"
        pairs = [(ip - 1, good.day + 1), (ip, good.day + 1)]
        neighbour, poisoned = client.query_batch(pairs)
        assert neighbour["ip"] == int_to_ip(ip - 1)
        assert poisoned == client.query(ip, good.day + 1)
        assert poisoned["seq"] == good.seq

    def test_damage_with_batches_behind_it_reaches_the_stats_op(
        self, following, replay_batches
    ):
        """A flipped byte inside a complete member is not a torn tail:
        taken for one, the follower would wait on it for ever with
        ``error`` None while valid batches sit behind the damage."""
        log_path, follower, client = following
        good = replay_batches[0]
        damaged = bytearray(_member(_record_doc(replay_batches[1])))
        damaged[len(damaged) // 2] ^= 0xFF
        at = log_path.stat().st_size
        with open(log_path, "ab") as handle:
            handle.write(
                bytes(damaged) + _member(_record_doc(replay_batches[2]))
            )
        reason = self._declared_reason(client, good.seq, good.deltas[0].ip)
        assert reason.startswith(
            f"UpdateLogError: corrupt record at byte {at}:"
        )
        assert follower._epochs.error == reason
        assert not follower._thread.is_alive()

    def test_clean_stop_declares_nothing(self, following, capsys):
        _, follower, client = following
        follower.stop()
        assert client.stats()["epoch"]["error"] is None
        assert capsys.readouterr().err == ""

    def test_a_stopped_follower_does_not_start_again(self, following):
        """Single-use, like a shard host: ``start()`` after ``stop()``
        used to spawn a thread that saw the stop flag and left at once
        — not following, and no ``error``."""
        _, follower, _ = following
        follower.stop()
        with pytest.raises(RuntimeError, match="was stopped"):
            follower.start()
        assert follower._thread is None
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
        self, cli_log, observed, start_day, replay_batches
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
