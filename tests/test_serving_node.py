"""The one serving assembly, :class:`repro.service.server.ServingNode`:
what ``repro serve`` and every shard worker run.

Two things are held here in tests rather than prose. The *thread
census*: a serving process is its main thread, plus
``repro-log-follower`` when it follows a log, and nothing else — no
parked main thread beside a daemon reactor, no watcher; ``repro
cluster``, auto-splitting included, is its main thread alone. And the
*drain*: SIGTERM and Ctrl-C mean the same thing to ``repro serve`` and
to a shard worker — every request a peer has already sent is answered,
the follower is stopped and joined, the exit code is 0.
"""

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster import ShardProcess, ShardRange
from repro.net.family import V4
from repro.net.ipv4 import MAX_IPV4
from repro.service.client import ReputationClient
from repro.service.server import ServingNode
from repro.service.wire import CODECS
from repro.stream.log import write_update_log
from tests.conftest import wait_for_seq
from tests.test_service_binary import _binary_socket

SRC = Path(__file__).resolve().parents[1] / "src"

#: One pipelined window: enough work that a signal sent right behind
#: it lands while requests are still unread or unanswered, small
#: enough to sit in the socket buffers without the peer reading.
WINDOW = 32
BATCH = 256


@pytest.fixture()
def log_path(tmp_path, replay_batches, start_day):
    return write_update_log(
        tmp_path / "updates.gz", replay_batches, start_day=start_day
    )


@pytest.fixture(params=["static", "following"])
def follow(request, log_path, start_day):
    """A node's (or shard host's) follow arguments, both ways."""
    if request.param == "static":
        return {}
    return {"follow": log_path, "start_day": start_day}


def _window_in_flight(address, listed, send_signal):
    """Send one pipelined window of packed batches, signal the server
    right behind it, then read until EOF: the request ids answered,
    in the order they came back."""
    codec = CODECS[V4]
    pairs = [(listed[i % len(listed)], None) for i in range(BATCH)]
    with _binary_socket(address) as (sock, frames):
        sock.sendall(
            b"".join(
                codec.encode_batch_request(pairs, rid)
                for rid in range(1, WINDOW + 1)
            )
        )
        send_signal()
        answered = []
        while True:
            frame = frames.read(binary=True)
            if frame is None:
                return answered
            ftype, rid, payload = frame
            assert ftype == codec.ft_reply
            assert len(codec.decode_batch_reply(payload)) == BATCH
            answered.append(rid)


class TestInProcessCensus:
    def test_serve_forever_adds_only_the_follower(
        self, base_index, follow, replay_batches
    ):
        before = set(threading.enumerate())
        node = ServingNode(base_index, **follow)
        assert set(threading.enumerate()) == before  # binding starts none
        runner = threading.Thread(target=node.serve_forever)
        runner.start()
        try:
            with ReputationClient(*node.address) as client:
                assert client.hello()["streaming"] is bool(follow)
                added = set(threading.enumerate()) - before - {runner}
                assert sorted(t.name for t in added) == (
                    ["repro-log-follower"] if follow else []
                )
        finally:
            node.request_stop()
            runner.join(10.0)
        assert not runner.is_alive()
        # The follower was joined before serve_forever returned.
        assert set(threading.enumerate()) <= before

    def test_stop_requested_before_the_loop_runs(self, base_index, follow):
        node = ServingNode(base_index, **follow)
        node.request_stop()
        runner = threading.Thread(target=node.serve_forever)
        runner.start()
        runner.join(10.0)
        assert not runner.is_alive()


class TestEpochDay:
    def test_a_log_from_day_0_reports_day_0(self, base_index, tmp_path):
        """Epoch 0 of a log that starts on day 0 is on day 0, not on
        the index's default day."""
        log = write_update_log(tmp_path / "day0.gz", [], start_day=0)
        node = ServingNode(base_index, follow=log, start_day=0)
        runner = threading.Thread(target=node.serve_forever)
        runner.start()
        try:
            with ReputationClient(*node.address) as client:
                assert client.stats()["epoch"]["day"] == 0
        finally:
            node.request_stop()
            runner.join(10.0)


class TestWorkerProcess:
    """A forked shard worker serves from its main thread."""

    @pytest.fixture()
    def shard(self, base_index, follow):
        shard = ShardProcess(
            base_index, 0, ShardRange(0, MAX_IPV4), **follow
        )
        shard.start()
        yield shard
        shard.stop()

    def test_os_thread_census(self, shard, follow, replay_batches):
        # Answered over the wire, so the loop (and the follower) runs.
        seq = replay_batches[-1].seq if follow else 0
        assert wait_for_seq([shard.address], seq)
        with ReputationClient(*shard.address) as client:
            assert client.hello()["seq"] == seq
        tasks = os.listdir(f"/proc/{shard.pid}/task")
        assert len(tasks) == (2 if follow else 1)

    def test_sigterm_mid_window_answers_the_window(self, shard, listed_ips):
        pid = shard.pid
        answered = _window_in_flight(
            shard.address, listed_ips, lambda: os.kill(pid, signal.SIGTERM)
        )
        assert answered == list(range(1, WINDOW + 1))
        shard.stop()
        assert shard.exitcode == 0


class TestServeCommand:
    """``repro serve --follow`` as a real process: SIGTERM and Ctrl-C
    both drain it."""

    @pytest.fixture(scope="class")
    def cli_log(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("run-cache")
        out = tmp_path_factory.mktemp("stream") / "updates.gz"
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("RESULTS_CACHE_DIR", str(cache))
            assert main(["stream", "--out", str(out)]) == 0
        return cache, out

    @pytest.mark.parametrize(
        "signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"]
    )
    def test_signal_mid_window_drains(
        self, cli_log, listed_ips, replay_batches, signum
    ):
        cache, log = cli_log
        env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONUNBUFFERED="1",
            RESULTS_CACHE_DIR=str(cache),
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--follow", str(log), "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            while line and not line.startswith("serving on "):
                line = proc.stdout.readline()
            assert line, proc.stderr.read()
            host, port = line.split()[2].rsplit(":", 1)
            address = (host, int(port))
            # The follower catches up on the whole log first.
            assert wait_for_seq([address], replay_batches[-1].seq)
            tasks = os.listdir(f"/proc/{proc.pid}/task")
            assert len(tasks) == 2  # main thread + repro-log-follower
            answered = _window_in_flight(
                address, listed_ips, lambda: proc.send_signal(signum)
            )
            out, err = proc.communicate(timeout=20.0)
        finally:
            proc.kill()
            proc.wait()
        assert answered == list(range(1, WINDOW + 1))
        assert proc.returncode == 0
        assert out.endswith("shutting down\n")
        assert out.count("epoch ") == len(replay_batches)
        assert err == ""


class TestClusterCommand:
    """``repro cluster --auto-split`` as a real process: one OS thread
    while it serves — the splitter is a timer on the router's loop —
    and SIGTERM drains it, workers included."""

    def test_one_thread_and_sigterm_stops_every_worker(self, tmp_path):
        env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONUNBUFFERED="1",
            RESULTS_CACHE_DIR=str(tmp_path),
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "cluster", "--auto-split",
             "--shards", "2", "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        workers = []
        try:
            line = proc.stdout.readline()
            while line and not line.startswith("cluster serving on "):
                if line.startswith("shard "):
                    workers.append(int(line.split("pid=")[1].split()[0]))
                line = proc.stdout.readline()
            assert line, proc.stderr.read()
            assert len(workers) == 2
            host, port = line.split()[3].rsplit(":", 1)
            with ReputationClient(host, int(port)) as client:
                assert client.hello()["cluster"]["shards"] == 2
            assert len(os.listdir(f"/proc/{proc.pid}/task")) == 1
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30.0)
        finally:
            proc.kill()
            proc.wait()
            alive = []
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                    alive.append(pid)
                except ProcessLookupError:
                    pass
        assert not alive, "workers outlived the router"
        assert proc.returncode == 0, err
        assert out.endswith("shutting down\n")
