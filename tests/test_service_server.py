"""Server/client tests: TCP end-to-end fidelity, hostile peers,
concurrency, graceful shutdown, and the CLI front end."""

import gc
import os
import socket
import struct
import threading
import warnings

import pytest

from repro.cli import main
from repro.net.ipv4 import int_to_ip
from repro.service.client import ReputationClient, ServiceError
from repro.service.engine import QueryEngine
from repro.service.server import ReputationServer
from repro.service.wire import (
    MAX_FRAME_BYTES, FrameReader, decode_msg_payload, encode_frame,
    encode_msg_frame,
)


@pytest.fixture()
def server(index):
    srv = ReputationServer(QueryEngine(index), connection_timeout=5.0)
    srv.start()
    yield srv
    srv.shutdown()


@pytest.fixture()
def client(server):
    host, port = server.address
    with ReputationClient(host, port) as c:
        yield c


def _raw_connection(server):
    return socket.create_connection(server.address, timeout=5.0)


class TestEndToEnd:
    def test_over_wire_matches_batch_analysis(
        self, small_full_run, server, client
    ):
        """The acceptance demo as a test: every blocklisted IP's
        over-the-wire verdict equals the batch ReuseAnalysis."""
        analysis = small_full_run.analysis
        days = [start for start, _ in analysis.windows] + [
            end for _, end in analysis.windows
        ]
        ips = sorted(analysis.blocklisted_ips)
        for day in days:
            verdicts = client.query_batch([(ip, day) for ip in ips])
            assert len(verdicts) == len(ips)
            for ip, verdict in zip(ips, verdicts):
                expected_lists = sorted(
                    {
                        l.list_id
                        for l in analysis.observed.listings_active_on(
                            ip, day
                        )
                    }
                )
                assert verdict["ip"] == int_to_ip(ip)
                assert verdict["lists"] == expected_lists
                assert verdict["listed"] == bool(expected_lists)
                assert verdict["nated"] == (ip in analysis.nated_ips)
                assert verdict["unjust"] == (
                    bool(expected_lists) and analysis.is_reused(ip)
                )
                assert verdict["action"] in ("block", "greylist", "ignore")
                if not expected_lists:
                    assert verdict["action"] == "ignore"

    def test_ping_and_stats(self, client):
        assert client.ping() is True
        stats = client.stats()
        assert stats["index"]["ips"] > 0
        assert "queries" in stats and "cache" in stats

    def test_a_raising_callback_is_counted_in_stats(self, server, client):
        """The loop serves on past a raising ``call_soon`` and timer,
        and ``stats`` counts them and names the last one's cause."""
        reactor = server.reactor
        reactor.call_soon(lambda: 1 / 0)
        reactor.run_sync(lambda: reactor.call_later(0.0, lambda: {}["timer"]))
        assert client.ping() is True  # the timer runs before its reply leaves
        assert client.stats()["loop"] == {
            "callback_errors": 2, "callback_error": "internal error: 'timer'",
            "accept_errors": 0, "closes": {},
        }

    def test_point_query_accepts_dotted_quad_and_int(
        self, small_full_run, client
    ):
        ip = sorted(small_full_run.analysis.blocklisted_ips)[0]
        assert client.query(int_to_ip(ip), 230) == client.query(ip, 230)

    def test_sequential_requests_on_one_connection(self, client):
        for _ in range(20):
            assert client.ping()


class TestHostilePeers:
    def test_bad_request_shapes_get_error_replies(self, server):
        with _raw_connection(server) as sock:
            frames = FrameReader(sock)
            for request in (
                "not an object",
                {"op": "frobnicate"},
                {"op": "query"},
                {"op": "query", "ip": "999.1.2.3"},
                {"op": "query", "ip": True},
                {"op": "query", "ip": "1.2.3.4", "day": "tuesday"},
                {"op": "batch"},
                {"op": "batch", "queries": "nope"},
                {"op": "batch", "queries": [17]},
            ):
                sock.sendall(encode_frame(request))
                reply = frames.read()
                assert reply["ok"] is False
                assert reply["error"]
            # The connection is still healthy afterwards.
            sock.sendall(encode_frame({"op": "ping"}))
            assert frames.read()["result"] == "pong"

    def test_unparseable_json_keeps_connection(self, server):
        with _raw_connection(server) as sock:
            frames = FrameReader(sock)
            payload = b"{broken json"
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            reply = frames.read()
            assert reply["ok"] is False
            sock.sendall(encode_frame({"op": "ping"}))
            assert frames.read()["result"] == "pong"

    def test_hostile_peers_cannot_add_a_close_cause(self, server, client):
        """300 peers each break the framing their own way, a bad magic
        byte or an oversize declared length, and each is told so in band
        and then hung up on: every close counts under one fixed phrase."""
        for n in range(300):
            with _raw_connection(server) as sock:
                frames = FrameReader(sock)
                if n % 2:
                    sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + n))
                    assert "exceeds" in frames.read()["error"]
                    assert frames.read() is None
                    continue
                sock.sendall(encode_frame(
                    {"op": "hello", "accept_codecs": ["binary"]}
                ))
                frames.read()
                frame = encode_msg_frame({"op": "ping"}, 1)
                sock.sendall(bytes([n // 2]) + frame[1:])
                _, _, reply = frames.read(binary=True)
                assert "bad frame magic" in decode_msg_payload(reply)["error"]
                assert frames.read(binary=True) is None
        assert client.stats()["loop"]["closes"] == {"garbled frame": 300}

    def test_oversized_batch_rejected(self, server, client):
        with pytest.raises(ServiceError):
            client.query_batch([("1.2.3.4", 1)] * 10_001)


class TestConcurrency:
    def test_concurrent_clients_agree(self, small_full_run, server):
        analysis = small_full_run.analysis
        ips = sorted(analysis.blocklisted_ips)[:25]
        host, port = server.address
        reference = {}
        with ReputationClient(host, port) as c:
            for ip in ips:
                reference[ip] = c.query(ip, 230)
        failures = []

        def worker():
            try:
                with ReputationClient(host, port) as c:
                    for ip in ips:
                        if c.query(ip, 230) != reference[ip]:
                            failures.append(ip)
            except Exception as exc:  # pragma: no cover
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not failures
        assert not any(t.is_alive() for t in threads)

    def test_one_reactor_answers_a_thousand_live_clients(
        self, small_full_run, server
    ):
        """1,000 simultaneously connected clients, one point query
        each: every connection is opened and held first, then every
        request is written before any reply is read — so the event
        loop genuinely holds 1,000 live sockets with queued work,
        which a thread-per-connection design could not do at this fd
        budget. No clock: the claim is that all are answered."""
        clients = 1000
        ips = sorted(small_full_run.analysis.blocklisted_ips)
        requests = [
            {"op": "query", "ip": ips[i % len(ips)], "day": 230}
            for i in range(clients)
        ]
        socks = []
        try:
            for _ in range(clients):
                socks.append(
                    socket.create_connection(server.address, timeout=30.0)
                )
            for sock, request in zip(socks, requests):
                sock.sendall(encode_frame(request))
            replies = [FrameReader(sock).read() for sock in socks]
        finally:
            for sock in socks:
                sock.close()
        assert len(replies) == clients
        assert all(reply["ok"] for reply in replies)
        # Each client got the answer to *its* question.
        assert [reply["result"]["ip"] for reply in replies] == [
            int_to_ip(request["ip"]) for request in requests
        ]

    def test_graceful_shutdown(self, index):
        srv = ReputationServer(QueryEngine(index))
        host, port = srv.start()
        with ReputationClient(host, port) as c:
            assert c.ping()
        srv.shutdown()
        with pytest.raises(ServiceError):
            ReputationClient(host, port, timeout=0.5)

    def test_unstarted_server_releases_every_fd(self, index):
        """A server shut down before its loop ever ran releases its
        listener and its reactor's epoll fd and waker pair then, not
        at some later collection, where a test that turns
        ``ResourceWarning`` into an error would fail on them."""
        gc.collect()
        before = set(os.listdir("/proc/self/fd"))
        srv = ReputationServer(QueryEngine(index))
        srv.shutdown()
        assert set(os.listdir("/proc/self/fd")) == before
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            del srv
            gc.collect()
        assert [w for w in caught if w.category is ResourceWarning] == []


class TestCliQuery:
    def test_query_verdict_line(self, small_full_run, server, capsys):
        host, port = server.address
        ip = sorted(small_full_run.analysis.blocklisted_ips)[0]
        code = main(
            [
                "query", int_to_ip(ip),
                "--day", "230",
                "--host", host,
                "--port", str(port),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert int_to_ip(ip) in out
        assert "action=" in out and "day=230" in out

    def test_query_batch_and_json(self, small_full_run, server, capsys):
        host, port = server.address
        ips = [int_to_ip(ip) for ip in
               sorted(small_full_run.analysis.blocklisted_ips)[:3]]
        code = main(
            ["query", *ips, "--port", str(port), "--json"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        import json

        for line, ip_text in zip(lines, ips):
            assert json.loads(line)["ip"] == ip_text

    def test_query_stats(self, server, capsys):
        host, port = server.address
        assert main(["query", "--stats", "--port", str(port)]) == 0
        assert '"index"' in capsys.readouterr().out

    def test_query_no_ips_is_error(self, server, capsys):
        host, port = server.address
        assert main(["query", "--port", str(port)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_query_bad_address_is_error(self, server, capsys):
        host, port = server.address
        assert main(
            ["query", "not-an-ip", "--port", str(port)]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_query_unreachable_server_is_error(self, capsys):
        # Bind-then-close to find a port that refuses connections.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        assert main(["query", "1.2.3.4", "--port", str(free_port)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_query_bad_port_is_error(self, capsys):
        assert main(["query", "1.2.3.4", "--port", "99999"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCliServe:
    def test_serve_bad_port_is_error(self, capsys):
        assert main(["serve", "--port", "-5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_unreadable_snapshot_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"not a snapshot")
        assert main(
            ["serve", "--snapshot", str(bad), "--port", "0"]
        ) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "cluster"])
    def test_v1_pickle_snapshot_is_one_line_not_a_traceback(
        self, command, tmp_path, capsys
    ):
        import gzip

        old = tmp_path / "v1.idx"
        with gzip.open(old, "wb") as handle:
            handle.write(b"a version-1 file held a pickle here")
        assert main([command, "--snapshot", str(old), "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "delete it" in err
        assert f"repro serve --snapshot {old}" in err

    def test_serve_bad_preset_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["serve", "--preset", "galactic"])
