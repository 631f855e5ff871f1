"""The JSON ``query`` and ``batch`` ops' replies, pinned byte for byte.

``tests/data/json_replies.json`` holds what commit ``ab6f93c`` sent back
for each request below, on both codecs, from a single server
(``direct``) and from a three-shard router (``routed``): the payload of
the JSON-codec frame (after its length prefix), and the type and
payload of the binary-codec frame. The cases are a listed verdict, an
unlisted one, one on the default day (no ``day`` key), a day outside
i32, all four in one batch, and — routed, one shard killed — degraded
batch entries beside a live shard's verdict.

The recording is the reference, not a second server. One thing that
commit got wrong is not pinned: its router answered a JSON ``batch``
op on a binary connection with a packed batch-reply frame where every
shard had answered packed. Such a case is recorded with that frame
type, and the reply it is held to is an ``FT_MSG`` frame carrying the
same payload as the JSON codec's — which is what ``FT_MSG`` is.

To regenerate (only ever against that commit)::

    git archive ab6f93c src tests | tar -x -C /tmp/parent
    cd /tmp/parent && PYTHONPATH=src python -m tests.test_reply_pins
"""

import json
import socket
import struct
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import pytest

from repro.cluster import LocalCluster
from repro.net.family import V4
from repro.service.engine import QueryEngine
from repro.service.index import ReputationIndex
from repro.service.server import ReputationServer
from repro.service.wire import (
    FT_MSG,
    encode_msg_frame,
    recv_binary_frame,
    send_frame,
)
from tests.test_service_binary import _binary_socket

FIXTURE = Path(__file__).with_name("data") / "json_replies.json"

#: A day no packed record can carry.
WIDE_DAY = 2**40


def _json_payload(sock: socket.socket) -> bytes:
    """The next JSON-codec frame's payload, as raw bytes."""
    (length,) = struct.unpack(">I", _exactly(sock, 4))
    return _exactly(sock, length)


def _exactly(sock: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        assert chunk, "connection closed mid-frame"
        data += chunk
    return data


def _replies(address, request) -> Tuple[bytes, Tuple[int, bytes]]:
    """``request`` sent on a fresh JSON connection and a fresh binary
    one: the JSON payload, and the binary reply's ``(type, payload)``."""
    with socket.create_connection(address, timeout=10.0) as sock:
        send_frame(sock, request)
        json_payload = _json_payload(sock)
    with _binary_socket(address) as sock:
        sock.settimeout(10.0)
        sock.sendall(encode_msg_frame(request, 3))
        ftype, rid, payload = recv_binary_frame(sock)
        assert rid == 3
    return json_payload, (ftype, payload)


def _ops(name: str, queries: List[Dict[str, Any]]) -> Iterator[Tuple[str, Dict]]:
    if len(queries) == 1:
        yield f"query-{name}", {"op": "query", **queries[0]}
    yield f"batch-{name}", {"op": "batch", "queries": queries}


def _requests(index: ReputationIndex, shard_of) -> Dict[str, List]:
    """The recorded requests, chosen from ``index``: a listed reused
    address, an unlisted address on another shard."""
    engine = QueryEngine(index)
    listed, day = next(
        (ip, spans[0][0])
        for ip, spans in index.interval_items()
        if engine.query(ip, spans[0][0]).unjust
    )
    unlisted = next(
        ip
        for ip in range(0x01000000, V4.max_int, 0x00FFFFFF)
        if shard_of(ip) != shard_of(listed) and not engine.query(ip).listed
    )
    text = V4.format
    cases = {
        "listed": [{"ip": text(listed), "day": day}],
        "unlisted": [{"ip": text(unlisted), "day": day}],
        "default-day": [{"ip": text(listed)}],
        "wide-day": [{"ip": text(listed), "day": WIDE_DAY}],
    }
    cases["mixed"] = [query for (query,) in cases.values()]
    live = [{"ip": text(unlisted), "day": day}]
    down = [
        {"ip": text(listed), "day": day},
        {"ip": text(listed)},
        {"ip": text(listed), "day": WIDE_DAY},
    ]
    return {
        "served": [op for name, q in cases.items() for op in _ops(name, q)],
        "degraded": list(_ops("degraded", down + live)),
        "down": shard_of(listed),
    }


def record() -> List[Dict[str, Any]]:
    from repro.experiments.runner import RunConfig, run_full

    index = ReputationIndex.from_run(run_full(RunConfig.small(2020)))
    cases = []

    def take(shape, address, requests):
        for name, request in requests:
            json_payload, (ftype, payload) = _replies(address, request)
            cases.append({
                "shape": shape,
                "name": name,
                "request": request,
                "json": json_payload.hex(),
                "binary": {"ftype": ftype, "payload": payload.hex()},
            })

    with LocalCluster(index, shards=3) as cluster:
        assert cluster.router.wait_healthy(10.0)
        requests = _requests(index, cluster.partition.shard_of)
        with ReputationServer(QueryEngine(index)) as direct:
            direct.start()
            take("direct", direct.address, requests["served"])
        take("routed", cluster.address, requests["served"])
        cluster.kill_primary(requests["down"])
        take("routed-shard-down", cluster.address, requests["degraded"])
    return cases


CASES = json.loads(FIXTURE.read_text())["cases"] if FIXTURE.exists() else []


def _check(address, shape):
    cases = [case for case in CASES if case["shape"] == shape]
    assert cases, f"no recorded {shape} case"
    for case in cases:
        json_payload, (ftype, payload) = _replies(address, case["request"])
        assert json_payload.hex() == case["json"], case["name"]
        pinned = case["binary"]
        if pinned["ftype"] != FT_MSG:
            # The recorded router's packed answer to a JSON op: held to
            # the FT_MSG reply a JSON op gets, the JSON codec's payload.
            pinned = {"ftype": FT_MSG, "payload": case["json"]}
        got = {"ftype": ftype, "payload": payload.hex()}
        assert got == pinned, case["name"]


@pytest.fixture(scope="module")
def index(small_full_run):
    return ReputationIndex.from_run(small_full_run)


class TestJsonReplyPins:
    def test_direct(self, index):
        with ReputationServer(QueryEngine(index)) as server:
            server.start()
            _check(server.address, "direct")

    def test_routed(self, index):
        with LocalCluster(index, shards=3) as cluster:
            assert cluster.router.wait_healthy(10.0)
            _check(cluster.address, "routed")
            (degraded,) = [
                case for case in CASES if case["shape"] == "routed-shard-down"
            ]
            down = degraded["request"]["queries"][0]["ip"]
            cluster.kill_primary(cluster.partition.shard_of(V4.parse(down)))
            _check(cluster.address, "routed-shard-down")


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = ",\n".join(
        json.dumps(case, sort_keys=True, separators=(",", ":"))
        for case in record()
    )
    FIXTURE.write_text('{"cases":[\n' + lines + "\n]}\n")
    print(f"wrote {FIXTURE}")
