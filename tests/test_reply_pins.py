"""Every op's replies, pinned byte for byte.

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

``tests/data/op_replies.json`` holds, the same way, what commit
``2ed4fbd`` sent back for the rest of the op surface: ``ping``,
``hello`` without ``accept_codecs`` and offering only ``json``, an
unknown op, a request that is not an object, a ``batch`` without
``queries``, one over ``MAX_BATCH``, and — on the binary codec only —
an IPv6 packed batch at an IPv4 door, whose error names the door
(``index`` or ``cluster``). To regenerate (only ever against that
commit), as above with ``2ed4fbd`` and ``python -m
tests.test_reply_pins ops``.
"""

import json
import socket
import struct
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple


from repro.cluster import LocalCluster
from repro.net.family import V4, V6
from repro.service.engine import QueryEngine
from repro.service.index import ReputationIndex
from repro.service.server import MAX_BATCH, ReputationServer
from repro.service.wire import (
    CODECS,
    FT_MSG,
    encode_frame,
    encode_msg_frame,
)
from tests.test_service_binary import _binary_socket

FIXTURE = Path(__file__).with_name("data") / "json_replies.json"
OPS_FIXTURE = Path(__file__).with_name("data") / "op_replies.json"

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


def _exchange(
    address, json_frame: Optional[bytes], binary_frame: bytes
) -> Tuple[Optional[bytes], Tuple[int, bytes]]:
    """``json_frame`` sent on a fresh JSON connection (unless ``None``)
    and ``binary_frame`` (request id 3) on a fresh binary one: the JSON
    reply's payload, and the binary reply's ``(type, payload)``."""
    json_payload = None
    if json_frame is not None:
        with socket.create_connection(address, timeout=10.0) as sock:
            sock.sendall(json_frame)
            json_payload = _json_payload(sock)
    with _binary_socket(address) as (sock, frames):
        sock.settimeout(10.0)
        sock.sendall(binary_frame)
        ftype, rid, payload = frames.read(binary=True)
        assert rid == 3
    return json_payload, (ftype, payload)


def _replies(address, request) -> Tuple[bytes, Tuple[int, bytes]]:
    """``request`` on both codecs (see :func:`_exchange`)."""
    return _exchange(address, encode_frame(request), encode_msg_frame(request, 3))


def _op_requests() -> Iterator[Tuple[str, Optional[bytes], bytes]]:
    """The op-surface cases: name, JSON-codec frame, binary frame."""
    requests = {
        "ping": {"op": "ping"},
        "hello": {"op": "hello"},
        "hello-json-only": {"op": "hello", "accept_codecs": ["json"]},
        "unknown-op": {"op": "frobnicate"},
        "not-an-object": ["op", "ping"],
        "batch-without-queries": {"op": "batch"},
        "batch-over-limit": {
            "op": "batch", "queries": [{"ip": 1}] * (MAX_BATCH + 1)
        },
    }
    for name, request in requests.items():
        yield name, encode_frame(request), encode_msg_frame(request, 3)
    yield "v6-packed-batch", None, CODECS[V6].encode_batch_request([(1, 5)], 3)


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


def _small_index() -> ReputationIndex:
    from repro.experiments.runner import RunConfig, run_full

    return ReputationIndex.from_run(run_full(RunConfig.small(2020)))


def _recorded(json_payload, ftype, payload) -> Dict[str, Any]:
    return {
        "json": None if json_payload is None else json_payload.hex(),
        "binary": {"ftype": ftype, "payload": payload.hex()},
    }


def record() -> List[Dict[str, Any]]:
    index = _small_index()
    cases = []

    def take(shape, address, requests):
        for name, request in requests:
            json_payload, (ftype, payload) = _replies(address, request)
            cases.append({
                "shape": shape,
                "name": name,
                "request": request,
                **_recorded(json_payload, ftype, payload),
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


def record_ops() -> List[Dict[str, Any]]:
    index = _small_index()
    cases = []

    def take(shape, address):
        for name, json_frame, binary_frame in _op_requests():
            json_payload, (ftype, payload) = _exchange(
                address, json_frame, binary_frame
            )
            cases.append({
                "shape": shape,
                "name": name,
                **_recorded(json_payload, ftype, payload),
            })

    with ReputationServer(QueryEngine(index)) as direct:
        direct.start()
        take("direct", direct.address)
    with LocalCluster(index, shards=3) as cluster:
        assert cluster.router.wait_healthy(10.0)
        take("routed", cluster.address)
    return cases


def _load(path: Path) -> List[Dict[str, Any]]:
    return json.loads(path.read_text())["cases"] if path.exists() else []


CASES = _load(FIXTURE)
OP_CASES = _load(OPS_FIXTURE)


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


def _check_ops(address, shape):
    cases = {case["name"]: case for case in OP_CASES if case["shape"] == shape}
    requests = list(_op_requests())
    assert sorted(cases) == sorted(name for name, *_ in requests), shape
    for name, json_frame, binary_frame in requests:
        json_payload, (ftype, payload) = _exchange(
            address, json_frame, binary_frame
        )
        got = _recorded(json_payload, ftype, payload)
        assert got == {key: cases[name][key] for key in got}, name


class TestOpReplyPins:
    def test_direct(self, index):
        with ReputationServer(QueryEngine(index)) as server:
            server.start()
            _check_ops(server.address, "direct")

    def test_routed(self, index):
        with LocalCluster(index, shards=3) as cluster:
            assert cluster.router.wait_healthy(10.0)
            _check_ops(cluster.address, "routed")


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
    ops = sys.argv[1:] == ["ops"]
    target = OPS_FIXTURE if ops else FIXTURE
    target.parent.mkdir(exist_ok=True)
    lines = ",\n".join(
        json.dumps(case, sort_keys=True, separators=(",", ":"))
        for case in (record_ops() if ops else record())
    )
    target.write_text('{"cases":[\n' + lines + "\n]}\n")
    print(f"wrote {target}")
