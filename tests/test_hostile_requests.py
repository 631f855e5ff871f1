"""Hostile packed request frames, at a server and at a router.

A door reads a packed frame's request records without decoding them:
the server looks each one up as it came and decodes only the misses,
the router checks every ``has_day`` byte once and forwards the records
as they came. So what a peer does to a frame must still get one answer
from both: the same reply bytes, or the same in-band error, from a
:class:`ReputationServer` and from a three-shard router over the same
index. And a frame that declares more than ``MAX_BATCH`` queries is
refused from its count alone, before any record is sliced or decoded.
"""

import struct
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.cluster import LocalCluster
from repro.net.family import V4
from repro.service.engine import QueryEngine
from repro.service.server import MAX_BATCH, ReputationServer
from repro.service.wire import (
    CODECS,
    FT_MSG,
    MAX_FRAME_BYTES,
    decode_binary_frame,
    decode_msg_payload,
    encode_binary_frame,
)
from tests.test_service_binary import _binary_socket

CODEC = CODECS[V4]

#: A request record: address (4 bytes), ``has_day`` (1), day (4).
RECORD = 9


@pytest.fixture(scope="module")
def doors(index):
    """The addresses of a server and of a three-shard router, both over
    ``index``."""
    with LocalCluster(index, shards=3) as cluster:
        assert cluster.router.wait_healthy(10.0)
        with ReputationServer(QueryEngine(index)) as server:
            server.start()
            yield {"direct": server.address, "routed": cluster.address}


def _answer(address, payload):
    """``payload`` as one packed request frame, on a fresh binary
    connection (a reply that never came leaves none out of step): the
    reply's type and payload bytes."""
    with _binary_socket(address) as (sock, frames):
        sock.settimeout(2.0)
        sock.sendall(encode_binary_frame(CODEC.ft_request, 5, payload))
        ftype, rid, reply = frames.read(binary=True)
    assert rid == 5
    return ftype, reply


def _pairs(index):
    listed = sorted(ip for ip, _spans in index.interval_items())
    days = [day for first, last in index.windows for day in (first, last)]
    address = st.sampled_from(listed) | st.integers(0, V4.max_int)
    day = st.none() | st.sampled_from(days) | st.integers(-2**31, 2**31 - 1)
    return st.lists(st.tuples(address, day), max_size=12)


@st.composite
def _frames(draw, pairs):
    """A valid frame's payload, or one with a single byte of its count,
    of a ``has_day`` byte or of its length changed."""
    payload = bytearray(decode_binary_frame(
        CODEC.encode_batch_request(draw(pairs), 1)
    )[2])
    count = len(payload) // RECORD
    where = draw(st.sampled_from(
        ["none", "count", "length"] + (["has_day"] if count else [])
    ))
    if where == "count":
        payload[draw(st.integers(0, 3))] = draw(st.integers(0, 255))
    elif where == "has_day":
        at = 4 + RECORD * draw(st.integers(0, count - 1)) + 4
        payload[at] = draw(st.integers(0, 255))
    elif where == "length":
        if draw(st.booleans()) and payload:
            del payload[-1]
        else:
            payload.append(draw(st.integers(0, 255)))
    return where, bytes(payload)


def test_a_server_and_a_router_answer_a_hostile_frame_alike(index, doors):
    # No shrinking: every example is two round trips, and a door that
    # does not answer costs a socket timeout.
    @settings(
        max_examples=150,
        deadline=None,
        phases=[Phase.explicit, Phase.reuse, Phase.generate],
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(_frames(_pairs(index)))
    def check(case):
        where, payload = case
        direct = _answer(doors["direct"], payload)
        assert _answer(doors["routed"], payload) == direct
        ftype, reply = direct
        flags = payload[8::RECORD] if len(payload) % RECORD == 4 else b""
        if where == "none" or (where == "has_day" and max(flags) <= 1):
            assert ftype == CODEC.ft_reply
        elif where == "has_day":
            assert ftype == FT_MSG
            assert "bad has_day flag" in decode_msg_payload(reply)["error"]

    check()


@pytest.mark.parametrize("door", ["direct", "routed"])
def test_an_oversized_frame_is_refused_from_its_count(
    doors, door, monkeypatch
):
    """A maximal frame: 1 MiB of request records, 116,508 of them."""
    count = (MAX_FRAME_BYTES - 4) // RECORD
    payload = struct.pack(">I", count) + bytes(RECORD * count)
    assert len(payload) == MAX_FRAME_BYTES

    def refuse(*_args):
        raise AssertionError("a record of an oversized frame was read")

    monkeypatch.setattr(CODEC, "_raw_request", SimpleNamespace(
        iter_unpack=refuse
    ))
    monkeypatch.setattr(CODEC, "check_requests", refuse)
    monkeypatch.setattr(CODEC, "decode_requests", refuse)
    ftype, reply = _answer(doors[door], payload)
    assert ftype == FT_MSG
    assert decode_msg_payload(reply) == {
        "ok": False,
        "error": f"batch of {count} exceeds the {MAX_BATCH}-query limit",
    }
