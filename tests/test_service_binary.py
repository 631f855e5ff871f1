"""Binary wire codec: fuzzing, negotiation matrix, codec equality.

Three layers, mirroring the upgrade's compatibility promise:

* codec level — ``FT_MSG`` frames carry the JSON codec's payload byte
  for byte (same ``json_values`` corpus as
  :mod:`tests.test_service_wire`), the packed batch records round-trip,
  and hostile bytes fail as :class:`WireError`, never an unhandled
  crash;
* connection level — the ``hello`` negotiation matrix: a JSON-only
  client sees byte-identical replies from an upgraded server, an
  offering client gets the binary codec, and verdicts are
  field-for-field equal across codecs;
* fleet level — a router (whose upstream links are always binary)
  returns binary and JSON clients the same verdicts, degraded ones
  included;
* failure level — a client whose exchange ended in a transport error
  is closed, so a late reply is never read as a later answer.
"""

import json
import random
import socket
import struct
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.local import LocalCluster
from repro.core.policy import BlockAction
from repro.net.family import V4, V6
from repro.net.ipv4 import int_to_ip
from repro.service.aio import WireServer
from repro.service.client import (
    ReputationClient,
    ServiceError,
    TransportError,
    _int_pairs,
)
from repro.service.engine import QueryEngine
from repro.service import wire
from repro.service.server import ReputationServer
from repro.service.wire import (
    BIN_HEADER_SIZE,
    CODECS,
    FT_MSG,
    MAX_FRAME_BYTES,
    REQUEST_CODECS,
    FrameReader,
    WireError,
    decode_binary_frame,
    decode_frame,
    decode_msg_payload,
    encode_binary_frame,
    encode_frame,
    encode_msg_frame,
)
from tests import reply_view_fixtures
from tests.fake_peer import FakePeer, polite, verdict as _verdict
from tests.test_service_wire import FakeSocket, json_values

FAMILIES = (V4, V6)
both_families = pytest.mark.parametrize(
    "family", FAMILIES, ids=[family.name for family in FAMILIES]
)

#: One packed-batch test case: a family plus in-range pairs for it.
family_pairs = st.sampled_from(FAMILIES).flatmap(
    lambda family: st.tuples(
        st.just(family),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=family.max_int),
                st.none()
                | st.integers(min_value=-(2**31), max_value=2**31 - 1),
            ),
            max_size=50,
        ),
    )
)


class TestBinaryCodecRoundtrip:
    @settings(max_examples=150, deadline=None)
    @given(json_values)
    def test_msg_roundtrip_matches_json_model(self, value):
        """An FT_MSG frame carries exactly the JSON frame's payload —
        same corpus, same bytes after the header, same decoded value."""
        frame = encode_msg_frame(value, 7)
        json_frame = encode_frame(value)
        assert frame[BIN_HEADER_SIZE:] == json_frame[4:]
        decoded = decode_binary_frame(frame)
        assert decoded is not None
        ftype, rid, payload, consumed = decoded
        assert (ftype, rid, consumed) == (FT_MSG, 7, len(frame))
        assert decode_msg_payload(payload) == value
        assert decode_frame(json_frame) == (value, len(json_frame))

    @settings(max_examples=100, deadline=None)
    @given(family_pairs, st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_batch_request_roundtrip(self, case, rid):
        family, pairs = case
        codec = CODECS[family]
        frame = codec.encode_batch_request(pairs, rid)
        decoded = decode_binary_frame(frame)
        assert decoded is not None
        ftype, got_rid, payload, _ = decoded
        assert (ftype, got_rid) == (codec.ft_request, rid)
        assert codec.decode_batch_request(payload) == pairs

    def test_verdict_record_roundtrip_is_field_for_field(self):
        """The pinned cross-codec contract: a packed verdict decodes
        to exactly ``Verdict.to_wire()`` — every field, not a
        projection — in either family."""
        for family in FAMILIES:
            codec = CODECS[family]
            for verdict in (
                _verdict(family),
                _verdict(family, ip=family.max_int, listed=False,
                         lists=(), unjust=False, action="ignore",
                         reuse_kind=""),
                _verdict(family, ip=0, day=-3, users=0, asn=0,
                         epoch=0, seq=0, dynamic=True),
            ):
                record = codec.pack_verdict(verdict)
                assert codec.decode_record(record) == verdict.to_wire()

    def test_degraded_record_roundtrip(self):
        for family in FAMILIES:
            codec = CODECS[family]
            ip = family.max_int - 0x0A000001
            record = codec.pack_degraded(ip, 12, 2, "SHARD_UNAVAILABLE")
            assert codec.decode_record(record) == {
                "ip": family.format(ip),
                "day": 12,
                "error": "SHARD_UNAVAILABLE",
                "shard": 2,
            }
            record = codec.pack_degraded(1, None, 0, "SHARD_UNAVAILABLE")
            assert codec.decode_record(record)["day"] is None

    @both_families
    def test_overlong_error_text_is_cut_on_a_character_boundary(
        self, family
    ):
        """Regression: the 255-byte cap used to split a multi-byte
        character, and the peer then rejected the whole reply as
        undecodable."""
        codec = CODECS[family]
        record = codec.pack_degraded(1, None, 0, "é" * 200)
        assert codec.decode_record(record)["error"] == "é" * 127
        (entry,) = codec.decode_batch_reply(
            decode_binary_frame(codec.encode_batch_reply_frame([record], 1))[2]
        )
        assert entry["error"] == "é" * 127


#: Hex bytes captured from the pre-BinaryCodec twin functions; "wire
#: bytes unchanged" means these literals never move. Addresses per
#: family: a mid-range one, a small one, and the all-ones maximum.
WIRE_PINS = {
    V4: {
        "ips": (0x01020304, 0x0A000001, 0xFFFFFFFF),
        "request": (
            "b101000000070000001f000000030102030401000000110a00000100"
            "00000000ffffffff01fffffffd"
        ),
        "verdict_two_lists": (
            "0001020304000000110b0101000000250000fbf40000000300000000"
            "00000029020b646e73626c2d616c7068610a646e73626c2d62657461"
        ),
        "verdict_no_lists": (
            "00fffffffffffffffd00000000000000000000000000000000000000"
            "0000000000"
        ),
        "degraded_day": (
            "010a000001010000000c000000021153484152445f554e415641494c"
            "41424c45"
        ),
        "degraded_no_day": (
            "01ffffffff0000000000000000001153484152445f554e415641494c"
            "41424c45"
        ),
        "reply": (
            "b10200000009000000450000000200fffffffffffffffd0000000000"
            "00000000000000000000000000000000000000010a00000101000000"
            "0c000000021153484152445f554e415641494c41424c45"
        ),
    },
    V6: {
        "ips": ((0x20010DB8 << 96) | 0x1234, 1, (1 << 128) - 1),
        "request": (
            "b10300000007000000430000000320010db800000000000000000000"
            "1234010000001100000000000000000000000000000001000000000"
            "0ffffffffffffffffffffffffffffffff01fffffffd"
        ),
        "verdict_two_lists": (
            "0020010db8000000000000000000001234000000110b010100000025"
            "0000fbf4000000030000000000000029020b646e73626c2d616c7068"
            "610a646e73626c2d62657461"
        ),
        "verdict_no_lists": (
            "00fffffffffffffffffffffffffffffffffffffffd00000000000000"
            "0000000000000000000000000000000000"
        ),
        "degraded_day": (
            "0100000000000000000000000000000001010000000c000000021153"
            "484152445f554e415641494c41424c45"
        ),
        "degraded_no_day": (
            "01ffffffffffffffffffffffffffffffff0000000000000000001153"
            "484152445f554e415641494c41424c45"
        ),
        "reply": (
            "b104000000090000005d0000000200ffffffffffffffffffffffffff"
            "fffffffffffffd000000000000000000000000000000000000000000"
            "0000000100000000000000000000000000000001010000000c000000"
            "021153484152445f554e415641494c41424c45"
        ),
    },
}


#: ``{"op":"ping"}`` as a JSON frame and as an FT_MSG request with
#: request id 5, and the FT_MSG reply carrying ``_verdict().to_wire()``
#: with request id 9.
JSON_PING_PIN = "0000000d7b226f70223a2270696e67227d"
MSG_PING_PIN = "b100000000050000000d7b226f70223a2270696e67227d"
MSG_VERDICT_REPLY_PIN = (
    "b10000000009000000dd7b226f6b223a747275652c22726573756c74"
    "223a7b226970223a22312e322e332e34222c22646179223a31372c22"
    "6c6973746564223a747275652c226c69737473223a5b22646e73626c"
    "2d616c706861222c22646e73626c2d62657461225d2c226e61746564"
    "223a747275652c2264796e616d6963223a66616c73652c22756e6a75"
    "7374223a747275652c2272657573655f6b696e64223a226e6174222c"
    "227573657273223a33372c2261736e223a36343530302c2261637469"
    "6f6e223a22677265796c697374222c2265706f6368223a332c227365"
    "71223a34317d7d"
)

#: A legal-length payload nested far past the interpreter's recursion
#: limit: ``json.loads`` raises RecursionError on it, not ValueError.
DEEP_PAYLOAD = b"[" * 200_000

#: ``{"op":"ping"}`` in the tagged value encoding FT_MSG carried before
#: it carried JSON — what a peer from the other side of that change
#: sends.
OLD_TAGGED_PING = bytes.fromhex("090000000106026f70060470696e67")


class TestWireBytePins:
    @both_families
    def test_packed_batch_bytes_are_pinned(self, family):
        codec = CODECS[family]
        pins = WIRE_PINS[family]
        mid, small, top = pins["ips"]
        request = codec.encode_batch_request(
            [(mid, 17), (small, None), (top, -3)], 7
        )
        assert request.hex() == pins["request"]
        two_lists = codec.pack_verdict(_verdict(family, ip=mid))
        assert two_lists.hex() == pins["verdict_two_lists"]
        no_lists = codec.pack_verdict(
            _verdict(family, ip=top, day=-3, listed=False, lists=(),
                     nated=False, unjust=False, reuse_kind="", users=0,
                     asn=0, action="ignore", epoch=0, seq=0)
        )
        assert no_lists.hex() == pins["verdict_no_lists"]
        with_day = codec.pack_degraded(small, 12, 2, "SHARD_UNAVAILABLE")
        assert with_day.hex() == pins["degraded_day"]
        no_day = codec.pack_degraded(top, None, 0, "SHARD_UNAVAILABLE")
        assert no_day.hex() == pins["degraded_no_day"]
        reply = codec.encode_batch_reply_frame([no_lists, with_day], 9)
        assert reply.hex() == pins["reply"]

    @both_families
    def test_pinned_frames_decode_to_their_inputs(self, family):
        """The decode direction of the same pins, through the lookups
        each receiving side uses."""
        codec = CODECS[family]
        pins = WIRE_PINS[family]
        mid, small, top = pins["ips"]
        ftype, rid, payload, _ = decode_binary_frame(
            bytes.fromhex(pins["request"])
        )
        assert REQUEST_CODECS[ftype] is codec and rid == 7
        assert codec.decode_batch_request(payload) == [
            (mid, 17), (small, None), (top, -3)
        ]
        ftype, rid, payload, _ = decode_binary_frame(
            bytes.fromhex(pins["reply"])
        )
        assert (ftype, rid) == (codec.ft_reply, 9)
        assert [r.hex() for r in codec.split_batch_reply(payload)] == [
            pins["verdict_no_lists"], pins["degraded_day"]
        ]
        verdict, degraded = codec.decode_batch_reply(payload)
        assert verdict["ip"] == family.format(top)
        assert (verdict["listed"], verdict["lists"]) == (False, [])
        assert degraded == {
            "ip": family.format(small),
            "day": 12,
            "error": "SHARD_UNAVAILABLE",
            "shard": 2,
        }

    def test_action_codes_cover_the_policy(self):
        """A fourth action cannot join the policy and fail to pack."""
        assert sorted(wire._ACTION_TO_CODE) == sorted(
            v for k, v in vars(BlockAction).items()
            if k.isupper() and isinstance(v, str)
        )

    def test_json_frame_bytes_are_pinned(self):
        """The JSON codec is the cross-version contract: 4-byte length,
        compact separators, key order as given."""
        assert encode_frame({"op": "ping"}).hex() == JSON_PING_PIN
        frame = bytes.fromhex(JSON_PING_PIN)
        assert decode_frame(frame) == ({"op": "ping"}, len(frame))

    def test_msg_frame_bytes_are_pinned(self):
        """FT_MSG: the 10-byte binary header, then the JSON payload."""
        request = encode_msg_frame({"op": "ping"}, 5)
        assert request.hex() == MSG_PING_PIN
        reply = encode_msg_frame(
            {"ok": True, "result": _verdict().to_wire()}, 9
        )
        assert reply.hex() == MSG_VERDICT_REPLY_PIN
        ftype, rid, payload, _ = decode_binary_frame(
            bytes.fromhex(MSG_VERDICT_REPLY_PIN)
        )
        assert (ftype, rid) == (FT_MSG, 9)
        assert decode_msg_payload(payload) == {
            "ok": True, "result": _verdict().to_wire()
        }


class TestPackedBatchRejections:
    """Every malformed packed payload is a *recoverable* WireError in
    either family — the frame boundary held, the stream stays usable."""

    @both_families
    def test_truncated_or_padded_request_rejected(self, family):
        codec = CODECS[family]
        payload = decode_binary_frame(
            codec.encode_batch_request([(1, 5), (2, None)], 1)
        )[2]
        for bad in (payload[:-1], payload + b"\x00", payload[:3]):
            with pytest.raises(WireError) as excinfo:
                codec.decode_batch_request(bad)
            assert excinfo.value.recoverable

    @both_families
    def test_bad_has_day_flag_rejected(self, family):
        codec = CODECS[family]
        payload = bytearray(
            decode_binary_frame(codec.encode_batch_request([(1, 5)], 1))[2]
        )
        payload[4 + family.bits // 8] = 2  # the has_day byte
        with pytest.raises(WireError, match="bad has_day flag 2"):
            codec.decode_batch_request(bytes(payload))

    @both_families
    def test_truncated_or_padded_reply_rejected(self, family):
        codec = CODECS[family]
        records = [
            codec.pack_verdict(_verdict(family)),
            codec.pack_degraded(1, None, 3, "SHARD_UNAVAILABLE"),
        ]
        payload = decode_binary_frame(
            codec.encode_batch_reply_frame(records, 1)
        )[2]
        for decode in (codec.split_batch_reply, codec.decode_batch_reply):
            for cut in range(len(payload)):
                with pytest.raises(WireError) as excinfo:
                    decode(payload[:cut])
                assert excinfo.value.recoverable
            with pytest.raises(WireError, match="trailing bytes"):
                decode(payload + b"\x00")
        with pytest.raises(WireError, match="trailing bytes"):
            codec.decode_record(records[0] + b"\x00")
        with pytest.raises(WireError, match="unknown batch record kind"):
            codec.decode_record(b"\x07" + records[0][1:])

    @both_families
    def test_out_of_range_address_falls_back(self, family):
        """An address the family's field cannot hold is the recoverable
        "not packable" error (callers then use the JSON shape)."""
        codec = CODECS[family]
        for bad in (family.max_int + 1, -1):
            with pytest.raises(WireError) as excinfo:
                codec.encode_batch_request([(bad, None)], 1)
            assert excinfo.value.recoverable


def _read_every_way(views):
    """Everything a caller may do to a record view, asserted
    consistent; returns the wire dicts. No step may raise."""
    wires = []
    for view in views:
        wire = view.to_wire()
        assert dict(view) == wire
        assert view == wire and wire == view and not view != wire
        assert len(view) == len(wire) and list(view) == list(wire)
        for key, value in wire.items():
            assert key in view
            assert view[key] == value and view.get(key) == value
        assert "no-such-key" not in view
        assert view.get("no-such-key", 7) == 7
        with pytest.raises(KeyError):
            view["no-such-key"]
        wires.append(wire)
    return wires


def _read_whole(views):
    return [view.to_wire() for view in views]


class TestHostileReplies:
    """A reply payload is either refused whole, by
    ``decode_batch_reply`` with the recoverable ``WireError``, or it
    yields views that never raise and read exactly what the eager
    decoder read — recorded, for every single-byte mutation of the
    corpus, in ``tests/data/reply_views.json``
    (:mod:`tests.reply_view_fixtures` says how)."""

    CASES = json.loads(reply_view_fixtures.FIXTURE.read_text())["cases"]

    @pytest.mark.parametrize(
        "case", CASES, ids=[f"{c['family']}-{c['name']}" for c in CASES]
    )
    def test_mutations(self, case):
        family = {f.name: f for f in FAMILIES}[case["family"]]
        decode = CODECS[family].decode_batch_reply
        payload = bytes.fromhex(case["payload"])
        assert _read_every_way(decode(payload)) == case["decoded"]
        for cut in range(len(payload)):
            with pytest.raises(WireError) as excinfo:
                decode(payload[:cut])
            assert excinfo.value.recoverable
        # The single-record cases read each view every way; the
        # combined reply, five views a mutation, reads them whole.
        read = _read_whole if case["name"] == "all" else _read_every_way
        for position, recorded in enumerate(case["positions"]):
            outcomes = [
                reply_view_fixtures.outcome(decode, mutated, read)
                for mutated in reply_view_fixtures.mutations(payload, position)
            ]
            assert list(reply_view_fixtures.position_record(outcomes)) == (
                recorded
            ), f"byte {position}"

    def test_the_corpus_is_the_recorded_one(self):
        """The payloads the recording was made over are what today's
        packers produce for the corpus: reply bytes have not moved."""
        assert [
            (family.name, name, payload.hex())
            for family, name, payload in reply_view_fixtures.corpus()
        ] == [(c["family"], c["name"], c["payload"]) for c in self.CASES]

    @both_families
    def test_text_table_is_bounded_and_not_needed(self, family, monkeypatch):
        """Past the table's bound a text is decoded on every read; the
        views read the same."""
        from repro.service import wire

        codec = wire.BinaryCodec(family, 0, 0)
        monkeypatch.setattr(wire, "_MAX_TEXTS", 1)
        payload = (1).to_bytes(4, "big") + codec.pack_verdict(
            _verdict(family, lists=("a", "b", "c"))
        )
        (view,) = codec.decode_batch_reply(payload)
        assert len(codec._texts) == 1
        assert view["lists"] == ["a", "b", "c"]


class TestBinaryFrameFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_decode_binary_frame_never_crashes(self, blob):
        try:
            decode_binary_frame(blob)
        except WireError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=1, max_size=64),
           st.integers(min_value=1, max_value=7))
    def test_recv_binary_frame_never_crashes(self, blob, chunk):
        try:
            FrameReader(FakeSocket(blob, chunk=chunk)).read(binary=True)
        except WireError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(
        st.binary(max_size=64)
        | st.builds(
            lambda opener, depth: opener * depth,
            st.sampled_from([b"[", b'{"a":', b"[[0],"]),
            st.integers(min_value=0, max_value=200_000),
        )
    )
    def test_decode_msg_payload_raises_only_recoverable(self, blob):
        """Arbitrary bytes — including nesting deep enough to exhaust
        the JSON parser's stack — decode or raise the recoverable
        WireError; nothing else escapes."""
        try:
            decode_msg_payload(blob)
        except WireError as exc:
            assert exc.recoverable

    def test_deep_nesting_is_a_recoverable_wire_error(self):
        """Regression: the RecursionError used to escape both decoders,
        which cost the peer its connection without a reply."""
        with pytest.raises(WireError) as excinfo:
            decode_msg_payload(DEEP_PAYLOAD)
        assert excinfo.value.recoverable
        frame = struct.pack(">I", len(DEEP_PAYLOAD)) + DEEP_PAYLOAD
        with pytest.raises(WireError) as excinfo:
            decode_frame(frame)
        assert excinfo.value.recoverable
        assert excinfo.value.consumed == len(frame)

    def test_torn_header_is_recoverable(self):
        """EOF inside the 10-byte header is end-of-stream, not a
        framing crime — the error must say so."""
        frame = encode_msg_frame({"op": "ping"}, 1)
        for cut in range(1, BIN_HEADER_SIZE):
            with pytest.raises(WireError) as excinfo:
                FrameReader(FakeSocket(frame[:cut])).read(binary=True)
            assert excinfo.value.recoverable

    def test_torn_payload_is_fatal(self):
        frame = encode_msg_frame({"op": "ping"}, 1)
        with pytest.raises(WireError) as excinfo:
            FrameReader(FakeSocket(frame[: len(frame) - 2])).read(binary=True)
        assert not excinfo.value.recoverable

    def test_bad_magic_is_fatal(self):
        frame = bytearray(encode_msg_frame({"op": "ping"}, 1))
        frame[0] ^= 0xFF
        with pytest.raises(WireError) as excinfo:
            FrameReader(FakeSocket(bytes(frame))).read(binary=True)
        assert not excinfo.value.recoverable

    def test_eintr_mid_frame_is_retried(self):
        """A signal landing mid-read must not be confused with EOF."""

        class InterruptingSocket(FakeSocket):
            def __init__(self, data):
                super().__init__(data, chunk=3)
                self._interrupts = 2

            def recv(self, size):
                if self._interrupts:
                    self._interrupts -= 1
                    raise InterruptedError
                return super().recv(size)

        frame = encode_msg_frame({"op": "ping"}, 9)
        got = FrameReader(InterruptingSocket(frame)).read(binary=True)
        assert got is not None
        assert decode_msg_payload(got[2]) == {"op": "ping"}

    def test_declared_length_over_limit_rejected(self):
        header = struct.pack(">BBII", 0xB1, FT_MSG, 0, MAX_FRAME_BYTES + 1)
        with pytest.raises(WireError) as excinfo:
            FrameReader(FakeSocket(header)).read(binary=True)
        assert not excinfo.value.recoverable

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(FAMILIES), st.binary(max_size=80))
    def test_record_decoders_never_crash(self, family, blob):
        codec = CODECS[family]
        for decode in (
            codec.decode_batch_request,
            codec.decode_batch_reply,
            lambda payload: [
                codec.decode_record(record)
                for record in codec.split_batch_reply(payload)
            ],
        ):
            try:
                decode(blob)
            except WireError:
                pass


def _wire_server(handler, **kwargs):
    """A bare :class:`WireServer` answering through ``handler``."""

    class Bare(WireServer):
        def handle(self, conn, slot, kind, data):
            handler(conn, slot, kind, data)

    return Bare(**kwargs)


@pytest.fixture()
def server(index):
    srv = ReputationServer(QueryEngine(index), connection_timeout=5.0)
    srv.start()
    yield srv
    srv.shutdown()


class TestNegotiation:
    def test_json_client_sees_pre_upgrade_hello(self, server):
        """A pre-negotiation client's hello must come back without any
        codec keys — the reply an old server would have sent."""
        with socket.create_connection(server.address, timeout=5.0) as s:
            s.sendall(encode_frame({"op": "hello"}))
            reply = FrameReader(s).read()
        assert reply["ok"] is True
        assert "codec" not in reply["result"]
        assert "codecs" not in reply["result"]

    def test_offering_client_switches_to_binary(self, server):
        with ReputationClient(*server.address) as client:
            assert client.codec == "binary"
            # A plain hello (no offer) stays clean of codec keys even
            # on an upgraded connection.
            assert "codec" not in client.hello()
            hello = client.call(
                {"op": "hello", "accept_codecs": ["binary"]}
            )
            assert hello["codec"] == "binary"
            assert set(hello["codecs"]) == {"binary", "json"}

    def test_pinned_json_client_stays_on_json(self, server):
        with ReputationClient(*server.address, codec="json") as client:
            assert client.codec == "json"
            assert client.ping() is True

    def test_json_offer_without_binary_keeps_json(self, server):
        """``accept_codecs`` listing only json: reply carries the codec
        keys but the connection stays on the JSON framing."""
        with socket.create_connection(server.address, timeout=5.0) as s:
            frames = FrameReader(s)
            s.sendall(encode_frame({"op": "hello", "accept_codecs": ["json"]}))
            reply = frames.read()
            assert reply["result"]["codec"] == "json"
            s.sendall(encode_frame({"op": "ping"}))
            assert frames.read()["result"] == "pong"

    def test_frames_after_switch_are_binary(self, server):
        """The hello reply itself is still JSON-framed; the very next
        frame speaks binary."""
        with socket.create_connection(server.address, timeout=5.0) as s:
            frames = FrameReader(s)
            s.sendall(
                encode_frame({"op": "hello", "accept_codecs": ["binary"]})
            )
            reply = frames.read()
            assert reply["result"]["codec"] == "binary"
            s.sendall(encode_msg_frame({"op": "ping"}, 5))
            ftype, rid, payload = frames.read(binary=True)
            assert (ftype, rid) == (FT_MSG, 5)
            assert decode_msg_payload(payload)["result"] == "pong"


class TestHelloPipelining:
    """A packed batch sent in the same write as the ``hello`` that
    negotiates binary: either door switches codec as it reads the
    ``hello``, so the batch is parsed as the binary frame it is — the
    router once switched only when its shards' hellos came back, and
    read the batch as garbled JSON."""

    @pytest.mark.parametrize("door", ["direct", "routed"])
    def test_packed_batch_right_behind_hello(self, server, index, door):
        from repro.cluster.partition import PartitionMap
        from repro.cluster.router import Router

        ip, spans = next(index.interval_items())
        day = spans[0][0]
        codec = CODECS[V4]
        router = None
        address = server.address
        if door == "routed":
            router = Router(PartitionMap(1), [[server.address]])
            address = router.start()
        try:
            with socket.create_connection(address, timeout=5.0) as s:
                frames = FrameReader(s)
                s.sendall(
                    encode_frame({"op": "hello", "accept_codecs": ["binary"]})
                    + codec.encode_batch_request([(ip, day)], 9)
                )
                assert frames.read()["result"]["codec"] == "binary"
                ftype, rid, payload = frames.read(binary=True)
            assert (ftype, rid) == (wire.FT_BATCH_REP, 9)
            (verdict,) = codec.decode_batch_reply(payload)
            assert verdict == QueryEngine(index).query(ip, day).to_wire()
        finally:
            if router is not None:
                router.shutdown()


class TestBinaryDemanded:
    """``codec="binary"`` is a demand, not an offer: against a server
    that ignores ``accept_codecs`` (one older than the negotiation, in
    either of its two shapes) the constructor raises — it used to stay
    on JSON in silence, and only ``repro query`` looked."""

    @pytest.fixture(params=["ignored", "rejected"])
    def old_server(self, request):
        def handler(conn, slot, kind, data):
            op = data.get("op")
            if op == "ping":
                slot.complete({"ok": True, "result": "pong"})
            elif op == "hello" and request.param == "ignored":
                slot.complete({"ok": True, "result": {"protocol": 1}})
            else:
                slot.fail(f"unknown op: {op!r}")

        with _wire_server(handler) as server:
            server.start()
            yield server

    def test_binary_raises_when_not_granted(self, old_server):
        host, port = old_server.address
        with pytest.raises(TransportError) as raised:
            ReputationClient(host, port, codec="binary")
        assert str(raised.value).startswith(
            f"server at {host}:{port} did not accept the binary codec"
        )

    def test_auto_still_falls_back_to_json(self, old_server):
        with ReputationClient(*old_server.address) as client:
            assert client.codec == "json"
            assert client.ping() is True

    def test_cli_query_and_load_fail_loudly(self, old_server, capsys):
        from repro.cli import main

        host, port = old_server.address
        endpoint = ["--host", host, "--port", str(port), "--codec", "binary"]
        assert main(["query", "--hello", *endpoint]) == 2
        assert "did not accept the binary codec" in capsys.readouterr().err
        load = ["load", *endpoint, "--queries", "20", "--conns", "1"]
        assert main(load) == 2
        assert "(20 transport errors)" in capsys.readouterr().err


@contextmanager
def _binary_socket(address):
    """A raw socket already switched to the binary framing, and the one
    :class:`FrameReader` that reads it."""
    with socket.create_connection(address, timeout=5.0) as s:
        frames = FrameReader(s)
        s.sendall(encode_frame({"op": "hello", "accept_codecs": ["binary"]}))
        assert frames.read()["result"]["codec"] == "binary"
        yield s, frames


def _binary_call(s, frames, payload, rid):
    """Send ``payload`` as an FT_MSG frame, return the decoded reply."""
    s.sendall(encode_binary_frame(FT_MSG, rid, payload))
    ftype, got_rid, reply = frames.read(binary=True)
    assert (ftype, got_rid) == (FT_MSG, rid)
    return decode_msg_payload(reply)


class TestUndecodableMsgPayloads:
    """A well-framed payload that does not decode costs the peer an
    in-band error, never its connection — on either framing."""

    def test_deep_nesting_on_json_framing(self, server):
        with socket.create_connection(server.address, timeout=5.0) as s:
            frames = FrameReader(s)
            s.sendall(struct.pack(">I", len(DEEP_PAYLOAD)) + DEEP_PAYLOAD)
            reply = frames.read()
            assert reply["ok"] is False
            assert "undecodable frame payload" in reply["error"]
            s.sendall(encode_frame({"op": "ping"}))
            assert frames.read()["result"] == "pong"

    @pytest.mark.parametrize(
        "payload",
        [DEEP_PAYLOAD, OLD_TAGGED_PING],
        ids=["deep-nesting", "old-tagged-encoding"],
    )
    def test_undecodable_msg_on_binary_framing(self, server, payload):
        """Nesting past the parser's stack, and — cross-version — a
        peer still speaking the tagged encoding: both get told so and
        keep their connection."""
        with _binary_socket(server.address) as (s, frames):
            reply = _binary_call(s, frames, payload, 3)
            assert reply["ok"] is False
            assert "undecodable frame payload" in reply["error"]
            ping = _binary_call(s, frames, b'{"op":"ping"}', 4)
            assert ping["result"] == "pong"


class TestUnencodableReplies:
    """A reply the server itself cannot put on the wire is its bug:
    the binary connection gets the same in-band degradation the JSON
    one does, and stays up."""

    MAX_FRAME = 256

    def _ask(self, reply):
        def handler(conn, slot, kind, data):
            if data == {"op": "hello"}:
                slot.complete({"ok": True})
                conn.codec = "binary"
            else:
                slot.complete(reply)

        with _wire_server(handler, max_frame=self.MAX_FRAME) as server:
            with socket.create_connection(server.start(), timeout=5.0) as s:
                frames = FrameReader(s)
                s.sendall(encode_frame({"op": "hello"}))
                assert frames.read() == {"ok": True}
                return _binary_call(s, frames, b'{"op":"ask"}', 3)

    def test_nan_in_reply_degrades_to_error(self):
        got = self._ask({"ok": True, "result": float("nan")})
        assert got["ok"] is False
        assert got["error"].startswith(
            "internal error: unserialisable reply"
        )

    def test_reply_one_byte_over_max_frame_degrades_to_error(self):
        overhead = len(encode_frame({"ok": True, "result": ""})) - 4
        fits = {"ok": True, "result": "x" * (self.MAX_FRAME - overhead)}
        assert self._ask(fits) == fits
        over = {"ok": True, "result": fits["result"] + "x"}
        got = self._ask(over)
        assert got["ok"] is False
        assert got["error"].startswith(
            "internal error: unserialisable reply"
        )
        assert f"{self.MAX_FRAME}-byte limit" in got["error"]


class TestCodecEquality:
    def _sample_queries(self, index):
        ips = sorted(ip for ip, _ in index.interval_items())[:50] or [
            0x01020304
        ]
        day = index.default_day()
        queries = [(ip, None) for ip in ips]
        queries += [(ip, day) for ip in ips[:10]]
        queries += [(0xDEADBEEF, None), (0, day)]
        return queries

    def test_batch_verdicts_identical_across_codecs(self, server, index):
        queries = self._sample_queries(index)
        with ReputationClient(*server.address, codec="json") as jc, \
                ReputationClient(*server.address, codec="binary") as bc:
            assert bc.codec == "binary"
            json_verdicts = jc.query_batch(queries)
            binary_verdicts = bc.query_batch(queries)
        assert json_verdicts == binary_verdicts

    def test_point_verdicts_identical_across_codecs(self, server, index):
        ip = next(
            iter(sorted(ip for ip, _ in index.interval_items())),
            0x01020304,
        )
        with ReputationClient(*server.address, codec="json") as jc, \
                ReputationClient(*server.address, codec="binary") as bc:
            assert jc.query(ip) == bc.query(ip)
            assert jc.query(int_to_ip(ip)) == bc.query(int_to_ip(ip))

    def test_pipelined_equals_sequential_on_both_codecs(
        self, server, index
    ):
        queries = self._sample_queries(index)
        batches = [queries[i::4] for i in range(4)]
        for codec in ("json", "binary"):
            with ReputationClient(*server.address, codec=codec) as c:
                sequential = [c.query_batch(b) for b in batches]
                pipelined = c.query_batch_pipelined(batches, window=3)
            assert pipelined == sequential

    def test_error_strings_identical_across_codecs(self, server):
        errors = {}
        for codec in ("json", "binary"):
            with ReputationClient(*server.address, codec=codec) as c:
                got = []
                for bad in (
                    {"op": "nope"},
                    {"op": "query", "ip": "not-an-ip"},
                    {"op": "query", "ip": "1.2.3.4", "day": "x"},
                    {"op": "batch", "queries": "zz"},
                ):
                    with pytest.raises(ServiceError) as excinfo:
                        c.call(bad)
                    got.append(str(excinfo.value))
                errors[codec] = got
        assert errors["json"] == errors["binary"]

    def test_v6_batch_frame_at_v4_server_is_a_clean_error(self, server):
        """A v6-family binary client's packed frame reaches a v4-only
        server: clean error reply, connection still usable."""
        with ReputationClient(*server.address, family=V6) as client:
            assert client.codec == "binary"
            with pytest.raises(
                ServiceError,
                match="ipv6 batch frame cannot be answered by this "
                "ipv4-only index",
            ):
                client.query_batch([(1, None), (2, 5)])
            assert client.ping() is True

    def test_binary_batch_fallback_for_unpackable_values(self, server):
        """A query the packed layout cannot carry (a day outside i32)
        must travel the JSON shape transparently — same verdict as a
        JSON connection, not a client-side error."""
        queries = [("1.2.3.4", 2**40), ("1.2.3.4", None)]
        with ReputationClient(*server.address, codec="json") as jc, \
                ReputationClient(*server.address, codec="binary") as bc:
            assert jc.query_batch(queries) == bc.query_batch(queries)


def _outcome(call, *args):
    """What ``call(*args)`` came to: its result, or its error text."""
    try:
        return call(*args)
    except ServiceError as exc:
        return f"error: {exc}"


class TestRequestFrames:
    """What the client puts on the wire for a batch, and for a point
    query (a batch of one, where it packs). The packer checks while it
    packs, so the client hands it the queries as they stand and walks
    them itself (``_int_pairs``) only when it refuses them — the
    frames, and which batches take the JSON shape, are what the
    two-pass client sent."""

    @pytest.fixture(params=FAMILIES, ids=[f.name for f in FAMILIES])
    def client(self, request, server):
        with ReputationClient(
            *server.address, codec="binary", family=request.param
        ) as client:
            yield client

    def test_clean_batches_pack_as_they_stand(self, client):
        family, codec = client.family, CODECS[client.family]
        rng = random.Random(21)
        queries = [
            (rng.randrange(family.max_int + 1),
             rng.choice((None, rng.randrange(-(2**31), 2**31))))
            for _ in range(512)
        ] + [(0, None), (family.max_int, -(2**31)), (1, 2**31 - 1)]
        frame = client._encode_batch(queries, 9)
        assert frame == codec.encode_batch_request(
            _int_pairs(queries, family), 9
        )
        ftype, rid, payload, _ = decode_binary_frame(frame)
        assert (ftype, rid) == (codec.ft_request, 9)
        assert codec.decode_batch_request(payload) == queries
        empty = client._encode_batch([], 3)
        assert empty == codec.encode_batch_request([], 3)

    def test_normalised_values_still_pack(self, client):
        """Text addresses, a ``bool`` address and an ``int`` subclass
        as day are normalised by ``_int_pairs`` and still go packed."""
        family, codec = client.family, CODECS[client.family]

        class Day(int):
            pass

        queries = [
            (5, None), (family.format(7), 3), (True, Day(4)), (Day(9), None),
        ]
        for refused in ([queries[1]], [queries[2]], [queries[3]]):
            with pytest.raises(WireError) as excinfo:
                codec.encode_batch_request(refused, 1)
            assert excinfo.value.recoverable
        normalised = [(5, None), (7, 3), (1, 4), (9, None)]
        frame = client._encode_batch(queries, 2)
        assert frame == codec.encode_batch_request(normalised, 2)
        # ``query()`` packs each of them as a batch of one.
        for query, pair in zip(queries, normalised):
            assert client._packed_frame([query], 2) == (
                codec.encode_batch_request([pair], 2)
            )

    @pytest.mark.parametrize(
        "query",
        [(1, True), (1, 2**31), (1, -(2**31) - 1), (1, 2.0),
         (1.0, None), ("not-an-address", None), (None, None), (1, "3")],
        ids=["bool-day", "day-over-i32", "day-under-i32", "float-day",
             "float-ip", "bad-text-ip", "none-ip", "text-day"],
    )
    def test_json_shape_kept(self, client, server, query):
        family = client.family
        for queries in ([query], [(2, 2), query], [query, (2, 2)]):
            frame = client._encode_batch(queries, 4)
            ftype, rid, payload, _ = decode_binary_frame(frame)
            assert (ftype, rid) == (FT_MSG, 4)
            assert decode_msg_payload(payload) == {
                "op": "batch",
                "queries": [
                    {"ip": family.format(ip) if isinstance(ip, int)
                     else str(ip), "day": day}
                    for ip, day in queries
                ],
            }
        # ``query()`` does not pack it either: it is the JSON ``query``
        # op, answered — verdict or error text — as on a JSON client.
        assert client._packed_frame([query], 4) is None
        with ReputationClient(
            *server.address, codec="json", family=family
        ) as reference:
            assert _outcome(client.query, *query) == _outcome(
                reference.query, *query
            )

    def test_address_outside_family_raises(self, client):
        """Neither shape can say it (the JSON one formats addresses as
        text): ``ValueError``, as before."""
        for bad in (client.family.max_int + 1, -1):
            with pytest.raises(ValueError, match="not an IPv"):
                client._encode_batch([(2, 2), (bad, None)], 4)


class _LateFirstAnswer(FakePeer):
    """Answers every point query about the ip asked — ``{"ip": <the
    ip>}`` to a JSON ``query`` op, a packed verdict to a one-pair
    batch frame — the first one ``delay`` seconds late."""

    def __init__(self, delay: float) -> None:
        self.delay = delay
        super().__init__()

    def answer(self, request):
        if (control := polite(request)) is not None:
            return control
        time.sleep(self.delay)
        self.delay = 0.0
        if isinstance(request, dict):
            return {"ip": request["ip"]}
        ((ip, _day),) = request
        return (1).to_bytes(4, "big") + CODECS[V4].pack_verdict(
            _verdict(ip=ip)
        )


def _wrong_count(off_by: int):
    """Answers a batch of ``n`` with ``n + off_by`` verdicts: packed
    records to a packed request, wire dicts to a JSON-shaped one."""

    def answer(request):
        if isinstance(request, list):
            count = len(request) + off_by
            record = CODECS[V4].pack_verdict(_verdict())
            return count.to_bytes(4, "big") + record * count
        if request["op"] == "batch":
            return [_verdict().to_wire()] * (len(request["queries"]) + off_by)
        return polite(request)

    return answer


@pytest.mark.parametrize("codec", ["json", "binary"])
class TestClosedAfterFailure:
    """The worst failure this system has is a wrong verdict, and a
    client that kept its socket after a failed exchange handed out
    exactly that: the late or unread reply of one request as the
    answer to the next. After any :class:`TransportError` the client
    is closed and says so."""

    @staticmethod
    def _assert_closed(client):
        for call in (
            lambda: client.query("2.2.2.2"),
            lambda: client.query_batch([("2.2.2.2", None)]),
            lambda: client.query_batch_pipelined([[("2.2.2.2", 1)]]),
            client.ping,
        ):
            with pytest.raises(TransportError, match="client is closed"):
                call()
        client.close()
        client.close()  # still idempotent

    def test_late_reply_never_answers_next_query(self, codec):
        late = _LateFirstAnswer(delay=0.5)
        try:
            client = ReputationClient(
                *late.address, timeout=0.2, codec=codec
            )
            assert client.codec == codec
            with pytest.raises(TransportError, match="timed out"):
                client.query("1.1.1.1")
            time.sleep(0.5)  # the answer about 1.1.1.1 has now arrived
            self._assert_closed(client)
        finally:
            late.close()

    def test_failed_window_leaves_no_unread_reply(
        self, server, index, codec
    ):
        ip = min(ip for ip, _ in index.interval_items())
        # Too big for one frame in the JSON shape (a day outside i32
        # keeps it off the packed layout on the binary codec too).
        huge = [("1.2.3.4", 2**40)] * 60_000
        client = ReputationClient(*server.address, codec=codec)
        assert client.codec == codec
        # Window 2: ``huge`` fails to encode after batch 0's reply was
        # read and while batch 1's is still on its way.
        with pytest.raises(TransportError, match="exceeds"):
            client.query_batch_pipelined(
                [[(ip, None)], [(ip, 3), (ip, 4)], huge], window=2
            )
        self._assert_closed(client)

    @pytest.mark.parametrize("off_by", [-1, 1], ids=["short", "long"])
    @pytest.mark.parametrize("day", [5, 2**40], ids=["packed", "json-shaped"])
    def test_wrong_length_reply(
        self, codec, day, off_by
    ):
        """A 128-batch answered with 127 (or 129) verdicts: every
        caller's ``zip(keys, verdicts)`` would drop or shift a verdict
        without a word. The day outside i32 sends the request, and so
        the reply, in the JSON shape on the binary codec too."""
        peer = FakePeer(_wrong_count(off_by))
        try:
            client = ReputationClient(*peer.address, timeout=5.0, codec=codec)
            assert client.codec == codec
            with pytest.raises(
                TransportError,
                match=f"reply of {128 + off_by} verdicts to a batch of 128",
            ):
                client.query_batch_pipelined(
                    [[(0x01020304, day)] * 128] * 2, window=2
                )
            self._assert_closed(client)
        finally:
            peer.close()

    def test_in_band_error_keeps_the_connection(self, server, codec):
        with ReputationClient(*server.address, codec=codec) as client:
            with pytest.raises(ServiceError, match="10000-query limit"):
                client.query_batch([("1.2.3.4", 1)] * 10_001)
            with pytest.raises(ServiceError, match="unknown op"):
                client.call({"op": "nope"})
            assert client.ping() is True
            assert client.query("1.2.3.4")["ip"] == "1.2.3.4"


#: Every frame type the wire module defines, by name — a new ``FT_*``
#: constant joins the matrix below by existing.
FRAME_TYPES = sorted(
    (name for name in vars(wire) if name.startswith("FT_")),
    key=lambda name: getattr(wire, name),
)
REPLY_CODECS = {codec.ft_reply: codec for codec in CODECS.values()}


def _frame_payload(ftype):
    """A well-formed payload for a frame of type ``ftype``: a ping, a
    one-query batch request, or a one-verdict batch reply."""
    if ftype in REQUEST_CODECS:
        frame = REQUEST_CODECS[ftype].encode_batch_request([(1, 5)], 0)
        return bytes(frame[BIN_HEADER_SIZE:])
    if ftype in REPLY_CODECS:
        codec = REPLY_CODECS[ftype]
        packed = codec.pack_verdict(_verdict(codec.family))
        return (1).to_bytes(4, "big") + packed
    return b'{"op":"ping"}'


class _OneFrameTypePeer(FakePeer):
    """Answers every request after ``hello`` with one well-formed
    frame of a fixed type, whatever was asked."""

    def __init__(self, ftype: int) -> None:
        self.ftype = ftype
        super().__init__()

    def answer(self, request):
        if isinstance(request, dict) and "accept_codecs" in request:
            return polite(request)
        if self.ftype == FT_MSG:
            batch = not (isinstance(request, dict) and request["op"] == "ping")
            return [_verdict().to_wire()] if batch else "pong"
        return self.ftype, _frame_payload(self.ftype)


class _BadMagicPeer(_OneFrameTypePeer):
    """Answers as ``_OneFrameTypePeer(FT_MSG)`` does, but every binary
    frame it sends has its magic byte flipped."""

    def __init__(self) -> None:
        super().__init__(FT_MSG)

    def send(self, conn, frame: bytes) -> None:
        if frame[0] == wire.BINARY_MAGIC:  # not the JSON-framed hello
            frame = bytes([frame[0] ^ 0xFF]) + frame[1:]
        conn.sendall(frame)


class TestBadMagic:
    """A binary frame whose first byte is not the magic breaks the
    framing at either end: the stream has no known next boundary."""

    def test_at_the_server(self, server):
        """Told why in band, then hung up on."""
        frame = bytearray(encode_msg_frame({"op": "ping"}, 5))
        frame[0] ^= 0xFF
        with _binary_socket(server.address) as (s, frames):
            s.sendall(bytes(frame))
            ftype, rid, reply = frames.read(binary=True)
            assert (ftype, rid) == (FT_MSG, 0)
            assert decode_msg_payload(reply) == {
                "ok": False, "error": f"bad frame magic 0x{frame[0]:02x}"
            }
            assert frames.read(binary=True) is None

    @pytest.mark.parametrize("reader", ["point", "batch"])
    def test_at_the_client(self, reader):
        """A :class:`TransportError`, and the client is closed."""
        peer = _BadMagicPeer()
        try:
            client = ReputationClient(*peer.address, timeout=5.0)
            assert client.codec == "binary"
            with pytest.raises(TransportError, match="bad frame magic"):
                if reader == "point":
                    client.ping()
                else:
                    client.query_batch([(1, 5)])
            with pytest.raises(TransportError, match="client is closed"):
                client.ping()
        finally:
            peer.close()


class _CountingSocket:
    """A client's socket, with its ``recv`` calls counted."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.recvs = 0

    def recv(self, size: int) -> bytes:
        self.recvs += 1
        return self._sock.recv(size)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_a_pipelined_window_is_read_in_few_recvs(server, index, monkeypatch):
    """Sixteen batch replies that arrive together are read out of one
    buffer: fewer ``recv`` calls than two per frame (header, then
    payload), which is what a reader that never reads past its frame
    makes."""
    made = []
    connect = socket.create_connection

    def counted(*args, **kwargs):
        made.append(_CountingSocket(connect(*args, **kwargs)))
        return made[-1]

    monkeypatch.setattr(socket, "create_connection", counted)
    ips = sorted(ip for ip, _ in index.interval_items())[:8]
    batches = [[(ip, day) for ip in ips] for day in range(220, 236)]
    with ReputationClient(*server.address) as client:
        assert client.codec == "binary"
        (sock,) = made
        sock.recvs = 0
        replies = client.query_batch_pipelined(batches, window=16)
    assert [len(reply) for reply in replies] == [len(ips)] * 16
    assert sock.recvs < 32


@pytest.mark.parametrize("name", FRAME_TYPES)
class TestEveryFrameTypeAtEveryReader:
    """Each ``FT_*`` type, well formed, sent to each end that reads
    binary frames. The reader answers it, or refuses it with a
    *declared* cause — an in-band error, or a ``TransportError`` that
    names the frame type and closes the client. Never a hang (every
    socket here has a 5 s timeout) and never an unhandled exception
    (the server must still answer the ping that follows). This is the
    pairing a lint rule used to check by reading the source."""

    def test_at_the_server(self, server, name):
        ftype = getattr(wire, name)
        with _binary_socket(server.address) as (s, frames):
            s.sendall(encode_binary_frame(ftype, 7, _frame_payload(ftype)))
            got_type, rid, reply = frames.read(binary=True)
            assert rid == 7
            if ftype == FT_MSG:
                assert got_type == FT_MSG
                assert decode_msg_payload(reply) == {
                    "ok": True, "result": "pong"
                }
            elif ftype == CODECS[V4].ft_request:
                assert got_type == CODECS[V4].ft_reply
                (verdict,) = CODECS[V4].decode_batch_reply(reply)
                assert (verdict["ip"], verdict["day"]) == ("0.0.0.1", 5)
            else:
                # Not a request this (v4) server takes: told so in
                # band, with the reason, and the connection is kept.
                assert got_type == FT_MSG
                refusal = decode_msg_payload(reply)
                assert refusal["ok"] is False
                assert (
                    f"unexpected frame type {ftype}" in refusal["error"]
                    or "ipv4-only index" in refusal["error"]
                )
            ping = _binary_call(s, frames, b'{"op":"ping"}', 8)
            assert ping["result"] == "pong"

    def test_at_the_client(self, name):
        ftype = getattr(wire, name)
        for call, reader in (
            (lambda c: c.ping(), "point"),
            (lambda c: c.query_batch([(1, 5)]), "batch"),
        ):
            peer = _OneFrameTypePeer(ftype)
            try:
                client = ReputationClient(*peer.address, timeout=5.0)
                assert client.codec == "binary"
                if ftype == FT_MSG:
                    assert call(client) in (True, [_verdict().to_wire()])
                elif (reader, ftype) == ("batch", CODECS[V4].ft_reply):
                    assert call(client) == [_verdict().to_wire()]
                else:
                    with pytest.raises(
                        TransportError, match=f"frame.* type {ftype}"
                    ):
                        call(client)
                    with pytest.raises(
                        TransportError, match="client is closed"
                    ):
                        client.ping()
                client.close()
            finally:
                peer.close()


class TestMixedFleets:
    def test_router_serves_both_client_codecs_identically(
        self, full_index
    ):
        """Binary and JSON downstream over the (always binary)
        upstream: both yield the same verdicts as a direct single
        server."""
        ips = sorted(
            ip for ip, _ in full_index.interval_items()
        )[:40] or [0x01020304]
        queries = [(ip, None) for ip in ips]
        with ReputationServer(QueryEngine(full_index)) as direct:
            direct.start()
            with ReputationClient(
                *direct.address, codec="json"
            ) as reference_client:
                reference = reference_client.query_batch(queries)
        with LocalCluster(
            full_index,
            shards=3,
            heartbeat_interval=0.2,
        ) as cluster:
            assert cluster.router.wait_healthy(timeout=10.0)
            for codec in ("json", "binary"):
                with ReputationClient(
                    *cluster.address, codec=codec
                ) as client:
                    assert client.codec == codec
                    assert client.query_batch(queries) == reference
                    assert (
                        client.query(ips[0]) == reference[0]
                    )

    def test_dead_shard_degrades_identically_on_both_codecs(
        self, full_index
    ):
        """Shard-down degradation has the same wire shape whichever
        codec the client speaks."""
        ips = sorted(
            ip for ip, _ in full_index.interval_items()
        )[:20] or [0x01020304]
        queries = [(ip, None) for ip in ips]
        shapes = {}
        with LocalCluster(
            full_index, shards=3, heartbeat_interval=0.2
        ) as cluster:
            assert cluster.router.wait_healthy(timeout=10.0)
            cluster.kill_primary(1)
            for codec in ("json", "binary"):
                with ReputationClient(
                    *cluster.address, codec=codec
                ) as client:
                    shapes[codec] = client.query_batch(queries)
        assert shapes["json"] == shapes["binary"]
        degraded = [
            v for v in shapes["binary"] if v.get("error")
        ]
        assert all(v["error"] == "SHARD_UNAVAILABLE" for v in degraded)
        assert all(v["shard"] == 1 for v in degraded)


class TestBackpressure:
    """A peer that pipelines requests without draining replies must
    not grow the server's buffers without bound: reads pause at the
    high-water mark and resume once the queues drain, with no reply
    lost either way."""

    def test_flood_pauses_reads_then_resumes(self):
        import selectors
        import time

        from repro.service.wire import decode_frame, encode_frame

        held = []  # loop-owned, like every other structure read below
        server = _wire_server(
            lambda conn, slot, kind, data: held.append(slot)
        )
        server.slot_high_water = 8
        server.slot_low_water = 2

        def on_loop(read):
            """``read()``, taken on the loop thread between callbacks."""
            out = []
            server.reactor.run_sync(lambda: out.append(read()))
            return out[0]

        def paused():
            """(read interest, slots parsed) once reads are paused."""
            conns = list(server._conns.values())
            if conns and conns[0].paused:
                return conns[0].events & selectors.EVENT_READ, len(held)
            return None

        with server, socket.create_connection(
            server.start(), timeout=5.0
        ) as sock:
            frame = encode_frame({"op": "ping"})
            sock.sendall(frame * 40)
            deadline = time.monotonic() + 5.0
            state = on_loop(paused)
            while state is None and time.monotonic() < deadline:
                time.sleep(0.01)
                state = on_loop(paused)
            assert state is not None, "server never paused reads"
            reading, parsed = state
            assert not reading

            # While paused, a second flood must sit unread in the
            # kernel, not in server memory.
            assert parsed >= 8
            sock.sendall(frame * 40)
            time.sleep(0.3)
            assert on_loop(lambda: len(held)) == parsed

            # Draining the held slots resumes reads; the loop keeps
            # completing what it parses until every one of the 80
            # requests is answered.
            completed = [0]

            def complete_all():
                for slot in held:
                    slot.complete({"ok": True, "result": "pong"})
                completed[0] += len(held)
                held.clear()
                if completed[0] < 80:
                    server.reactor.call_later(0.005, complete_all)

            server.reactor.call_soon(complete_all)
            got = 0
            buf = bytearray()
            while got < 80:
                data = sock.recv(65536)
                assert data, "server closed mid-drain"
                buf += data
                while True:
                    decoded = decode_frame(buf)
                    if decoded is None:
                        break
                    reply, consumed = decoded
                    del buf[:consumed]
                    assert reply == {"ok": True, "result": "pong"}
                    got += 1
            assert got == 80
