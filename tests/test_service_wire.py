"""Wire-protocol tests: codec correctness and hostile-input fuzzing.

The framing layer fronts a TCP socket, so like the KRPC decoder it
must fail *cleanly* on arbitrary bytes: a decoded message or a
:class:`WireError`, never an unhandled exception.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.wire import (
    MAX_FRAME_BYTES,
    FrameReader,
    WireError,
    decode_frame,
    encode_frame,
)


class FakeSocket:
    """recv over an in-memory byte buffer, dribbling ``chunk`` bytes
    per recv to exercise the partial-read loop."""

    def __init__(self, data: bytes = b"", chunk: int = 3) -> None:
        self._data = data
        self._chunk = chunk
        self.recvs = 0

    def recv(self, size: int) -> bytes:
        self.recvs += 1
        take = min(size, self._chunk, len(self._data))
        out, self._data = self._data[:take], self._data[take:]
        return out


def read_frame(sock):
    """One JSON frame off ``sock`` through a fresh :class:`FrameReader`."""
    return FrameReader(sock).read()


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)


class TestCodecRoundtrip:
    @settings(max_examples=150, deadline=None)
    @given(json_values)
    def test_roundtrip(self, value):
        frame = encode_frame(value)
        decoded = decode_frame(frame)
        assert decoded is not None
        message, consumed = decoded
        assert message == value
        assert consumed == len(frame)

    @settings(max_examples=80, deadline=None)
    @given(json_values, json_values)
    def test_concatenated_frames_split_correctly(self, first, second):
        buffer = encode_frame(first) + encode_frame(second)
        message, consumed = decode_frame(buffer)
        assert message == first
        message2, consumed2 = decode_frame(buffer[consumed:])
        assert message2 == second
        assert consumed + consumed2 == len(buffer)

    def test_unserialisable_rejected(self):
        with pytest.raises(WireError):
            encode_frame({"x": object()})
        with pytest.raises(WireError):
            encode_frame(float("nan"))

    def test_oversized_payload_rejected_on_encode(self):
        with pytest.raises(WireError):
            encode_frame("x" * 100, max_size=50)


class TestFrameFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200))
    def test_decode_frame_never_crashes(self, blob):
        try:
            decode_frame(blob)
        except WireError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200), st.integers(min_value=1, max_value=7))
    def test_recv_frame_never_crashes(self, blob, chunk):
        try:
            read_frame(FakeSocket(blob, chunk=chunk))
        except WireError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(json_values, st.integers(min_value=0, max_value=10))
    def test_truncated_frame_detected(self, value, cut):
        frame = encode_frame(value)
        if cut == 0 or cut >= len(frame):
            return
        truncated = frame[:-cut]
        if len(truncated) < 4:
            # Inside the header: either incomplete (None) or EOF error.
            assert decode_frame(truncated) is None
            with pytest.raises(WireError):
                read_frame(FakeSocket(truncated))
            return
        assert decode_frame(truncated) is None  # waits for more bytes
        with pytest.raises(WireError) as excinfo:
            read_frame(FakeSocket(truncated))
        assert not excinfo.value.recoverable


class TestStreamingFieldsOverWire:
    """The streaming additions to the protocol — delta rows inside
    update-log records, and the epoch/seq fields on verdicts, stats
    and the hello handshake — must survive the codec and reject
    malformed input with ValueError/WireError only."""

    delta_rows = st.tuples(
        st.sampled_from(["add", "extend", "delist"]),
        st.integers(min_value=0, max_value=1000),  # day
        st.integers(min_value=0, max_value=(1 << 32) - 1),  # ip
        st.text(max_size=12),  # list_id
        st.integers(min_value=0, max_value=1000),  # first
        st.integers(min_value=0, max_value=1000),  # last
    )

    @settings(max_examples=150, deadline=None)
    @given(delta_rows)
    def test_delta_roundtrips_through_frames(self, row):
        from repro.stream.delta import ListingDelta

        op, day, ip, list_id, first, last = row
        if op != "delist" and last < first:
            first, last = last, first
        delta = ListingDelta(day, ip, list_id, op, first, last)
        decoded, _ = decode_frame(encode_frame(delta.to_wire()))
        assert ListingDelta.from_wire(decoded) == delta

    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_from_wire_never_crashes_on_codec_output(self, value):
        from repro.stream.delta import ListingDelta

        decoded, _ = decode_frame(encode_frame(value))
        try:
            delta = ListingDelta.from_wire(decoded)
        except ValueError:
            return
        assert delta.to_wire() == list(decoded)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=1 << 31),
        st.integers(min_value=0, max_value=1 << 31),
    )
    def test_epoch_fields_roundtrip_on_replies(self, epoch, seq):
        hello = {
            "ok": True,
            "result": {
                "service": "repro-reputation",
                "protocol": 1,
                "streaming": True,
                "epoch": epoch,
                "seq": seq,
            },
        }
        assert decode_frame(encode_frame(hello))[0] == hello

    def test_verdict_wire_form_carries_epoch_and_seq(self):
        from repro.service.engine import Verdict

        verdict = Verdict(
            ip=0x01020304,
            day=230,
            listed=True,
            lists=("alpha",),
            nated=False,
            dynamic=True,
            unjust=True,
            reuse_kind="dynamic",
            users=1,
            asn=64500,
            action="greylist",
            epoch=7,
            seq=9,
        )
        decoded, _ = decode_frame(encode_frame(verdict.to_wire()))
        assert decoded["epoch"] == 7
        assert decoded["seq"] == 9
        assert decoded["ip"] == "1.2.3.4"


class TestFrameLimits:
    def test_declared_length_over_limit_rejected(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(WireError) as excinfo:
            decode_frame(header)
        assert not excinfo.value.recoverable
        with pytest.raises(WireError):
            read_frame(FakeSocket(header))

    def test_empty_payload_rejected(self):
        with pytest.raises(WireError):
            decode_frame(struct.pack(">I", 0) + b"extra")

    def test_bad_json_is_recoverable(self):
        payload = b"\xff\xfe{not json"
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(WireError) as excinfo:
            decode_frame(frame)
        assert excinfo.value.recoverable
        with pytest.raises(WireError) as excinfo:
            read_frame(FakeSocket(frame))
        assert excinfo.value.recoverable

    def test_clean_eof_returns_none(self):
        assert read_frame(FakeSocket(b"")) is None


class TestFrameReader:
    def test_frames_of_one_recv_are_all_read_in_order(self):
        first, second = {"op": "ping"}, ["two", 2]
        sock = FakeSocket(
            encode_frame(first) + encode_frame(second), chunk=1 << 16
        )
        frames = FrameReader(sock)
        assert frames.read() == first
        assert frames.read() == second
        assert sock.recvs == 1
        assert frames.read() is None

    def test_bad_json_is_skipped_and_the_next_frame_read(self):
        payload = b"\xff\xfe{not json"
        sock = FakeSocket(
            struct.pack(">I", len(payload)) + payload
            + encode_frame({"op": "ping"}),
            chunk=1 << 16,
        )
        frames = FrameReader(sock)
        with pytest.raises(WireError) as excinfo:
            frames.read()
        assert excinfo.value.recoverable
        assert frames.read() == {"op": "ping"}
