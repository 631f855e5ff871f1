"""Framing and codecs for the reputation service's TCP protocol.

Two codecs share one connection model:

**JSON framing** (protocol version 1, the universal fallback): every
message — request or reply — is one *frame*, a 4-byte big-endian
unsigned payload length followed by that many bytes of UTF-8 JSON.

**Binary framing** (negotiated via the ``hello`` handshake, see
:mod:`repro.service.server`): a 10-byte header —

====== ===== ==========================================
offset bytes meaning
====== ===== ==========================================
0      1     magic (:data:`BINARY_MAGIC`)
1      1     frame type (:data:`FT_MSG`, or a batch request/reply
             type from the family table below)
2      4     request id (big-endian u32; pipelined peers match
             replies to requests by this id)
6      4     payload length (big-endian u32)
====== ===== ==========================================

— followed by the payload.  An ``FT_MSG`` payload is exactly the bytes
a JSON frame carries after its length prefix (compact UTF-8 JSON, NaN
and infinities refused): the two framings share one payload encoding
and differ only in the header.

Batch request/reply frames carry the hot batch path as packed
fixed-layout records so neither side builds or parses per-verdict
dicts: this, plus pipelining, is where the serving plane's throughput
comes from. There is one record layout, ``addr`` being the only
family-dependent field (big-endian, 4 bytes for ipv4, 16 for ipv6):

======== ==================================================
record   fields
======== ==================================================
request  ``addr, has_day u8, day i32``
verdict  ``kind u8, addr, day i32, flags u8, action u8, reuse u8,
         users u32, asn u32, epoch u32, seq u64, n_lists u8``, then
         ``n_lists`` u8-length-prefixed UTF-8 list ids
degraded ``kind u8, addr, has_day u8, day i32, shard u32``, then one
         u8-length-prefixed UTF-8 error text
======== ==================================================

and one :class:`BinaryCodec` per family implements it. The reading
side does not build them either: :meth:`BinaryCodec.decode_batch_reply`
validates a reply once — bounds, record kinds, action and reuse codes,
UTF-8 — and slices it into :class:`RecordView` mappings that read the
payload in place, so a consumer that only asks ``"error" in verdict``
or for one field pays for that much (``RecordView.to_wire()`` is the
plain dict). A verdict record is a head (:attr:`BinaryCodec.pack_head`)
and one :func:`list_chunk` per list id. The index's record loop
(:meth:`~repro.service.index.ReputationIndex.records`) builds every
served record from its columns, taking the flag and action codes from
:data:`VERDICT_BITS`; :meth:`BinaryCodec.pack_verdict` packs any object
carrying a verdict's attributes as its fields say (library callers,
test fakes, the tests' brute-force reference). A record's ``day`` is
an i32 (:data:`RECORD_DAYS`). The frame type is the family tag — a
peer that never sends a family's request type never sees its reply
type back, and the ipv4 bytes are what they were before families
existed:

====== ====================== ======================
family request frame type     reply frame type
====== ====================== ======================
ipv4   :data:`FT_BATCH_REQ`   :data:`FT_BATCH_REP`
ipv6   :data:`FT_BATCH_REQ6`  :data:`FT_BATCH_REP6`
====== ====================== ======================

Explicit limits keep a hostile peer from holding memory hostage: a
frame longer than :data:`MAX_FRAME_BYTES` (or empty) is rejected
before any payload is read, in both codecs.

Errors are split by whether the byte stream is still usable:

* a well-framed payload that fails to decode (bad UTF-8, bad JSON,
  nesting too deep to parse) is *recoverable* — the stream is still in
  sync and the server answers with an error reply;
* a framing violation (absurd length, bad magic, connection cut
  inside a declared payload) is *not* — there is no way to find the
  next frame boundary, so the connection must be dropped;
* a connection torn inside a frame *header* is recoverable: no frame
  was ever promised, so a blocking reader treats it as end-of-stream
  rather than a protocol crime (a half-written header from a dying
  peer must not kill the reader).

:class:`WireError.recoverable` carries that distinction. Only
:func:`decode_frame` and :func:`decode_binary_frame` parse frames: the
event loop's links run them over their input buffers, and a blocking
peer reads through one :class:`FrameReader` per socket, which does
the same and adds what EOF means.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Mapping
from functools import lru_cache, partial
from itertools import compress, repeat
from operator import itemgetter, not_
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
)

from ..core.policy import BlockAction
from ..net.family import V4, V6, AddressFamily

__all__ = [
    "BINARY_MAGIC",
    "BinaryCodec",
    "CODECS",
    "FT_BATCH_REP",
    "FT_BATCH_REP6",
    "FT_BATCH_REQ",
    "FT_BATCH_REQ6",
    "FT_MSG",
    "FrameReader",
    "MAX_FRAME_BYTES",
    "MAX_LIST_ID_BYTES",
    "RECORD_DAYS",
    "REQUEST_CODECS",
    "RecordView",
    "VERDICT_BITS",
    "WireError",
    "WireSocket",
    "check_batch_size",
    "decode_batch_reply",
    "decode_batch_request",
    "decode_binary_frame",
    "decode_frame",
    "decode_msg_payload",
    "encode_batch_reply_frame",
    "encode_batch_request",
    "encode_binary_frame",
    "encode_frame",
    "encode_msg_frame",
    "list_chunk",
    "pack_verdict",
    "point_error",
    "unlisted_on",
]

#: Hard ceiling on one frame's payload (1 MiB — a 10K-query batch
#: fits with room to spare; nothing legitimate comes close). Applies
#: to both the JSON and the binary codec.
MAX_FRAME_BYTES = 1 << 20

#: Longest list id, in UTF-8 bytes, a verdict record can name: its
#: length prefix is one byte. An index refuses a longer one where the
#: listing enters (:mod:`repro.service.columns`), so the packer's own
#: check only ever meets objects no index produced.
MAX_LIST_ID_BYTES = 255

_HEADER = struct.Struct(">I")

#: Most bytes one :class:`FrameReader` ``recv`` asks for: small
#: enough that malloc serves it from the heap, never by ``mmap``.
_READ_CHUNK = 1 << 16


class WireSocket(Protocol):
    """What :class:`FrameReader` needs of a socket."""

    def recv(self, bufsize: int) -> bytes: ...


class WireError(ValueError):
    """A frame violated the protocol.

    ``recoverable`` is True when the byte stream is still in sync (the
    peer can be answered and the connection kept) or already at an end
    (peer cut mid-frame — nothing left to resynchronise); False when
    framing itself broke mid-stream and the connection must be closed.
    """

    def __init__(self, message: str, *, recoverable: bool = False) -> None:
        super().__init__(message)
        self.recoverable = recoverable
        #: For buffered parsers: bytes consumed up to the frame
        #: boundary where the stream resynchronises, when known.
        self.consumed: Optional[int] = None


def _encode_payload(obj: Any, max_size: int) -> bytes:
    """The one value encoding both framings carry: compact UTF-8 JSON."""
    try:
        payload = json.dumps(
            obj, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"unserialisable message: {exc}") from None
    if len(payload) > max_size:
        raise WireError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_size}-byte limit"
        )
    return payload


def encode_frame(obj: Any, *, max_size: int = MAX_FRAME_BYTES) -> bytes:
    """Serialise ``obj`` into one wire frame (header + JSON payload)."""
    payload = _encode_payload(obj, max_size)
    return _HEADER.pack(len(payload)) + payload


def _decode_payload(payload: bytes, max_size: int) -> Any:
    # Every caller checks the declared length before reading; this
    # bound keeps the decoder safe even if a new call site forgets to.
    if len(payload) > max_size:
        raise WireError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_size}-byte limit"
        )
    try:
        return json.loads(payload.decode("utf-8"))
    # RecursionError: ``[[[[…`` nested past the interpreter's limit is
    # the peer's malformation, not a crash — the boundary still held.
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise WireError(
            f"undecodable frame payload: {exc}", recoverable=True
        ) from None


def decode_frame(
    buffer: bytes, *, max_size: int = MAX_FRAME_BYTES
) -> Optional[Tuple[Any, int]]:
    """Decode the first complete frame of ``buffer``.

    Returns ``(message, bytes_consumed)``, or ``None`` when the buffer
    holds only an incomplete frame so far (read more and retry).
    Raises :class:`WireError` on violations.
    """
    if len(buffer) < _HEADER.size:
        return None
    (length,) = _HEADER.unpack_from(buffer)
    _check_length(length, max_size)
    end = _HEADER.size + length
    if len(buffer) < end:
        return None
    try:
        return _decode_payload(buffer[_HEADER.size : end], max_size), end
    except WireError as exc:
        # The boundary held even though the payload did not decode; a
        # buffered parser can skip to ``end`` and stay on the stream.
        exc.consumed = end
        raise


def _check_length(length: int, max_size: int) -> None:
    if length == 0:
        raise WireError("empty frame payload")
    if length > max_size:
        raise WireError(
            f"declared frame length {length} exceeds the "
            f"{max_size}-byte limit"
        )


# --------------------------------------------------------------------------
# Binary codec (protocol version 2, negotiated via ``hello``)
# --------------------------------------------------------------------------

#: First byte of every binary frame. A JSON frame's first byte is the
#: high octet of a length below MAX_FRAME_BYTES — always 0x00 — so the
#: magic also disambiguates a stream whose codec state was lost.
BINARY_MAGIC = 0xB1

#: Frame types: a generic JSON message, and one packed batch
#: request/reply pair per address family (bound to the family's
#: :class:`BinaryCodec` in :data:`CODECS`).
FT_MSG = 0
FT_BATCH_REQ = 1
FT_BATCH_REP = 2
FT_BATCH_REQ6 = 3
FT_BATCH_REP6 = 4

_BIN_HEADER = struct.Struct(">BBII")  # magic, ftype, request_id, length
BIN_HEADER_SIZE = _BIN_HEADER.size

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
#: A verdict record's ``epoch u32, seq u64``, just ahead of ``n_lists``.
_STAMP = struct.Struct(">IQ")


def encode_binary_frame(
    ftype: int,
    request_id: int,
    payload: bytes,
    *,
    max_size: int = MAX_FRAME_BYTES,
) -> bytes:
    """Wrap ``payload`` in a binary frame header."""
    if not payload:
        raise WireError("empty frame payload")
    if len(payload) > max_size:
        raise WireError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_size}-byte limit"
        )
    return (
        _BIN_HEADER.pack(
            BINARY_MAGIC, ftype, request_id & 0xFFFFFFFF, len(payload)
        )
        + payload
    )


def encode_msg_frame(
    obj: Any, request_id: int = 0, *, max_size: int = MAX_FRAME_BYTES
) -> bytes:
    """Serialise ``obj`` into one complete FT_MSG frame."""
    return encode_binary_frame(
        FT_MSG, request_id, _encode_payload(obj, max_size), max_size=max_size
    )


def decode_msg_payload(
    payload: bytes, *, max_size: int = MAX_FRAME_BYTES
) -> Any:
    """Decode an FT_MSG payload; every malformation raises the
    *recoverable* :class:`WireError` — the frame boundary was already
    known, so the stream stays in sync."""
    return _decode_payload(payload, max_size)


def decode_binary_frame(
    buffer: bytes, *, max_size: int = MAX_FRAME_BYTES
) -> Optional[Tuple[int, int, bytes, int]]:
    """Decode the first complete binary frame of ``buffer``.

    Returns ``(frame_type, request_id, payload, bytes_consumed)``, or
    ``None`` while the buffer holds only an incomplete frame. The
    payload is *not* interpreted — the caller dispatches on the frame
    type (and can answer an unknown type without losing sync, because
    the length was valid). Framing violations (bad magic, bad length)
    raise the fatal :class:`WireError`.
    """
    if len(buffer) < BIN_HEADER_SIZE:
        return None
    magic, ftype, request_id, length = _BIN_HEADER.unpack_from(buffer)
    if magic != BINARY_MAGIC:
        raise WireError(f"bad frame magic 0x{magic:02x}")
    _check_length(length, max_size)
    end = BIN_HEADER_SIZE + length
    if len(buffer) < end:
        return None
    return ftype, request_id, bytes(buffer[BIN_HEADER_SIZE:end]), end


class FrameReader:
    """Reads the frames of one blocking socket, parsed as the event
    loop's :class:`~repro.service.aio.Link` parses its input buffer.

    Every frame a ``recv`` brought is read out of the buffer, so a
    pipelined window's replies cost one or two ``recv`` calls. A
    second reader on the socket would miss what this one buffered.
    """

    __slots__ = ("_sock", "_max_size", "_buffer")

    def __init__(
        self, sock: WireSocket, max_size: int = MAX_FRAME_BYTES
    ) -> None:
        self._sock = sock
        self._max_size = max_size
        self._buffer = bytearray()

    def read(self, binary: bool = False) -> Any:
        """The next frame: a JSON frame's message or, with ``binary``,
        a binary frame's ``(frame_type, request_id, payload)``; ``None``
        at a clean EOF between frames. Raises :class:`WireError` as the
        decoder does (skipping an undecodable payload), and at EOF
        inside a frame: recoverable inside its header, fatal inside its
        payload. ``InterruptedError`` is retried, never read as EOF."""
        buffer = self._buffer
        if binary:
            decode, header = decode_binary_frame, BIN_HEADER_SIZE
        else:
            decode, header = decode_frame, _HEADER.size
        while True:
            try:
                frame = decode(buffer, max_size=self._max_size)
            except WireError as exc:
                if exc.consumed is not None:
                    del buffer[: exc.consumed]
                raise
            if frame is not None:
                del buffer[: frame[-1]]
                return frame[:3] if binary else frame[0]
            try:
                chunk = self._sock.recv(_READ_CHUNK)
            except InterruptedError:
                continue
            if not chunk:
                break
            buffer += chunk
        if not buffer:
            return None
        if len(buffer) < header:
            raise WireError(
                "connection closed inside a frame header", recoverable=True
            )
        raise WireError("connection closed inside a frame payload")


# -- packed batch codec (one instance per address family) -------------------

#: Record kinds inside a batch-reply payload.
REC_VERDICT = 0
REC_DEGRADED = 1

# Fixed-layout record templates; ``{addr}`` is the family's address
# field — a native ``I`` for 32-bit addresses, an N-byte big-endian
# string for wider ones.
_REQUEST_TEMPLATE = ">{addr}Bi"  # ip, has_day, day
_VERDICT_TEMPLATE = ">B{addr}iBBBIIIQB"
# kind, ip, day, flags, action, reuse_kind, users, asn, epoch, seq, n_lists
_DEGRADED_TEMPLATE = ">B{addr}BiI"  # kind, ip, has_day, day, shard

_FLAG_LISTED = 1
_FLAG_NATED = 2
_FLAG_DYNAMIC = 4
_FLAG_UNJUST = 8

_ACTION_TO_CODE = {
    BlockAction.IGNORE: 0,
    BlockAction.GREYLIST: 1,
    BlockAction.BLOCK: 2,
}
_CODE_TO_ACTION = {v: k for k, v in _ACTION_TO_CODE.items()}
_REUSE_TO_CODE = {"": 0, "nat": 1, "dynamic": 2, "nat+dynamic": 3}
_CODE_TO_REUSE = {v: k for k, v in _REUSE_TO_CODE.items()}


def _verdict_bits(key: int) -> Tuple[int, int]:
    nated, dynamic, listed, blocks = (key & bit for bit in (1, 2, 4, 8))
    flags = (_FLAG_NATED if nated else 0) | (_FLAG_DYNAMIC if dynamic else 0)
    if not listed:
        return flags, _ACTION_TO_CODE[BlockAction.IGNORE]
    if not flags:
        return _FLAG_LISTED, _ACTION_TO_CODE[BlockAction.BLOCK]
    action = BlockAction.BLOCK if blocks else BlockAction.GREYLIST
    return flags | _FLAG_LISTED | _FLAG_UNJUST, _ACTION_TO_CODE[action]


#: A verdict record's ``(flags, action code)`` by the key ``nated |
#: dynamic << 1 | listed << 2 | blocks << 3`` (its low two bits are the
#: reuse code; ``blocks``: a carrying list blocks even a reused
#: address). The Section 6 policy aggregated over the carrying lists,
#: as the index's record loop applies it: listed is ``block`` unless
#: reused and no list ``blocks`` (``greylist``); unlisted is ``ignore``.
VERDICT_BITS = tuple(map(_verdict_bits, range(16)))

#: The days a verdict record can carry: its ``day`` field is an i32.
RECORD_DAYS = range(-(1 << 31), 1 << 31)


def list_chunk(list_id: str) -> bytes:
    """One list id as a verdict record names it: a length byte, then
    its UTF-8 bytes."""
    raw = list_id.encode("utf-8")
    if len(raw) > MAX_LIST_ID_BYTES:
        raise WireError(
            f"verdict not binary-packable: list id of {len(raw)} bytes",
            recoverable=True,
        )
    return bytes((len(raw),)) + raw


#: Bound on a codec's table of decoded reply texts. A deployment names
#: hundreds of lists (the paper: 151); past the bound a text is simply
#: decoded again on every read.
_MAX_TEXTS = 4096

Pairs = List[Tuple[int, Optional[int]]]


def check_batch_size(count: int, limit: int) -> None:
    """Refuse a batch of ``count`` queries over ``limit``."""
    if count > limit:
        raise WireError(
            f"batch of {count} exceeds the {limit}-query limit",
            recoverable=True,
        )


def _truncated_record() -> WireError:
    return WireError("truncated batch reply record", recoverable=True)


def _unpackable_batch(why: object) -> WireError:
    return WireError(f"batch not binary-packable: {why}", recoverable=True)


class BinaryCodec:
    """The packed batch codec of one address family.

    Everything that differs between families is fixed here, at
    construction: the three record structs (one template each, address
    field substituted), the request/reply frame-type pair, and the
    address ↔ struct-field and struct-field → text conversions. Every
    layer above picks a codec — by family when sending
    (:data:`CODECS`), by request frame type when receiving
    (:data:`REQUEST_CODECS`) — and never branches on the family again.
    """

    def __init__(
        self, family: AddressFamily, ft_request: int, ft_reply: int
    ) -> None:
        self.family = family
        self.ft_request = ft_request
        self.ft_reply = ft_reply
        width = family.bits // 8
        addr = "I" if width == 4 else f"{width}s"
        self._request = struct.Struct(_REQUEST_TEMPLATE.format(addr=addr))
        self._raw_request = struct.Struct(f"{self._request.size}s")
        self._has_day_at = width
        self._verdict = struct.Struct(_VERDICT_TEMPLATE.format(addr=addr))
        self._degraded = struct.Struct(_DEGRADED_TEMPLATE.format(addr=addr))
        # Offset of a verdict record's action byte (reuse follows it):
        # behind kind, address, day and flags.
        self._action_at = 1 + width + 4 + 1
        #: ``bytes → str`` for the list ids and error texts replies
        #: carry, filled by :meth:`_skip_texts` up to _MAX_TEXTS entries.
        self._texts: Dict[bytes, str] = {}
        # A 32-bit address *is* its struct field: ``None`` converters
        # cost that path one ``is None`` test per record and no call.
        self._to_field: Optional[Callable[[int], bytes]] = None
        self._from_field: Optional[Callable[[bytes], int]] = None
        pack_head = partial(self._verdict.pack, REC_VERDICT)
        #: A verdict record but its list ids: ``(ip, day, flags, action,
        #: reuse, users, asn, epoch, seq, n_lists) → bytes``.
        self.pack_head: Callable[..., bytes] = pack_head
        text = family.format
        if width == 4:
            self._field_text = lru_cache(maxsize=1 << 16)(text)
            return
        from_bytes = int.from_bytes

        def to_field(ip: int) -> bytes:
            try:
                return ip.to_bytes(width, "big")
            except (AttributeError, OverflowError) as exc:
                raise WireError(
                    f"not an {family.name}-packable address: {ip!r} ({exc})",
                    recoverable=True,
                ) from None

        def from_field(raw: bytes) -> int:
            return from_bytes(raw, "big")

        def field_text(raw: bytes) -> str:
            return text(from_bytes(raw, "big"))

        def pack_wide_head(ip: int, *fields: int) -> bytes:
            return pack_head(to_field(ip), *fields)

        self._to_field, self._from_field = to_field, from_field
        self.pack_head = pack_wide_head
        self._field_text = lru_cache(maxsize=1 << 16)(field_text)

    # -- batch request -------------------------------------------------

    def encode_batch_request(
        self,
        pairs: Pairs,
        request_id: int,
        *,
        max_size: int = MAX_FRAME_BYTES,
    ) -> bytes:
        """Pack ``(ip_int, day_or_None)`` pairs into one batch-request
        frame of this family.

        Raises the recoverable :class:`WireError` when a value does not
        fit the packed layout (caller falls back to an FT_MSG batch):
        an address or day that is not exactly an ``int`` — a ``bool``
        is JSON's ``true``, not a day — or one out of the field's
        range. The one pass checks and packs, so a caller with clean
        pairs needs no pass of its own.
        """
        parts: List[bytes] = []
        append = parts.append
        pack = self._request.pack
        to_field = self._to_field
        try:
            for ip, day in pairs:
                if type(ip) is not int:
                    raise _unpackable_batch(f"address {ip!r} is not an int")
                field = ip if to_field is None else to_field(ip)
                if day is None:
                    append(pack(field, 0, 0))
                elif type(day) is int:
                    append(pack(field, 1, day))
                else:
                    raise _unpackable_batch(f"day {day!r} is not an int")
        except struct.error as exc:
            raise _unpackable_batch(exc) from None
        return self.encode_request_frame(parts, request_id, max_size=max_size)

    def pack_request(self, ip: int, day: Optional[int]) -> bytes:
        """``(ip, day)``'s request record, or a recoverable WireError."""
        field = ip if self._to_field is None else self._to_field(ip)
        try:
            return self._request.pack(field, day is not None, day or 0)
        except struct.error as exc:
            raise _unpackable_batch(exc) from None

    def encode_request_frame(
        self,
        records: List[bytes],
        request_id: int,
        *,
        max_size: int = MAX_FRAME_BYTES,
    ) -> bytes:
        """Assemble request records, as they stand, into one
        batch-request frame."""
        payload = _U32.pack(len(records)) + b"".join(records)
        return encode_binary_frame(
            self.ft_request, request_id, payload, max_size=max_size
        )

    def split_batch_request(self, payload: bytes, limit: int) -> List[bytes]:
        """A batch-request payload's records, raw bytes, in one pass."""
        raw = self._raw_request.iter_unpack(self._checked(payload, limit))
        return [record for (record,) in raw]

    def _checked(self, payload: bytes, limit: Optional[int]) -> memoryview:
        """A payload's records, once its length (and count) checks."""
        if len(payload) < 4:
            raise WireError("truncated batch request", recoverable=True)
        (count,) = _U32.unpack_from(payload)
        if len(payload) != 4 + count * self._request.size:
            raise WireError(
                "batch request length does not match its declared count",
                recoverable=True,
            )
        if limit is not None:
            check_batch_size(count, limit)
        return memoryview(payload)[4:]

    def check_requests(self, records: List[bytes]) -> None:
        """Refuse records with a ``has_day`` byte not 0 or 1, undecoded."""
        flags = b"".join(records)[self._has_day_at::self._request.size]
        bad = flags.translate(None, b"\0\1")
        if bad:
            raise WireError(
                f"bad has_day flag {bad[0]} in batch request",
                recoverable=True,
            )

    def decode_requests(self, records: List[bytes]) -> Pairs:
        """Request records, checked, as ``(ip, day)`` pairs (``day``
        ``None`` where ``has_day`` is 0, whatever the day bytes say)."""
        self.check_requests(records)
        try:
            fields = self._request.iter_unpack(b"".join(records))
        except struct.error:  # not whole records
            raise WireError("truncated batch request", recoverable=True)
        from_field = self._from_field
        return [
            (field if from_field is None else from_field(field),
             day if has_day else None)
            for field, has_day, day in fields
        ]

    def decode_batch_request(self, payload: bytes) -> Pairs:
        """Unpack a batch-request payload into ``(ip, day)`` pairs."""
        return self.decode_requests([self._checked(payload, None)])

    # -- batch reply: packing ------------------------------------------

    def pack_verdict(self, verdict: Any) -> bytes:
        """Pack one :class:`~repro.service.engine.Verdict` — or any
        object with its attributes, which need not be an engine's: the
        record says what the fields say — into a batch-reply record."""
        reuse_code = _REUSE_TO_CODE.get(verdict.reuse_kind)
        action_code = _ACTION_TO_CODE.get(verdict.action)
        if reuse_code is None or action_code is None:
            raise WireError(
                f"verdict not binary-packable: reuse_kind="
                f"{verdict.reuse_kind!r}, action={verdict.action!r}",
                recoverable=True,
            )
        flags = (
            (_FLAG_LISTED if verdict.listed else 0)
            | (_FLAG_NATED if verdict.nated else 0)
            | (_FLAG_DYNAMIC if verdict.dynamic else 0)
            | (_FLAG_UNJUST if verdict.unjust else 0)
        )
        ids = verdict.lists
        try:
            head = self.pack_head(
                verdict.ip, verdict.day, flags, action_code, reuse_code,
                verdict.users, verdict.asn, verdict.epoch, verdict.seq,
                len(ids),
            )
        except struct.error as exc:
            raise WireError(
                f"verdict not binary-packable: {exc}", recoverable=True
            ) from None
        return head + b"".join(map(list_chunk, map(str, ids))) if ids else head

    def pack_degraded(
        self, ip: int, day: Optional[int], shard: int, error: str
    ) -> bytes:
        """Pack one degraded (shard-unavailable) batch-reply record."""
        raw = error.encode("utf-8")
        if len(raw) > 255:
            # Cut on a character boundary: a split multi-byte sequence
            # would make the peer reject the whole reply as undecodable.
            raw = raw[:255].decode("utf-8", "ignore").encode("utf-8")
        to_field = self._to_field
        try:
            head = self._degraded.pack(
                REC_DEGRADED, ip if to_field is None else to_field(ip),
                0 if day is None else 1, 0 if day is None else day, shard,
            )
        except struct.error as exc:
            raise WireError(
                f"degraded entry not binary-packable: {exc}",
                recoverable=True,
            ) from None
        return head + bytes((len(raw),)) + raw

    def encode_batch_reply_frame(
        self,
        records: List[bytes],
        request_id: int,
        *,
        max_size: int = MAX_FRAME_BYTES,
    ) -> bytes:
        """Assemble packed records into one batch-reply frame."""
        payload = _U32.pack(len(records)) + b"".join(records)
        return encode_binary_frame(
            self.ft_reply, request_id, payload, max_size=max_size
        )

    # -- batch reply: slicing and views --------------------------------

    def split_batch_reply(self, payload: bytes) -> List[bytes]:
        """Slice a batch-reply payload into its raw records, validated
        but not decoded — the Router merges shard replies by
        concatenating these slices without ever building verdict
        dicts."""
        if len(payload) < 4:
            raise WireError("truncated batch reply", recoverable=True)
        (count,) = _U32.unpack_from(payload)
        size = len(payload)
        verdict_size = self._verdict.size
        degraded_size = self._degraded.size
        records: List[bytes] = []
        pos = 4
        for _ in range(count):
            if pos >= size:
                raise _truncated_record()
            kind = payload[pos]
            if kind == REC_VERDICT:
                end = pos + verdict_size
                if end > size:
                    raise _truncated_record()
                for _ in range(payload[end - 1]):  # n_lists
                    if end >= size:
                        raise _truncated_record()
                    end += 1 + payload[end]
            elif kind == REC_DEGRADED:
                end = pos + degraded_size
                if end >= size:
                    raise _truncated_record()
                end += 1 + payload[end]
            else:
                raise WireError(
                    f"unknown batch record kind {kind}", recoverable=True
                )
            if end > size:
                raise _truncated_record()
            records.append(payload[pos:end])
            pos = end
        if pos != size:
            raise WireError(
                f"{size - pos} trailing bytes after batch reply",
                recoverable=True,
            )
        return records

    def reply_seq(self, records: List[bytes]) -> Optional[int]:
        """The ``seq`` of split reply ``records``' first verdict record,
        read in place (only ``n_lists`` follows it); ``None`` if none."""
        first, size = records[0] if records else b"", self._verdict.size
        if len(first) >= size and first[0] == REC_VERDICT:
            return _U64.unpack_from(first, size - 9)[0]
        return None

    def carry(
        self,
        table: Dict[bytes, bytes],
        changed: AbstractSet[int],
        epoch: int,
        seq: int,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """``table``'s ``(request record, verdict record)`` items whose
        address is not in ``changed``, each record's ``epoch`` and
        ``seq`` overwritten in place of the old ones: what such an
        address answers in the epoch after the table's. Lazy, in table
        order, and builtins all the way down — no bytecode runs per
        record — so a caller can take it a slice at a time; ``table``
        must not change meanwhile."""
        width, at = self._has_day_at, self._verdict.size - 1 - _STAMP.size
        moved = frozenset(
            map(int.to_bytes, changed, repeat(width), repeat("big"))
        ).__contains__
        kept = map(not_, map(moved, map(itemgetter(slice(width)), table)))
        records = table.values()
        restamped = map(
            _STAMP.pack(epoch, seq).join,
            zip(
                map(itemgetter(slice(at)), records),
                map(itemgetter(slice(at + _STAMP.size, None)), records),
            ),
        )
        return compress(zip(table, restamped), kept)

    def decode_record(self, record: bytes) -> "RecordView":
        """The view of one packed record (a :meth:`split_batch_reply`
        slice), validated like a one-record reply."""
        (view,) = self._views(record, 0, 1)
        return view

    def decode_batch_reply(self, payload: bytes) -> List["RecordView"]:
        """Validate a batch-reply payload and slice it into one
        :class:`RecordView` per record — mappings equal, field for
        field, to the wire dicts the JSON codec produces, so clients
        cannot tell the codecs apart by content.

        Everything that can be wrong with the payload is found here
        and raised as the recoverable :class:`WireError`: a view that
        was handed out never raises on access."""
        if len(payload) < 4:
            raise WireError("truncated batch reply", recoverable=True)
        (count,) = _U32.unpack_from(payload)
        return self._views(payload, 4, count)

    def _views(
        self, payload: bytes, pos: int, count: int
    ) -> List["RecordView"]:
        """Views of exactly ``count`` records filling ``payload[pos:]``.
        Walks the records as :meth:`split_batch_reply` does and checks,
        besides the bounds, what a view later trusts: the action and
        reuse codes (two byte reads) and that every text is UTF-8."""
        size = len(payload)
        verdict_size = self._verdict.size
        degraded_size = self._degraded.size
        action_at = self._action_at
        skip_texts = self._skip_texts
        views: List[RecordView] = []
        append = views.append
        for _ in range(count):
            if pos >= size:
                raise _truncated_record()
            kind = payload[pos]
            if kind == REC_VERDICT:
                end = pos + verdict_size
                if end > size:
                    raise _truncated_record()
                if (
                    payload[pos + action_at] not in _CODE_TO_ACTION
                    or payload[pos + action_at + 1] not in _CODE_TO_REUSE
                ):
                    raise WireError(
                        f"bad verdict codes action="
                        f"{payload[pos + action_at]} "
                        f"reuse={payload[pos + action_at + 1]}",
                        recoverable=True,
                    )
                if payload[end - 1]:  # n_lists
                    end = skip_texts(payload, end, payload[end - 1])
            elif kind == REC_DEGRADED:
                end = skip_texts(payload, pos + degraded_size, 1)
            else:
                raise WireError(
                    f"unknown batch record kind {kind}", recoverable=True
                )
            append(RecordView(self, payload, pos))
            pos = end
        if pos != size:
            raise WireError(
                f"{size - pos} trailing bytes after batch reply",
                recoverable=True,
            )
        return views

    def _skip_texts(self, payload: bytes, pos: int, count: int) -> int:
        """Step over ``count`` u8-length-prefixed texts from ``pos``,
        checking their bounds and that each is UTF-8; returns the
        offset behind the last. A text seen for the first time is
        decoded into the codec's bounded table, which :meth:`_text`
        reads for the views — list ids and error texts are few and
        repeat on every record."""
        size = len(payload)
        texts = self._texts
        for _ in range(count):
            if pos >= size:
                raise _truncated_record()
            end = pos + 1 + payload[pos]
            if end > size:
                raise _truncated_record()
            raw = payload[pos + 1 : end]
            if raw not in texts:
                try:
                    text = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise WireError(
                        f"undecodable text in batch record: {exc}",
                        recoverable=True,
                    ) from None
                if len(texts) < _MAX_TEXTS:
                    texts[raw] = text
            pos = end
        return pos

    def _text(self, raw: bytes) -> str:
        """The text of bytes :meth:`_skip_texts` accepted."""
        text = self._texts.get(raw)
        return raw.decode("utf-8") if text is None else text


class RecordView(Mapping):  # type: ignore[type-arg]
    """One record of a batch reply, read in place.

    A read-only mapping over the record's bytes that equals the wire
    dict of the same verdict (or degraded entry). Membership and length
    are answered from the kind byte; the first field read unpacks the
    fixed struct, once; the ``ip`` and ``lists`` strings are built when
    asked for, each time anew. :meth:`BinaryCodec.decode_batch_reply`
    validated everything a read relies on, so no access raises (beyond
    ``KeyError`` for a key the record does not have).

    A view pins the whole reply payload it points into until it is
    dropped; :meth:`to_wire` is the detached copy to keep or to hand to
    ``json``.
    """

    __slots__ = ("_codec", "_payload", "_offset", "_fields")

    def __init__(self, codec: BinaryCodec, payload: bytes, offset: int) -> None:
        self._codec = codec
        self._payload = payload
        self._offset = offset
        self._fields: Optional[Tuple[Any, ...]] = None

    def _unpack(self) -> Tuple[Any, ...]:
        codec = self._codec
        fixed = (
            codec._verdict
            if self._payload[self._offset] == REC_VERDICT
            else codec._degraded
        )
        # The record's bounds were checked by ``BinaryCodec._views``
        # before this view existed.
        # reprolint: disable=WIRE
        fields = self._fields = fixed.unpack_from(self._payload, self._offset)
        return fields

    def _ip(self, fields: Tuple[Any, ...]) -> str:
        return self._codec._field_text(fields[1])

    def _lists(self, fields: Tuple[Any, ...]) -> List[str]:
        payload = self._payload
        text = self._codec._text
        pos = self._offset + self._codec._verdict.size
        lists = []
        for _ in range(fields[10]):  # n_lists
            end = pos + 1 + payload[pos]
            lists.append(text(payload[pos + 1 : end]))
            pos = end
        return lists

    def _error(self, fields: Tuple[Any, ...]) -> str:
        payload = self._payload
        pos = self._offset + self._codec._degraded.size
        return self._codec._text(payload[pos + 1 : pos + 1 + payload[pos]])

    def __getitem__(self, key: str) -> Any:
        fields = self._fields or self._unpack()
        return _RECORD_FIELDS[fields[0]][key](self, fields)

    def __contains__(self, key: object) -> bool:
        return key in _RECORD_FIELDS[self._payload[self._offset]]

    def __iter__(self) -> Iterator[str]:
        return iter(_RECORD_FIELDS[self._payload[self._offset]])

    def __len__(self) -> int:
        return len(_RECORD_FIELDS[self._payload[self._offset]])

    def to_wire(self) -> Dict[str, Any]:
        """The record as a plain wire dict, sharing nothing with the
        reply payload; ``dict(view)`` builds the same, slower. Spelled
        out rather than looped over ``_RECORD_FIELDS`` because whoever
        wants every field (JSON output, the router's JSON downstream)
        wants it at the old decoder's price, not thirteen calls."""
        fields = self._fields or self._unpack()
        if fields[0] == REC_VERDICT:
            (
                _kind, _field, day, flags, action_code, reuse_code,
                users, asn, epoch, seq, n_lists,
            ) = fields
            return {
                "ip": self._ip(fields),
                "day": day,
                "listed": bool(flags & _FLAG_LISTED),
                "lists": self._lists(fields) if n_lists else [],
                "nated": bool(flags & _FLAG_NATED),
                "dynamic": bool(flags & _FLAG_DYNAMIC),
                "unjust": bool(flags & _FLAG_UNJUST),
                "reuse_kind": _CODE_TO_REUSE[reuse_code],
                "users": users,
                "asn": asn,
                "action": _CODE_TO_ACTION[action_code],
                "epoch": epoch,
                "seq": seq,
            }
        _kind, _field, has_day, day, shard = fields
        return {
            "ip": self._ip(fields),
            "day": day if has_day else None,
            "error": self._error(fields),
            "shard": shard,
        }

    def __eq__(self, other: object) -> bool:
        return self.to_wire() == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RecordView({self.to_wire()!r})"


# Indexed by record kind: wire key → value, from the view and its
# unpacked fixed struct (``f``), in the key order of
# ``Verdict.to_wire()`` and of the router's degraded entry.
_RECORD_FIELDS: Tuple[
    Dict[str, Callable[[RecordView, Tuple[Any, ...]], Any]], ...
] = (
    {  # REC_VERDICT; f = kind, ip, day, flags, action, reuse_kind,
        # users, asn, epoch, seq, n_lists
        "ip": RecordView._ip,
        "day": lambda view, f: f[2],
        "listed": lambda view, f: bool(f[3] & _FLAG_LISTED),
        "lists": RecordView._lists,
        "nated": lambda view, f: bool(f[3] & _FLAG_NATED),
        "dynamic": lambda view, f: bool(f[3] & _FLAG_DYNAMIC),
        "unjust": lambda view, f: bool(f[3] & _FLAG_UNJUST),
        "reuse_kind": lambda view, f: _CODE_TO_REUSE[f[5]],
        "users": lambda view, f: f[6],
        "asn": lambda view, f: f[7],
        "action": lambda view, f: _CODE_TO_ACTION[f[4]],
        "epoch": lambda view, f: f[8],
        "seq": lambda view, f: f[9],
    },
    {  # REC_DEGRADED; f = kind, ip, has_day, day, shard
        "ip": RecordView._ip,
        "day": lambda view, f: f[3] if f[2] else None,
        "error": RecordView._error,
        "shard": lambda view, f: f[4],
    },
)


def point_error(entry: Mapping[str, Any]) -> str:
    """The in-band error a point query's degraded answer (a record
    view or its wire dict) becomes, on either codec."""
    return f"{entry['error']}: shard {entry['shard']} has no live backend"


def unlisted_on(answer: Dict[str, Any], day: int) -> Dict[str, Any]:
    """The wire dict answering a day outside :data:`RECORD_DAYS`, which
    no request record can carry, made from ``answer``, the address's
    wire dict on the default day. No listing holds such a day (every
    interval day is an i32), so a verdict becomes unlisted on ``day``;
    a degraded answer only reports ``day``."""
    if "error" in answer:
        return {**answer, "day": day}
    return {
        **answer,
        "day": day,
        "listed": False,
        "lists": [],
        "unjust": False,
        "action": BlockAction.IGNORE,
    }


#: The sending side's lookup: ``family → codec``. The frame-type pair
#: doubles as the family tag on the wire.
CODECS: Dict[AddressFamily, BinaryCodec] = {
    V4: BinaryCodec(V4, FT_BATCH_REQ, FT_BATCH_REP),
    V6: BinaryCodec(V6, FT_BATCH_REQ6, FT_BATCH_REP6),
}

#: The receiving side's lookup: ``request frame type → codec``. (Reply
#: frames are checked against the ``ft_reply`` of the codec that sent
#: the request.)
REQUEST_CODECS: Dict[int, BinaryCodec] = {
    codec.ft_request: codec for codec in CODECS.values()
}

# The v4 codec's methods under their historical module-level names.
_V4_CODEC = CODECS[V4]
encode_batch_request = _V4_CODEC.encode_batch_request
decode_batch_request = _V4_CODEC.decode_batch_request
pack_verdict = _V4_CODEC.pack_verdict
encode_batch_reply_frame = _V4_CODEC.encode_batch_reply_frame
decode_batch_reply = _V4_CODEC.decode_batch_reply

# Kept only for the frozen ``wire.v6_req_roundtrip_us_per_q`` probe in
# benchmarks/serving/probes.py; they go when a benchmark PR retargets
# it at ``CODECS[V6]``.
encode_batch_request6 = CODECS[V6].encode_batch_request
decode_batch_request6 = CODECS[V6].decode_batch_request
