"""Blocking client for the reputation service.

Speaks the wire protocol of :mod:`repro.service.server` over one TCP
connection. Requests default to strictly sequential (one frame out,
one frame back), which is all a per-connection blocklist check needs;
:meth:`ReputationClient.query_batch_pipelined` keeps a window of
batches in flight for bulk consumers. Server-side error replies
surface as :class:`ServiceError`.

The client starts every connection on the length-prefixed JSON codec.
With ``codec="auto"`` (the default) or ``codec="binary"`` it offers
the binary framing in its ``hello`` handshake and switches when the
server accepts. Against an older server the offer is ignored:
``auto`` simply stays on JSON, so one client build works across a
mixed fleet, while ``binary`` was a demand and the constructor raises
:class:`TransportError`. On a binary connection a point query is a
packed batch frame of one pair, like any batch the packed layout can
carry; the rest take the JSON op's shape.

A :class:`TransportError` is final for its connection: whatever ends
an exchange with the stream position unknown (a timeout, a cut, a
frame that does not encode or decode, a reply to some other request)
closes the socket before the error leaves, so a late reply can never
be read as the answer to a later request — every later call raises
``TransportError("client is closed")``. A plain :class:`ServiceError`
(the server's own in-band error) leaves the connection usable.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..net.family import V4, AddressFamily
from .wire import (
    CODECS,
    MAX_FRAME_BYTES,
    FT_MSG,
    FrameReader,
    RecordView,
    WireError,
    decode_msg_payload,
    encode_frame,
    encode_msg_frame,
    point_error,
)

__all__ = ["ReputationClient", "ServiceError", "TransportError"]

IpLike = Union[int, str]
Query = Tuple[IpLike, Optional[int]]


class ServiceError(RuntimeError):
    """The server answered with an error, or the connection failed."""


class TransportError(ServiceError):
    """The connection itself failed (refused, cut, garbled framing).

    Distinct from a server-sent error reply: the cluster router treats
    a :class:`TransportError` as "this backend is down — fail over",
    while a plain :class:`ServiceError` means the backend is alive and
    rejected the request.
    """


def _int_pairs(
    queries: List[Query], family: AddressFamily = V4
) -> Optional[List[Tuple[int, Optional[int]]]]:
    """Convert queries to the packed-batch layout, or ``None`` when any
    value needs the JSON path (unparseable ip, out-of-range day) so the
    server — not the codec — produces the error. The pairs hold exact
    ``int``s (and ``None`` days), which is all the packer takes."""
    pairs: List[Tuple[int, Optional[int]]] = []
    for ip, day in queries:
        if isinstance(ip, int):
            ip_int = int(ip)
        elif isinstance(ip, str):
            try:
                ip_int = family.parse(ip)
            except ValueError:
                return None
        else:
            return None
        if not 0 <= ip_int <= family.max_int:
            return None
        if day is not None and (
            isinstance(day, bool)
            or not isinstance(day, int)
            or not -(1 << 31) <= day < (1 << 31)
        ):
            return None
        pairs.append((ip_int, None if day is None else int(day)))
    return pairs


class ReputationClient:
    """One connection to a :class:`~repro.service.server.ReputationServer`.

    Thread-safe: a lock serialises request/reply exchanges, so one
    client may be shared, though one-per-thread scales better.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7339,
        *,
        timeout: float = 10.0,
        max_frame: int = MAX_FRAME_BYTES,
        codec: str = "auto",
        family: AddressFamily = V4,
    ) -> None:
        if codec not in ("auto", "json", "binary"):
            raise ValueError(f"unknown codec {codec!r}")
        self._max_frame = max_frame
        #: The address family queries are formatted/packed in: its
        #: batch frame types on the binary codec, its text literals on
        #: JSON (the JSON request shape itself is family-agnostic).
        self._family = family
        self._batch_codec = CODECS[family]
        self._lock = threading.Lock()
        self._codec = "json"
        self._rid = 0
        try:
            self._sock: Optional[socket.socket] = socket.create_connection(
                (host, port), timeout=timeout
            )
        except OSError as exc:
            raise TransportError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from None
        self._frames = FrameReader(self._sock, max_frame)
        try:
            # Small request/reply frames must not sit in Nagle's buffer.
            self._sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            if codec != "json":
                self._negotiate_binary()
            if codec == "binary" and self._codec != "binary":
                raise TransportError(
                    f"server at {host}:{port} did not accept the "
                    f'binary codec (codec="auto" falls back to JSON)'
                )
        except (ServiceError, OSError):
            self.close()
            raise

    @property
    def codec(self) -> str:
        """The negotiated framing: ``"json"`` or ``"binary"``."""
        return self._codec

    # -- plumbing ------------------------------------------------------

    def _negotiate_binary(self) -> None:
        """Offer the binary codec; stay on JSON when refused/ignored."""
        try:
            result = self._rpc(
                {"op": "hello", "accept_codecs": ["binary"]}
            )
        except TransportError:
            raise
        except ServiceError:
            return  # pre-negotiation server: keep speaking JSON
        if isinstance(result, dict) and result.get("codec") == "binary":
            self._codec = "binary"

    def _checked_sock(self) -> socket.socket:
        if self._sock is None:
            raise TransportError("client is closed")
        return self._sock

    def _ended(self, exc: BaseException) -> BaseException:
        """What an exchange (or a pipelined run of them) that ended in
        ``exc`` raises; the caller holds the lock. Only the server's
        own in-band error leaves the stream in step. Anything else
        leaves replies unread or half-read, so the socket is closed
        before the error leaves: no later call can read this one's
        late reply."""
        if isinstance(exc, ServiceError) and not isinstance(
            exc, TransportError
        ):
            return exc
        self._drop()
        if isinstance(exc, (WireError, OSError)):
            return TransportError(f"transport failure: {exc}")
        return exc

    def _drop(self) -> None:
        """Close the socket; the caller holds the lock."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _next_rid(self) -> int:
        self._rid = (self._rid + 1) & 0xFFFFFFFF
        return self._rid

    def _msg_frame(self, request: Dict[str, Any], rid: int) -> bytes:
        """``request``, a JSON op, framed for the negotiated codec: an
        ``FT_MSG`` frame tagged ``rid``, or a JSON frame (no id)."""
        if self._codec == "binary":
            return encode_msg_frame(request, rid, max_size=self._max_frame)
        return encode_frame(request, max_size=self._max_frame)

    def _reply(self, rid: int) -> Any:
        """Read the reply to request ``rid``, the one place the client
        reads a frame: a JSON or ``FT_MSG`` reply's ``result`` (its
        in-band error raised as :class:`ServiceError`), or a packed
        batch reply's payload as it came."""
        binary = self._codec == "binary"
        reply = self._frames.read(binary)
        if reply is None:
            raise TransportError("server closed the connection")
        if binary:
            ftype, got_rid, payload = reply
            if got_rid != rid:
                raise TransportError(
                    f"reply for request {got_rid}, expected {rid}"
                )
            if ftype == self._batch_codec.ft_reply:
                return payload
            if ftype != FT_MSG:
                raise TransportError(f"unexpected reply frame type {ftype}")
            reply = decode_msg_payload(payload, max_size=self._max_frame)
        if not isinstance(reply, dict):
            raise TransportError(f"malformed reply: {reply!r}")
        if not reply.get("ok"):
            raise ServiceError(str(reply.get("error", "unknown error")))
        return reply.get("result")

    def _rpc(self, request: Dict[str, Any]) -> Any:
        with self._lock:
            sock = self._checked_sock()
            try:
                # A JSON frame carries no id: take one only for the wire.
                rid = self._next_rid() if self._codec == "binary" else 0
                sock.sendall(self._msg_frame(request, rid))
                result = self._reply(rid)
                if isinstance(result, bytes):
                    raise TransportError(
                        f"batch reply frame type "
                        f"{self._batch_codec.ft_reply} to a JSON op"
                    )
                return result
            except BaseException as exc:
                raise self._ended(exc) from None

    def call(self, request: Dict[str, Any]) -> Any:
        """Send one already-shaped request object, return its result.

        The typed helpers below cover normal use; this sends an op they
        do not wrap, or a request shaped by hand, as it is given.
        """
        return self._rpc(request)

    @property
    def family(self) -> AddressFamily:
        """The address family this client queries in."""
        return self._family

    def _wire_ip(self, ip: IpLike) -> str:
        return self._family.format(ip) if isinstance(ip, int) else str(ip)

    # -- batch plumbing ------------------------------------------------

    def _batch_reply(self, rid: int, size: int) -> List[Mapping[str, Any]]:
        """The verdicts answering request ``rid``, a batch of ``size``.
        A reply of any other length cannot be paired with its queries —
        the caller's ``zip`` would drop or shift verdicts — so it is a
        transport failure, like a reply to another request."""
        verdicts = self._reply(rid)
        if isinstance(verdicts, bytes):
            verdicts = self._batch_codec.decode_batch_reply(verdicts)
        if not isinstance(verdicts, list):
            raise TransportError(f"malformed batch reply: {verdicts!r}")
        if len(verdicts) != size:
            raise TransportError(
                f"reply of {len(verdicts)} verdicts to a batch of "
                f"{size} queries"
            )
        return verdicts

    def _packed_frame(
        self, queries: List[Query], rid: int
    ) -> Optional[bytes]:
        """``queries`` as one packed request frame, or ``None`` when they
        take the JSON request shape, so the server's validation errors
        stay identical across codecs. The packer checks exact ints in
        range in its one pass; only queries it refuses are looked at
        value by value (text addresses parse, the rest is JSON's)."""
        encode = self._batch_codec.encode_batch_request
        try:
            return encode(queries, rid, max_size=self._max_frame)
        except WireError:
            pairs = _int_pairs(queries, self._family)
        try:
            return None if pairs is None else encode(
                pairs, rid, max_size=self._max_frame
            )
        except WireError:
            return None

    def _encode_batch(self, queries: List[Query], rid: int) -> bytes:
        """One batch request frame: packed where :meth:`_packed_frame`
        packs it on a binary connection, else the JSON ``batch`` op."""
        if self._codec == "binary":
            frame = self._packed_frame(queries, rid)
            if frame is not None:
                return frame
        request = {
            "op": "batch",
            "queries": [
                {"ip": self._wire_ip(ip), "day": day} for ip, day in queries
            ],
        }
        return self._msg_frame(request, rid)

    # -- operations ----------------------------------------------------

    def query(self, ip: IpLike, day: Optional[int] = None) -> Dict[str, Any]:
        """Point query; returns the verdict as a plain dict. On a binary
        connection a query :meth:`_packed_frame` packs is a batch of
        one. A degraded answer raises the same :class:`ServiceError` on
        either codec."""
        if self._codec == "binary":
            with self._lock:
                sock = self._checked_sock()
                rid = self._next_rid()
                frame = self._packed_frame([(ip, day)], rid)
                if frame is not None:
                    try:
                        sock.sendall(frame)
                        (verdict,) = self._batch_reply(rid, 1)
                    except BaseException as exc:
                        raise self._ended(exc) from None
                    if "error" in verdict:
                        raise ServiceError(point_error(verdict))
                    if isinstance(verdict, RecordView):
                        return verdict.to_wire()
                    return dict(verdict)  # an FT_MSG reply's dict
        request: Dict[str, Any] = {"op": "query", "ip": self._wire_ip(ip)}
        if day is not None:
            request["day"] = day
        return self._rpc(request)

    def query_batch(
        self, queries: Iterable[Tuple[IpLike, Optional[int]]]
    ) -> List[Mapping[str, Any]]:
        """Batch query; verdicts come back in request order, one per
        query, as read-only mappings: plain dicts on the JSON codec,
        :class:`~repro.service.wire.RecordView` on the binary one —
        equal field for field, but a view reads its reply's bytes in
        place and pins them while it lives. Keep ``dict(verdict)``
        (or ``verdict.to_wire()``), not the view, beyond the call, and
        hand ``json`` the same."""
        return self.query_batch_pipelined([queries], window=1)[0]

    def query_batch_pipelined(
        self,
        batches: Iterable[Iterable[Tuple[IpLike, Optional[int]]]],
        *,
        window: int = 16,
    ) -> List[List[Mapping[str, Any]]]:
        """Send many batches with up to ``window`` in flight.

        Writes are coalesced — a window's worth of request frames goes
        out in one ``sendall`` — and replies are matched back in FIFO
        order (the server guarantees reply order per connection), so
        the round-trip latency is paid once per window instead of once
        per batch. Works on both codecs.

        Returns one verdict list per batch, in request order, each as
        long as its batch (see :meth:`query_batch` for what a verdict
        is); a reply of another length is a :class:`TransportError`.
        If the server rejects a batch, the remaining in-flight replies
        are drained first (keeping the connection usable) and the
        first error is raised.
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        batch_list = [list(b) for b in batches]
        with self._lock:
            sock = self._checked_sock()
            results: List[List[Mapping[str, Any]]] = [
                [] for _ in batch_list
            ]
            pending: Deque[Tuple[int, int]] = deque()
            first_error: Optional[ServiceError] = None
            next_send = 0
            try:
                while next_send < len(batch_list) or pending:
                    out = bytearray()
                    while (
                        next_send < len(batch_list)
                        and len(pending) < window
                    ):
                        index = next_send
                        next_send += 1
                        rid = self._next_rid()
                        out += self._encode_batch(batch_list[index], rid)
                        pending.append((index, rid))
                    if out:
                        sock.sendall(out)
                    index, rid = pending.popleft()
                    try:
                        results[index] = self._batch_reply(
                            rid, len(batch_list[index])
                        )
                    except TransportError:
                        raise
                    except ServiceError as exc:
                        if first_error is None:
                            first_error = exc
            except BaseException as exc:
                raise self._ended(exc) from None
        if first_error is not None:
            raise first_error
        return results

    def stats(self) -> Dict[str, Any]:
        """Server-side engine/index counters."""
        return self._rpc({"op": "stats"})

    def hello(self) -> Dict[str, Any]:
        """The handshake: protocol version plus the server's current
        index ``epoch`` and last-applied ``seq`` (both advance while a
        ``--follow`` server ingests its update log)."""
        return self._rpc({"op": "hello"})

    def ping(self) -> bool:
        """Liveness probe."""
        return self._rpc({"op": "ping"}) == "pong"

    def close(self) -> None:
        """Close the connection (idempotent)."""
        with self._lock:
            self._drop()

    def __enter__(self) -> "ReputationClient":
        return self

    def __exit__(self, *_: Any) -> None:
        self.close()
