"""One fake peer for every test that needs a server to misbehave.

:class:`FakePeer` serves any number of connections, each on a thread
of its own until its peer's EOF. A connection starts on JSON framing
and switches to binary once it answered a ``hello`` granting it.
``answer`` scripts every reply, the negotiation ``hello`` included: it
gets a JSON object, or the ``(ip, day)`` pairs of a packed batch frame
of either family, and returns ``None`` (no reply), ``bytes`` (a packed
batch-reply payload of the asked family), an ``(ftype, payload)`` pair
(one binary frame of any type), or else the ``result`` of an ok reply.
"""

from __future__ import annotations

import contextlib
import socket
import threading
from typing import Any, Callable, Optional

from repro.net.family import V4, V6
from repro.service.engine import Verdict
from repro.service.wire import (
    CODECS, FT_MSG, REQUEST_CODECS, FrameReader, WireError, decode_msg_payload,
    encode_binary_frame, encode_frame, encode_msg_frame,
)


def verdict(family=V4, **overrides) -> Verdict:
    """A listed verdict with every field set, ``overrides`` applied."""
    ip = 0x01020304 if family is V4 else (0x20010DB8 << 96) | 0x1234
    return Verdict(**{
        "ip": ip, "day": 17, "listed": True, "lists": ("dnsbl-alpha", "dnsbl-beta"),
        "nated": True, "dynamic": False, "unjust": True, "reuse_kind": "nat",
        "users": 37, "asn": 64500, "action": "greylist", "epoch": 3, "seq": 41,
        "family": family, **overrides,
    })


def polite(request: Any) -> Any:
    """A well-behaved server's answer to a control message: ``pong``
    to a ``ping``; to a ``hello`` epoch and seq 0, granting the binary
    codec where it is offered. ``None`` to anything else."""
    op = request.get("op") if isinstance(request, dict) else None
    if op == "hello":
        offered = "binary" in request.get("accept_codecs", ())
        return {"epoch": 0, "seq": 0, **({"codec": "binary"} if offered else {})}
    return "pong" if op == "ping" else None


class FakePeer:
    """``answer`` (a script, or a subclass's method) decides every
    reply, :meth:`send` puts it on the wire; :meth:`close` frees the
    port and ends the accept thread."""

    def __init__(self, answer: Optional[Callable[[Any], Any]] = None) -> None:
        if answer is not None:
            self.answer = answer  # type: ignore[method-assign]
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.address = self._sock.getsockname()[:2]
        self._accepting = threading.Thread(target=self._accept_loop, daemon=True)
        self._accepting.start()

    def answer(self, request: Any) -> Any:
        return polite(request)

    def send(self, conn: socket.socket, frame: bytes) -> None:
        """Put one reply frame on the wire; a subclass may garble it."""
        conn.sendall(frame)

    def _accept_loop(self) -> None:
        with contextlib.suppress(OSError):
            while True:
                conn, _ = self._sock.accept()
                threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        binary, frames = False, FrameReader(conn)
        with conn, contextlib.suppress(WireError, OSError):
            while (got := frames.read(binary)) is not None:
                rid, codec, request = 0, CODECS[V4], got
                if binary:
                    ftype, rid, payload = got
                    codec = REQUEST_CODECS.get(ftype, codec)
                    request = (
                        decode_msg_payload(payload) if ftype == FT_MSG
                        else codec.decode_batch_request(payload)
                    )
                result = self.answer(request)
                if isinstance(result, bytes):
                    result = (codec.ft_reply, result)
                if isinstance(result, tuple):
                    self.send(conn, encode_binary_frame(result[0], rid, result[1]))
                elif result is not None:
                    reply = {"ok": True, "result": result}
                    self.send(conn, encode_msg_frame(reply, rid) if binary
                              else encode_frame(reply))
                binary = binary or (
                    isinstance(request, dict) and request.get("op") == "hello"
                    and isinstance(result, dict) and result.get("codec") == "binary"
                )

    def close(self) -> None:
        # close() alone would leave accept() blocked, and the port
        # listening, until one more peer came.
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()
        self._accepting.join(timeout=5.0)


def silent(request: Any) -> Any:
    """``pong`` to a ping on any connection — so probes over throwaway
    connections would find it alive — and nothing else: a router's
    link never hears its binary-codec ``hello`` answered."""
    return "pong" if request == {"op": "ping"} else None


def json_only(request: Any) -> Any:
    """A server from before the negotiation: no ``hello`` grants."""
    return silent(request) or {"protocol": 1}


def garbled(payload: bytes) -> Callable[[Any], Any]:
    """Every packed batch answered with the ``FT_MSG`` ``payload``,
    which is no batch reply."""

    def answer(request: Any) -> Any:
        return polite(request) if isinstance(request, dict) else (FT_MSG, payload)

    return answer


def wrong_family(family) -> Callable[[Any], Any]:
    """Every packed batch answered with records that *would* decode
    under ``family``'s layout, in a frame typed as the other family's
    reply: only the frame type check stands between them and the
    client."""
    other = CODECS[V4 if family is V6 else V6]
    record = CODECS[family].pack_verdict(verdict(family))

    def answer(request: Any) -> Any:
        if isinstance(request, dict):
            return polite(request)
        return other.ft_reply, len(request).to_bytes(4, "big") + record * len(request)

    return answer
