"""Single-threaded event-loop serving core for the wire protocol.

The thread-per-connection server capped out on thread switches and
per-request syscalls long before the query engine did, so the serving
plane runs on one :class:`Reactor` — a ``selectors`` readiness loop —
with per-connection read/write buffers and *pipelining*: a peer may
have any number of request frames in flight on one connection, and
replies always come back in request order.

Three layers:

* :class:`Reactor` — the loop: readiness callbacks, monotonic timers,
  and a ``call_soon`` queue fed from other threads through a
  socketpair waker. Everything else runs *on* the loop thread.
* :class:`Conn` + :class:`Slot` — per-connection state. Each parsed
  request takes a :class:`Slot` in the connection's reply queue;
  completing a slot (in any order) releases every reply at the queue
  head, which keeps pipelined replies ordered even when an upstream
  answers out of order (the router's case).
* :class:`WireServer` — accept loop, frame parsing for both codecs
  (length-prefixed JSON and the binary framing of
  :mod:`repro.service.wire`), the recoverable/fatal error split, idle
  timeouts, and graceful shutdown. Requests are handed to a
  ``handler(conn, slot, kind, data)`` callback; ``kind`` is ``"msg"``
  (one decoded request object) or ``"batch"`` (packed ``(ip, day)``
  pairs from a batch-request frame; ``slot.batch_codec`` is the
  :class:`~repro.service.wire.BinaryCodec` — hence the address
  family — the frame type resolved to).

The handler runs on the loop thread and must not block; the
reputation server answers inline, the cluster router completes slots
later from upstream readiness events on the same loop.
"""

from __future__ import annotations

import heapq
import itertools
import selectors
import socket
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from .wire import (
    FT_MSG,
    MAX_FRAME_BYTES,
    REQUEST_CODECS,
    BinaryCodec,
    WireError,
    decode_binary_frame,
    decode_frame,
    decode_msg_payload,
    encode_frame,
    encode_msg_frame,
)

__all__ = ["Conn", "Reactor", "Slot", "WireServer"]

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE

#: Bytes asked from the kernel per readable event.
_RECV_CHUNK = 1 << 18

#: Listen backlog — the concurrent-connections bench opens ~1k
#: sockets in a tight loop, so the queue must absorb a burst.
_BACKLOG = 1024

#: Backpressure water marks, per connection. A peer that pipelines
#: requests without draining replies stops being read once the queued
#: output bytes or the in-flight slot count crosses a high mark, and
#: is read again once both fall back under the low marks — the
#: event-loop equivalent of the blocking ``sendall`` backpressure the
#: threaded server had. Bounds may overshoot by at most one parsed
#: recv chunk.
_OUT_HIGH_WATER = 1 << 20
_OUT_LOW_WATER = 1 << 16
_SLOT_HIGH_WATER = 4096
_SLOT_LOW_WATER = 1024

Handler = Callable[["Conn", "Slot", str, Any], None]


class Reactor:
    """A minimal selectors event loop with timers and a waker.

    One thread calls :meth:`run`; any thread may call
    :meth:`call_soon` or :meth:`stop` (a socketpair write wakes the
    blocked ``select``). Timers (:meth:`call_later`) are loop-thread
    only. Callback exceptions are swallowed so one buggy task cannot
    kill the serving plane — I/O callbacks are expected to do their
    own per-connection containment first.
    """

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._calls: Deque[Callable[[], None]] = deque()
        self._timers: List[Tuple[float, int, Callable[[], None]]] = []
        self._ticket = itertools.count()
        self._waker_r, self._waker_w = socket.socketpair()
        self._waker_r.setblocking(False)
        self._waker_w.setblocking(False)
        self._selector.register(self._waker_r, _READ, self._drain_waker)
        self._stopped = threading.Event()
        self._stop_requested = False
        self._state = "new"  # -> "running" -> "stopped"; run() writes it
        self._thread: Optional[threading.Thread] = None

    # -- cross-thread entry points -------------------------------------

    def call_soon(self, callback: Callable[[], None]) -> None:
        """Queue ``callback`` for the loop thread; any thread may call."""
        self._calls.append(callback)
        self.wakeup()

    def stop(self) -> None:
        """Ask the loop to exit; safe from any thread, and before
        :meth:`run` (a later run() exits immediately)."""
        self._stop_requested = True
        self.wakeup()

    def wakeup(self) -> None:
        try:
            self._waker_w.send(b"\x00")
        except (BlockingIOError, InterruptedError):
            pass  # waker pipe full — a wakeup is already pending
        except OSError:
            pass  # loop already torn down

    def is_running(self) -> bool:
        return self._state == "running"

    def wait_stopped(self, timeout: float) -> bool:
        return self._stopped.wait(timeout)

    def run_sync(
        self, callback: Callable[[], None], timeout: float = 10.0
    ) -> None:
        """Run ``callback`` on the loop thread and wait for it.

        The primitive behind atomic cross-thread state swaps (the
        router's online partition cutover): loop-owned structures are
        only ever touched between I/O callbacks. Runs inline when
        called from the loop thread itself (waiting would deadlock) or
        when the loop isn't running yet (single-threaded setup).
        Raises :class:`RuntimeError` when the loop doesn't get to the
        callback within ``timeout`` — the callback may still run
        later, so callers treating this as fatal should stop the loop.
        """
        if (
            not self.is_running()
            or self._thread is threading.current_thread()
        ):
            callback()
            return
        done = threading.Event()

        def wrapped() -> None:
            try:
                callback()
            finally:
                done.set()

        self.call_soon(wrapped)
        if not done.wait(timeout):
            raise RuntimeError(
                f"event loop did not run a synchronous callback "
                f"within {timeout:g}s"
            )

    # -- loop-thread API -----------------------------------------------

    def call_later(
        self, delay: float, callback: Callable[[], None]
    ) -> None:
        """Run ``callback`` after ``delay`` seconds (loop thread only)."""
        heapq.heappush(
            self._timers,
            (time.monotonic() + delay, next(self._ticket), callback),
        )

    def register(self, sock: Any, events: int, callback: Any) -> None:
        self._selector.register(sock, events, callback)

    def modify(self, sock: Any, events: int, callback: Any) -> None:
        self._selector.modify(sock, events, callback)

    def unregister(self, sock: Any) -> None:
        self._selector.unregister(sock)

    def run(self) -> None:
        """The loop; returns after :meth:`stop`."""
        self._thread = threading.current_thread()
        self._state = "running"
        try:
            while not self._stop_requested:
                timeout: Optional[float] = None
                if self._timers:
                    timeout = max(
                        0.0, self._timers[0][0] - time.monotonic()
                    )
                if self._calls:
                    timeout = 0.0
                for key, mask in self._selector.select(timeout):
                    key.data(mask)
                if self._timers:
                    now = time.monotonic()
                    while self._timers and self._timers[0][0] <= now:
                        _, _, timer_cb = heapq.heappop(self._timers)
                        self._guarded(timer_cb)
                while self._calls:
                    self._guarded(self._calls.popleft())
        finally:
            self._state = "stopped"
            self._stopped.set()

    @staticmethod
    def _guarded(callback: Callable[[], None]) -> None:
        try:
            callback()
        # A failing scheduled task must not take the loop (and every
        # other connection) down with it.
        # reprolint: disable=EXC
        except Exception:
            pass

    def _drain_waker(self, _mask: int) -> None:
        try:
            while self._waker_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            pass

    def close(self) -> None:
        """Release the selector and waker (after the loop exited)."""
        try:
            self._selector.close()
        except OSError:
            pass
        for sock in (self._waker_r, self._waker_w):
            try:
                sock.close()
            except OSError:
                pass


class Slot:
    """One in-flight request's place in a connection's reply queue.

    Created at parse time (capturing the codec *then* negotiated, so a
    reply to a pre-upgrade pipelined request is never mis-encoded) and
    completed exactly once; the server releases queued replies in
    arrival order as head slots complete.
    """

    __slots__ = ("_server", "conn", "codec", "request_id", "encoded",
                 "done", "batch_codec")

    def __init__(
        self,
        server: "WireServer",
        conn: "Conn",
        codec: str,
        request_id: int,
    ) -> None:
        self._server = server
        self.conn = conn
        self.codec = codec
        self.request_id = request_id
        self.encoded = b""
        self.done = False
        #: Set at parse time on packed batch requests: the codec whose
        #: request frame type arrived, so the reply goes out as its
        #: reply type.
        self.batch_codec: Optional[BinaryCodec] = None

    def _encode(self, message: Any) -> bytes:
        if self.codec == "binary":
            return encode_msg_frame(
                message, self.request_id,
                max_size=self._server.max_frame,
            )
        return encode_frame(message, max_size=self._server.max_frame)

    def _finish(self, encoded: bytes) -> None:
        self.encoded = encoded
        self.done = True
        self._server.slot_done(self.conn)

    def complete(self, message: Any) -> None:
        """Answer with ``message`` (a JSON-model reply object)."""
        if self.done:
            return
        try:
            encoded = self._encode(message)
        except WireError as exc:
            # The reply we built is unserialisable (or oversized) —
            # our bug; degrade to an in-band error reply.
            self.fail(f"internal error: unserialisable reply: {exc}")
            return
        self._finish(encoded)

    def complete_records(self, records: List[bytes]) -> None:
        """Answer a packed batch with records of its own codec."""
        if self.done:
            return
        assert self.batch_codec is not None
        try:
            encoded = self.batch_codec.encode_batch_reply_frame(
                records, self.request_id,
                max_size=self._server.max_frame,
            )
        except WireError as exc:
            self.fail(f"internal error: unserialisable reply: {exc}")
            return
        self._finish(encoded)

    def fail(self, message: str) -> None:
        """Answer with an error reply."""
        if self.done:
            return
        try:
            encoded = self._encode({"ok": False, "error": message})
        except WireError:
            encoded = self._encode(
                {"ok": False, "error": "internal error"}
            )
        self._finish(encoded)


class Conn:
    """Per-connection state, owned by the loop thread."""

    __slots__ = ("sock", "fd", "address", "codec", "inbuf", "outbuf",
                 "slots", "closing", "paused", "registered", "events",
                 "callback", "in_parse", "last_activity", "data")

    def __init__(self, sock: socket.socket, address: Any) -> None:
        self.sock: Optional[socket.socket] = sock
        self.fd = sock.fileno()
        self.address = address
        #: Frame codec for *subsequent* frames ("json" until a hello
        #: negotiates "binary"); each Slot captures it at parse time.
        self.codec = "json"
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.slots: Deque[Slot] = deque()
        self.closing = False
        #: True while reads are suspended for backpressure.
        self.paused = False
        self.registered = False
        self.events = 0
        self.callback: Any = None
        self.in_parse = False
        self.last_activity = time.monotonic()
        #: Free for the handler's own per-connection state.
        self.data: Any = None


class WireServer:
    """Pipelined dual-codec TCP server on a :class:`Reactor`.

    Binds on construction (``SO_REUSEADDR``; ``port=0`` for an
    ephemeral port) and sets ``TCP_NODELAY`` on every accepted socket
    — small reply frames must not sit out a Nagle delay. Run with
    :meth:`serve_forever` (calling thread) or :meth:`start` (daemon
    thread); :meth:`shutdown` drains in-flight replies, then stops the
    loop and closes everything.
    """

    def __init__(
        self,
        handler: Handler,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        connection_timeout: float = 30.0,
        max_frame: int = MAX_FRAME_BYTES,
        reactor: Optional[Reactor] = None,
    ) -> None:
        self._handler = handler
        self._connection_timeout = connection_timeout
        self.max_frame = max_frame
        #: Per-connection backpressure bounds; instance attributes so
        #: tests can tighten them.
        self.out_high_water = _OUT_HIGH_WATER
        self.out_low_water = _OUT_LOW_WATER
        self.slot_high_water = _SLOT_HIGH_WATER
        self.slot_low_water = _SLOT_LOW_WATER
        self.reactor = reactor if reactor is not None else Reactor()
        self._conns: Dict[int, Conn] = {}
        self._shutting_down = False  # written by _begin_shutdown only
        self._closed = False  # written by _close_listener only
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._listener = socket.socket(
            socket.AF_INET, socket.SOCK_STREAM
        )
        try:
            self._listener.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
            )
            self._listener.bind((host, port))
            self._listener.listen(_BACKLOG)
            self._listener.setblocking(False)
            bound = self._listener.getsockname()[:2]
            self._address = (str(bound[0]), int(bound[1]))
        except OSError:
            self._listener.close()
            raise
        self.reactor.register(self._listener, _READ, self._on_accept)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — valid even after shutdown (a
        restart-on-same-port needs to read it from the dead server)."""
        return self._address

    # -- lifecycle -----------------------------------------------------

    def serve_forever(self) -> None:
        """Run the loop on the calling thread until :meth:`shutdown`."""
        self.reactor.call_soon(self._arm_idle_sweep)
        try:
            self.reactor.run()
        finally:
            self._close_everything()
            self.reactor.close()

    def start(self) -> Tuple[str, int]:
        """Serve from a daemon thread; returns the bound address."""
        with self._lock:
            if self._thread is not None:
                raise RuntimeError("server already started")
            thread = threading.Thread(
                target=self.serve_forever,
                name="repro-wire-server",
                daemon=True,
            )
            self._thread = thread
        thread.start()
        return self.address

    def shutdown(self) -> None:
        """Stop accepting, flush queued replies, stop the loop."""
        with self._lock:
            thread, self._thread = self._thread, None
        if self.reactor.is_running():
            self.reactor.call_soon(self._begin_shutdown)
            if not self.reactor.wait_stopped(10.0):
                self.reactor.stop()
                self.reactor.wait_stopped(5.0)
        else:
            # Loop not running (never started, or already exited):
            # a queued graceful pass would never fire.
            self.reactor.stop()
            self._close_everything()
        if thread is not None:
            thread.join(timeout=5.0)

    def close_connections(self) -> None:
        """Sever every live connection (what a crashed process does to
        its peers); callable from any thread."""
        for conn in list(self._conns.values()):
            sock = conn.sock
            if sock is not None:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def _begin_shutdown(self) -> None:
        self._shutting_down = True
        self._close_listener()
        for conn in list(self._conns.values()):
            conn.closing = True
            if not conn.slots and not conn.outbuf:
                self._close_conn(conn)
            else:
                self._flush(conn)
        if not self._conns:
            self.reactor.stop()
        else:
            self.reactor.call_later(1.0, self._force_shutdown)

    def _force_shutdown(self) -> None:
        for conn in list(self._conns.values()):
            self._close_conn(conn)
        self.reactor.stop()

    def _close_listener(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.reactor.unregister(self._listener)
        except (KeyError, ValueError, OSError):
            pass
        try:
            self._listener.close()
        except OSError:
            pass

    def _close_everything(self) -> None:
        self._close_listener()
        for conn in list(self._conns.values()):
            self._close_conn(conn)

    # -- accept / close ------------------------------------------------

    def _on_accept(self, _mask: int) -> None:
        while True:
            try:
                sock, address = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed, or a transient accept error
            if self._shutting_down:
                sock.close()
                continue
            sock.setblocking(False)
            try:
                sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            except OSError:
                pass
            conn = Conn(sock, address)
            conn.callback = (
                lambda mask, c=conn: self._on_event(c, mask)
            )
            self._conns[conn.fd] = conn
            self._watch(conn, _READ)

    def _close_conn(self, conn: Conn) -> None:
        sock, conn.sock = conn.sock, None
        if sock is None:
            return
        if conn.registered:
            conn.registered = False
            try:
                self.reactor.unregister(sock)
            except (KeyError, ValueError, OSError):
                pass
        self._conns.pop(conn.fd, None)
        try:
            sock.close()
        except OSError:
            pass
        conn.slots.clear()
        if self._shutting_down and not self._conns:
            self.reactor.stop()

    def _watch(self, conn: Conn, events: int) -> None:
        if conn.sock is None:
            return
        if events == conn.events and conn.registered == bool(events):
            return
        if not events:
            if conn.registered:
                conn.registered = False
                try:
                    self.reactor.unregister(conn.sock)
                except (KeyError, ValueError, OSError):
                    pass
        elif conn.registered:
            self.reactor.modify(conn.sock, events, conn.callback)
        else:
            self.reactor.register(conn.sock, events, conn.callback)
            conn.registered = True
        conn.events = events

    # -- I/O events ----------------------------------------------------

    def _on_event(self, conn: Conn, mask: int) -> None:
        try:
            if mask & _WRITE:
                self._flush(conn)
            if mask & _READ and conn.sock is not None:
                self._on_readable(conn)
        # Containment of last resort: a bug on one connection must
        # not kill the loop serving every other connection.
        except Exception:
            self._close_conn(conn)

    def _on_readable(self, conn: Conn) -> None:
        assert conn.sock is not None
        try:
            data = conn.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            # Peer EOF: no further requests; flush what is queued,
            # then close (immediately if nothing is pending).
            conn.closing = True
            if not conn.slots and not conn.outbuf:
                self._close_conn(conn)
            else:
                self._watch(conn, _WRITE if conn.outbuf else 0)
            return
        conn.last_activity = time.monotonic()
        conn.inbuf += data
        self._parse(conn)

    # -- frame parsing -------------------------------------------------

    def _parse(self, conn: Conn) -> None:
        conn.in_parse = True
        try:
            while conn.sock is not None and not conn.closing:
                if conn.codec == "binary":
                    if not self._parse_binary(conn):
                        break
                elif not self._parse_json(conn):
                    break
        finally:
            conn.in_parse = False
        self._flush(conn)

    def _new_slot(self, conn: Conn, request_id: int = 0) -> Slot:
        slot = Slot(self, conn, conn.codec, request_id)
        conn.slots.append(slot)
        return slot

    def _fatal(self, conn: Conn, message: str) -> None:
        """Framing broke: error reply, then close once it drained."""
        self._new_slot(conn).fail(message)
        conn.closing = True
        self._watch(conn, _WRITE if conn.outbuf else 0)

    def _parse_json(self, conn: Conn) -> bool:
        """Parse one JSON frame; False when more bytes are needed."""
        try:
            decoded = decode_frame(conn.inbuf, max_size=self.max_frame)
        except WireError as exc:
            if exc.recoverable and exc.consumed is not None:
                # Payload was undecodable but the boundary held: skip
                # the frame, answer in-band, stay on the stream.
                del conn.inbuf[: exc.consumed]
                self._new_slot(conn).fail(str(exc))
                return True
            self._fatal(conn, str(exc))
            return False
        if decoded is None:
            return False
        message, consumed = decoded
        del conn.inbuf[:consumed]
        self._dispatch(conn, self._new_slot(conn), "msg", message)
        return True

    def _parse_binary(self, conn: Conn) -> bool:
        """Parse one binary frame; False when more bytes are needed."""
        try:
            decoded = decode_binary_frame(
                conn.inbuf, max_size=self.max_frame
            )
        except WireError as exc:
            self._fatal(conn, str(exc))
            return False
        if decoded is None:
            return False
        ftype, request_id, payload, consumed = decoded
        del conn.inbuf[:consumed]
        slot = self._new_slot(conn, request_id)
        if ftype == FT_MSG:
            try:
                message = decode_msg_payload(
                    payload, max_size=self.max_frame
                )
            except WireError as exc:
                slot.fail(str(exc))
                return True
            self._dispatch(conn, slot, "msg", message)
            return True
        codec = REQUEST_CODECS.get(ftype)
        if codec is None:
            slot.fail(f"unexpected frame type {ftype}")
            return True
        try:
            pairs = codec.decode_batch_request(payload)
        except WireError as exc:
            slot.fail(str(exc))
            return True
        slot.batch_codec = codec
        self._dispatch(conn, slot, "batch", pairs)
        return True

    def _dispatch(
        self, conn: Conn, slot: Slot, kind: str, data: Any
    ) -> None:
        try:
            self._handler(conn, slot, kind, data)
        # Never let a handler bug kill the loop; the peer gets an
        # in-band error reply instead (same contract as the threaded
        # server's worker).
        except Exception as exc:
            slot.fail(f"internal error: {exc}")

    # -- reply queue / writes ------------------------------------------

    def slot_done(self, conn: Conn) -> None:
        """A slot completed: release every reply at the queue head."""
        slots = conn.slots
        out = conn.outbuf
        while slots and slots[0].done:
            out += slots[0].encoded
            slots.popleft()
        if not conn.in_parse:
            self._flush(conn)

    def _flush(self, conn: Conn) -> None:
        if conn.sock is None:
            return
        out = conn.outbuf
        if out:
            try:
                sent = conn.sock.send(out)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self._close_conn(conn)
                return
            if sent:
                del out[:sent]
                conn.last_activity = time.monotonic()
        if conn.closing:
            if out:
                self._watch(conn, _WRITE)
            elif conn.slots:
                self._watch(conn, 0)  # await async completions
            else:
                self._close_conn(conn)
            return
        # Backpressure: stop reading a peer that pipelines faster than
        # it drains replies, so outbuf and the slot queue stay bounded;
        # resume only once both are well below the pause point.
        if conn.paused:
            if (
                len(out) <= self.out_low_water
                and len(conn.slots) <= self.slot_low_water
            ):
                conn.paused = False
        elif (
            len(out) >= self.out_high_water
            or len(conn.slots) >= self.slot_high_water
        ):
            conn.paused = True
        self._watch(
            conn,
            (_WRITE if out else 0) | (0 if conn.paused else _READ),
        )

    # -- idle timeout --------------------------------------------------

    def _arm_idle_sweep(self) -> None:
        interval = max(0.05, min(1.0, self._connection_timeout / 4.0))
        self.reactor.call_later(interval, self._idle_sweep)

    def _idle_sweep(self) -> None:
        if self._shutting_down or not self.reactor.is_running():
            return
        deadline = time.monotonic() - self._connection_timeout
        for conn in list(self._conns.values()):
            if conn.slots:
                continue  # in-flight work is not idleness
            if conn.last_activity < deadline:
                self._close_conn(conn)
        self._arm_idle_sweep()
