"""Single-threaded event-loop serving core for the wire protocol.

The thread-per-connection server capped out on thread switches and
per-request syscalls long before the query engine did, so the serving
plane runs on one :class:`Reactor` — a ``selectors`` readiness loop —
with per-connection read/write buffers and *pipelining*: a peer may
have any number of request frames in flight on one connection, and
replies always come back in request order.

Four layers:

* :class:`Reactor` — the loop: readiness callbacks, monotonic timers,
  a ``call_soon`` queue fed from other threads through a socketpair
  waker, and the write pass that ends every turn of the loop.
  Everything else runs *on* the loop thread.
* :class:`Link` — one framed, pipelined TCP connection, either
  direction. It owns the socket, both buffers, the negotiated codec
  and the interest set, and is the only code that connects, reads,
  writes, walks frames out of a buffer (length-prefixed JSON and the
  binary framing of :mod:`repro.service.wire`), contains a callback
  exception, or closes — always with a cause. What a frame *means* is
  left to the subclass hooks.
* :class:`Conn` + :class:`Slot` — the inbound link. Each parsed
  request takes a :class:`Slot` in the connection's reply queue;
  completing a slot (in any order) releases every reply at the queue
  head, which keeps pipelined replies ordered even when an upstream
  answers out of order (the router's case). Adds the backpressure
  marks, the recoverable/fatal error split and drain-then-close. The
  outbound counterpart is the cluster router's
  :class:`~repro.cluster.router.Backend`.
* :class:`WireServer` — accept loop, the one deadline sweep over
  every link on the loop (:meth:`Link.expire`), graceful shutdown and
  the context manager. It counts each connection's close by its cause
  (``closes``) and records an accept paused at the fd limit, and its
  resumption, as events (``events``, the process's
  :class:`~repro.stream.epoch.Events`). Each request goes to its
  :meth:`~WireServer.handle` method, which a subclass fills in;
  ``kind`` is ``"msg"`` (one decoded request object) or ``"batch"``
  (the payload of a batch-request frame, not yet read;
  ``slot.batch_codec`` is the :class:`~repro.service.wire.BinaryCodec`
  — hence the address family — the frame type resolved to).

``handle`` runs on the loop thread and must not block. Both serving
doors subclass :class:`WireServer` through
:class:`~repro.service.server.FrontDoor`, which writes the op protocol
once: the reputation server answers inline, the cluster router
completes slots later from upstream readiness events on the same loop.
"""

from __future__ import annotations

import errno
import heapq
import itertools
import os
import selectors
import socket
import threading
import time
from collections import Counter, deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..stream.epoch import Events
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

__all__ = ["Conn", "Link", "PEER_EOF", "Reactor", "Slot", "WireServer"]

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE

#: Bytes asked from the kernel per readable event.
_RECV_CHUNK = 1 << 18

#: Listen backlog — the 1,000-client test opens its sockets in a
#: tight loop, so the queue must absorb a burst.
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


class Reactor:
    """A minimal selectors event loop with timers and a waker.

    One thread calls :meth:`run`; any thread may call
    :meth:`call_soon` or :meth:`stop` (a socketpair write wakes the
    blocked ``select``). Timers (:meth:`call_later`) are loop-thread
    only. A timer's or ``call_soon`` callback's exception is counted
    (:meth:`caught`, ``stats``'s ``loop`` block), not raised, so one
    buggy task cannot kill the serving plane — I/O callbacks are
    expected to do their own per-connection containment first.

    Each pass of the loop runs the ready I/O callbacks, then the due
    timers, then the ``call_soon`` queue, and ends in the *write
    pass*: every link that queued output during the pass
    (:meth:`Link.mark`) is flushed once. So whatever one pass queues
    for a peer — a window of scatter subs, a window of replies — leaves
    in one ``send``, wherever in the pass it was queued.
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
        #: What every link on this loop reads into, copied out before
        #: the next read. Not a fresh ``recv(_RECV_CHUNK)`` each time:
        #: malloc serves a request that large from the heap only if a
        #: free chunk happens to be there, else by mmap + munmap and
        #: two page faults a read — which process pays is an accident
        #: of what it imported (DESIGN.md §7 "Links").
        self.recv_buffer = memoryview(bytearray(_RECV_CHUNK))
        #: Links with output queued this pass, in marking order.
        self.marked: List["Link"] = []
        #: What the loop's guards caught: how many, and the last cause.
        self.callback_errors = 0
        self.callback_error: Optional[str] = None

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
        """Run ``callback`` on the loop thread and wait for it — how a
        test harness touches loop-owned structures from outside, between
        I/O callbacks. Runs inline when called from the loop thread
        itself (waiting would deadlock) or when the loop isn't running
        yet (single-threaded setup).
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
                if self._calls or self.marked:
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
                if self.marked:
                    self._write_pass()
        finally:
            self._state = "stopped"
            self._stopped.set()

    def _write_pass(self) -> None:
        """Flush every marked link once. A flush may mark another
        (a dead link's subs failing over): the walk takes it too."""
        marked = self.marked
        for link in marked:  # grows while it is walked
            link.write_pass()
        marked.clear()

    def _guarded(self, callback: Callable[[], None]) -> None:
        try:
            callback()
        # A failing scheduled task must not take the loop (and every
        # other connection) down with it.
        except Exception as exc:
            self.caught(exc)

    def caught(self, exc: Exception) -> str:
        """Count ``exc``, which a guard on this loop caught instead of
        raising; returns its cause, as ``callback_error`` now reads."""
        self.callback_errors += 1
        self.callback_error = f"internal error: {exc}"
        return self.callback_error

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


#: Cause a link closes with when the peer hung up cleanly — the one
#: close an owner may read as "recycled", not "broken".
PEER_EOF = "connection closed"


def _close_socket(sock: socket.socket) -> None:
    """Close ``sock`` for the peer too. A worker forked from this
    process holds a copy of the fd, and ``close`` only drops ours: the
    connection (or listening port) would live on in the copy, open to
    the peer and answered by nobody. ``shutdown`` ends it for every
    holder; on a socket that never connected it raises, as may the
    close — neither is a failure of the caller's."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class Link:
    """One framed, pipelined TCP connection on a :class:`Reactor`.

    Direction-agnostic: :meth:`attach` adopts an accepted socket,
    :meth:`connect` dials out without blocking. From then on the link
    turns readiness into hook calls — ``on_message`` for a JSON frame
    or a binary ``FT_MSG`` frame, ``on_packed`` for any other binary
    frame type, ``on_garbled`` for a frame that broke the protocol —
    and drains ``outbuf`` as the socket takes it: output appended
    there is followed by :meth:`mark`, and the reactor's write pass
    sends it once the pass is over. Every way out goes through
    :meth:`close`, which tears the socket down, resets the link to
    idle (a subclass may :meth:`connect` again) and calls
    ``on_close(cause)`` exactly once. Loop-thread owned throughout.
    """

    __slots__ = ("reactor", "max_frame", "sock", "codec", "inbuf",
                 "outbuf", "events", "connecting", "marked",
                 "last_activity")

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self.max_frame = max_frame
        self.sock: Optional[socket.socket] = None
        #: Frame codec for *subsequent* frames ("json" until a hello
        #: negotiates "binary").
        self.codec = "json"
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        #: The interest set registered with the reactor (0 = none).
        self.events = 0
        self.connecting = False
        #: True while the link waits in its reactor's write pass.
        self.marked = False
        #: Set by a read that starts or ends a frame, and by a send.
        self.last_activity = time.monotonic()

    # -- hooks ---------------------------------------------------------

    def on_connected(self) -> None:
        """An outbound connect resolved; what this queues leaves in
        the pass's write pass."""

    def on_message(self, request_id: int, message: Any) -> None:
        """One decoded message (``request_id`` is 0 on JSON framing)."""

    def on_packed(
        self, ftype: int, request_id: int, payload: bytes
    ) -> None:
        """One binary frame of a type other than ``FT_MSG``."""

    def on_garbled(self, exc: WireError, request_id: int) -> None:
        """A frame violated the protocol (or a hook said so by raising
        :class:`WireError`). The stream is past the bad frame when
        ``exc.recoverable``; otherwise framing is lost and no further
        frame is read."""
        self.close(f"garbled frame: {exc}")

    def on_eof(self) -> None:
        """The peer hung up cleanly."""
        self.close(PEER_EOF)

    def on_close(self, cause: str) -> None:
        """The link closed; socket and buffers are already gone."""

    def expire(self, now: float) -> None:
        """Close if past the owner's deadline (the loop's sweep asks)."""

    def interest(self) -> int:
        """The events to wait for once a flush has written what the
        socket would take (or close: nothing left to wait for)."""
        return _READ | (_WRITE if self.outbuf else 0)

    # -- open / close --------------------------------------------------

    def attach(self, reactor: Reactor, sock: socket.socket) -> None:
        """Adopt an accepted socket and start reading. ``TCP_NODELAY``
        is set — small frames must not sit out a Nagle delay."""
        self.reactor = reactor
        self.sock = sock
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self._watch(_READ)

    def connect(self, reactor: Reactor, address: Tuple[str, int]) -> None:
        """Begin a non-blocking connect; it ends in ``on_connected``
        or in :meth:`close` (``sock`` is ``None`` on return when it
        failed at once). The loop thread never blocks on a peer, so an
        unreachable (SYN-dropping) one cannot stall the others — the
        owner's deadline bounds a connect that never resolves."""
        self.reactor = reactor
        self.connecting = True
        self.codec = "json"
        try:
            # At the fd limit this fails too, as a connect with a cause.
            self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self.sock.setblocking(False)
            self.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            err = self.sock.connect_ex(address)
        except OSError as exc:
            err = exc.errno or errno.EIO
        if err in (errno.EINPROGRESS, errno.EWOULDBLOCK):
            self._watch(_WRITE)
        else:
            self._connect_done(err)

    def _connect_done(self, err: int) -> None:
        if err:
            self.close(f"connect failed: {os.strerror(err)}")
            return
        self.connecting = False
        self.on_connected()
        self.mark()

    def close(self, cause: str) -> None:
        """The single way out; a no-op on an already idle link."""
        if self.sock is None and not self.connecting:
            return
        self._watch(0)
        sock, self.sock = self.sock, None
        if sock is not None:
            _close_socket(sock)
        self.connecting = False
        self.inbuf.clear()
        self.outbuf.clear()
        self.on_close(cause)

    def _watch(self, events: int) -> None:
        if self.sock is None or events == self.events:
            return
        if not events:
            try:
                self.reactor.unregister(self.sock)
            except (KeyError, ValueError, OSError):
                pass
        elif self.events:
            self.reactor.modify(self.sock, events, self._on_event)
        else:
            self.reactor.register(self.sock, events, self._on_event)
        self.events = events

    # -- I/O events ----------------------------------------------------

    def _on_event(self, mask: int) -> None:
        try:
            if self.connecting:
                # Only _WRITE is watched while connecting; a failure
                # also surfaces as readiness and sits in SO_ERROR.
                assert self.sock is not None
                self._connect_done(
                    self.sock.getsockopt(
                        socket.SOL_SOCKET, socket.SO_ERROR
                    )
                )
                return
            if mask & _WRITE:
                self.flush()
            if mask & _READ and self.sock is not None:
                self._read()
        # Containment of last resort: a bug on one link must not kill
        # the loop serving every other one.
        except Exception as exc:
            self.close(f"internal error: {exc}")

    def _read(self) -> bool:
        """One ``recv`` and the frames it completed; ``False`` when
        there was nothing to read (or nobody left to read from)."""
        assert self.sock is not None
        buffer = self.reactor.recv_buffer
        try:
            size = self.sock.recv_into(buffer)
        except (BlockingIOError, InterruptedError):
            return False
        except OSError as exc:
            self.close(f"recv failed: {exc}")
            return False
        if not size:
            self.on_eof()
            return False
        held = len(self.inbuf)
        self.inbuf += buffer[:size]
        self._parse()
        # A read that only extends an unfinished frame is no progress.
        if not held or len(self.inbuf) < held + size:
            self.last_activity = time.monotonic()
        self.mark()
        return True

    def _parse(self) -> None:
        """Hand every complete frame in ``inbuf`` to its hook."""
        inbuf = self.inbuf
        while self.sock is not None:
            request_id = 0
            try:
                if self.codec == "binary":
                    frame = decode_binary_frame(
                        inbuf, max_size=self.max_frame
                    )
                    if frame is None:
                        return
                    ftype, request_id, payload, consumed = frame
                    del inbuf[:consumed]
                    if ftype == FT_MSG:
                        self.on_message(
                            request_id,
                            decode_msg_payload(
                                payload, max_size=self.max_frame
                            ),
                        )
                    else:
                        self.on_packed(ftype, request_id, payload)
                else:
                    decoded = decode_frame(
                        inbuf, max_size=self.max_frame
                    )
                    if decoded is None:
                        return
                    message, consumed = decoded
                    del inbuf[:consumed]
                    self.on_message(0, message)
            except WireError as exc:
                if exc.consumed is not None:
                    # Payload was undecodable but the boundary held:
                    # skip the frame and stay on the stream.
                    del inbuf[: exc.consumed]
                self.on_garbled(exc, request_id)
                if not exc.recoverable:
                    return

    def mark(self) -> None:
        """Have this pass's write pass flush the link: how a hook
        that queued output sends it, once however often it queued."""
        if not self.marked:
            self.marked = True
            self.reactor.marked.append(self)

    def write_pass(self) -> None:
        """The write pass's flush: a failure closes this link, with
        its cause, and no other."""
        self.marked = False
        try:
            self.flush()
        # Containment, as in _on_event.
        except Exception as exc:
            self.close(f"internal error: {exc}")

    def flush(self) -> None:
        """Write what the socket will take of ``outbuf``, then wait
        for whatever :meth:`interest` says comes next. A link still
        connecting waits for its connect: the flush after it follows."""
        if self.sock is None or self.connecting:
            return
        out = self.outbuf
        if out:
            try:
                sent = self.sock.send(out)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError as exc:
                self.close(f"send failed: {exc}")
                return
            if sent:
                del out[:sent]
                self.last_activity = time.monotonic()
        self._watch(self.interest())


class Slot:
    """One in-flight request's place in a connection's reply queue.

    Created at parse time (capturing the codec *then* negotiated, so a
    reply to a pre-upgrade pipelined request is never mis-encoded) and
    completed exactly once; the connection releases queued replies in
    arrival order as head slots complete.
    """

    __slots__ = ("conn", "codec", "request_id", "encoded", "done",
                 "batch_codec")

    def __init__(self, conn: "Conn", request_id: int) -> None:
        self.conn = conn
        self.codec = conn.codec
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
                max_size=self.conn.max_frame,
            )
        return encode_frame(message, max_size=self.conn.max_frame)

    def _finish(self, encoded: bytes) -> None:
        self.encoded = encoded
        self.done = True
        self.conn.slot_done()

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
                max_size=self.conn.max_frame,
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


class Conn(Link):
    """The inbound :class:`Link`: one accepted client connection.

    Every request frame takes a :class:`Slot`; replies leave in
    request order. A protocol violation that keeps the stream in sync
    is answered in-band, one that loses it is answered and then the
    connection closes once the reply drained — as it does after a
    peer EOF, a ``slow frame`` or a server shutdown: ``closing`` holds
    the cause it closes with. Every close is counted in its server's
    ``closes`` by the cause's text before any ``:``, so each key is a
    fixed phrase, whatever a peer sends.
    """

    __slots__ = ("server", "fd", "address", "slots", "closing",
                 "paused")

    def __init__(
        self, server: "WireServer", sock: socket.socket, address: Any
    ) -> None:
        super().__init__(server.max_frame)
        self.server = server
        self.fd = sock.fileno()
        self.address = address
        self.slots: Deque[Slot] = deque()
        #: The cause to close with once replies drained (``None``
        #: while requests are still read).
        self.closing: Optional[str] = None
        #: True while reads are suspended for backpressure.
        self.paused = False
        self.attach(server.reactor, sock)

    def _new_slot(self, request_id: int) -> Slot:
        slot = Slot(self, request_id)
        self.slots.append(slot)
        return slot

    def _request(self, slot: Slot, kind: str, data: Any) -> None:
        try:
            self.server.handle(self, slot, kind, data)
        # Never let a server bug kill the loop; the peer gets an
        # in-band error reply instead (same contract as the threaded
        # server's worker).
        except Exception as exc:
            slot.fail(f"internal error: {exc}")

    def on_message(self, request_id: int, message: Any) -> None:
        self._request(self._new_slot(request_id), "msg", message)

    def on_packed(
        self, ftype: int, request_id: int, payload: bytes
    ) -> None:
        slot = self._new_slot(request_id)
        codec = REQUEST_CODECS.get(ftype)
        if codec is None:
            slot.fail(f"unexpected frame type {ftype}")
            return
        slot.batch_codec = codec
        self._request(slot, "batch", payload)

    def on_garbled(self, exc: WireError, request_id: int) -> None:
        self._new_slot(request_id).fail(str(exc))
        if not exc.recoverable:
            # Framing broke: close once the error reply drained.
            self.closing = f"garbled frame: {exc}"

    def on_eof(self) -> None:
        self._end(PEER_EOF)

    def _end(self, cause: str) -> None:
        """Read no further requests; flush what is queued, then close
        with ``cause`` (at once if nothing is pending)."""
        self.closing = self.closing or cause
        self.flush()

    def on_close(self, cause: str) -> None:
        self.slots.clear()
        self.server.closes[cause.partition(":")[0]] += 1
        self.server.forget(self)

    def expire(self, now: float) -> None:
        """Quiet past the timeout with nothing in flight: an unfinished
        frame is a ``slow frame``, answered in band (unless paused: the
        server stopped reading it); else an ``idle timeout``."""
        if self.slots or now - self.last_activity <= self.server._connection_timeout:
            return
        if self.inbuf and not (self.paused or self.closing):
            self._new_slot(0).fail("slow frame")
            self._end("slow frame")
        else:
            self.close("idle timeout")

    def finish(self) -> None:
        """The server is shutting down: take the requests this peer
        has already sent — read until the socket has no more, or
        backpressure says stop — then close once every reply drained."""
        try:
            while (
                self.sock is not None
                and not (self.closing or self.paused)
                and self._read()
            ):
                self.flush()  # updates ``paused`` before the next read
        except Exception as exc:
            self.close(f"internal error: {exc}")
        # As if the peer had hung up behind them.
        self._end("server shutdown")

    def slot_done(self) -> None:
        """A slot completed: release every reply at the queue head,
        for the write pass to send."""
        slots = self.slots
        out = self.outbuf
        while slots and slots[0].done:
            out += slots[0].encoded
            slots.popleft()
        self.mark()

    def interest(self) -> int:
        out = self.outbuf
        server = self.server
        if self.closing:
            if out:
                return _WRITE
            if not self.slots:
                self.close(self.closing)
            return 0  # await async completions
        # Backpressure: stop reading a peer that pipelines faster than
        # it drains replies, so outbuf and the slot queue stay bounded;
        # resume only once both are well below the pause point.
        if self.paused:
            if (
                len(out) <= server.out_low_water
                and len(self.slots) <= server.slot_low_water
            ):
                self.paused = False
        elif (
            len(out) >= server.out_high_water
            or len(self.slots) >= server.slot_high_water
        ):
            self.paused = True
        return (_WRITE if out else 0) | (0 if self.paused else _READ)


class WireServer:
    """Pipelined dual-codec TCP server on its own :class:`Reactor`;
    a subclass answers requests in :meth:`handle`.

    Binds on construction (``SO_REUSEADDR``; ``port=0`` for an
    ephemeral port). Run with :meth:`serve_forever` (calling thread)
    or :meth:`start` (daemon thread); :meth:`shutdown` (also via the
    context manager) drains in-flight replies, then stops the loop and
    closes everything.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        connection_timeout: float = 30.0,
        max_frame: int = MAX_FRAME_BYTES,
    ) -> None:
        self._connection_timeout = connection_timeout
        #: The tightest timeout a link on this loop keeps, which sets
        #: the sweep's cadence; a subclass with links of its own lowers it.
        self._tightest = connection_timeout
        self.max_frame = max_frame
        #: Per-connection backpressure bounds; instance attributes so
        #: tests can tighten them.
        self.out_high_water = _OUT_HIGH_WATER
        self.out_low_water = _OUT_LOW_WATER
        self.slot_high_water = _SLOT_HIGH_WATER
        self.slot_low_water = _SLOT_LOW_WATER
        self.reactor = Reactor()
        self._conns: Dict[int, Conn] = {}
        self._shutting_down = False  # written by _begin_shutdown only
        self._closed = False  # written by _close_listener only
        self._accepting = True  # False while the fd limit unwatched it
        self.accept_errors = 0  # accepts short of an fd or memory
        #: Closed connections by cause (``Conn``), for ``stats``.
        self.closes: Counter = Counter()
        #: This loop's record; a door may hand it another to add to.
        self.events = Events()
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

    def handle(self, conn: Conn, slot: Slot, kind: str, data: Any) -> None:
        """Answer one request of ``conn``: complete ``slot`` now, or
        later from the loop. Loop thread; must not block."""
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "WireServer":
        return self

    def __exit__(self, *_: Any) -> None:
        self.shutdown()

    def serve_forever(self) -> None:
        """Run the loop on the calling thread until :meth:`shutdown`."""
        self.reactor.call_soon(self._sweep)
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

    def request_shutdown(self) -> None:
        """:meth:`shutdown` asked for, not waited on: for any thread,
        and for a signal handler on the loop's own thread, where a
        wait on the loop would be a wait from inside it."""
        self.reactor.call_soon(self._begin_shutdown)

    def shutdown(self) -> None:
        """Stop accepting, flush queued replies, stop the loop."""
        with self._lock:
            thread, self._thread = self._thread, None
        if self.reactor.is_running():
            self.request_shutdown()
            if not self.reactor.wait_stopped(10.0):
                self.reactor.stop()
                self.reactor.wait_stopped(5.0)
        else:
            # Loop not running (never started, or already exited):
            # a queued graceful pass would never fire, and a loop that
            # never runs never releases the reactor.
            self.reactor.stop()
            self._close_everything()
            if thread is None:
                self.reactor.close()
        if thread is not None:
            thread.join(timeout=5.0)

    def _begin_shutdown(self) -> None:
        self._shutting_down = True
        self._close_listener()
        for conn in list(self._conns.values()):
            conn.finish()
        if not self._conns:
            self.reactor.stop()
        else:
            self.reactor.call_later(1.0, self._close_everything)

    def _close_listener(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.reactor.unregister(self._listener)
        except (KeyError, ValueError, OSError):
            pass
        _close_socket(self._listener)

    def _close_everything(self) -> None:
        self._close_listener()
        for conn in list(self._conns.values()):
            conn.close("server shutdown")

    # -- accept / forget -----------------------------------------------

    def _on_accept(self, _mask: int) -> None:
        while True:
            try:
                sock, address = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                if exc.errno in (errno.EMFILE, errno.ENFILE,
                                 errno.ENOBUFS, errno.ENOMEM):
                    # Unwatched till the next sweep, or the loop spins.
                    self.accept_errors += 1
                    self._accepting = False
                    self.reactor.unregister(self._listener)
                    self.events.add(
                        "accept-paused", cause=os.strerror(exc.errno)
                    )
                return  # listener closed, or a transient accept error
            if self._shutting_down:
                sock.close()
                continue
            conn = Conn(self, sock, address)
            self._conns[conn.fd] = conn

    def forget(self, conn: Conn) -> None:
        """``conn`` closed (its ``on_close`` reports here)."""
        self._conns.pop(conn.fd, None)
        if self._shutting_down and not self._conns:
            self.reactor.stop()

    # -- the deadline sweep --------------------------------------------

    def _links(self) -> List[Link]:
        """Every link the sweep judges (a subclass adds its own)."""
        return list(self._conns.values())

    def _sweep(self) -> None:
        """The loop's one deadline timer, through a drain too: links
        end themselves if overdue, and the listener is watched again."""
        now = time.monotonic()
        for link in self._links():
            link.expire(now)
        if not (self._accepting or self._shutting_down):
            self._accepting = True
            self.reactor.register(self._listener, _READ, self._on_accept)
            self.events.add("accept-resumed")
        interval = max(0.05, min(1.0, self._tightest / 4.0))
        self.reactor.call_later(interval, self._sweep)
