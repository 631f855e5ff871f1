"""`aio.Link` driven directly, on a live `Reactor`.

The link is the one place the serving plane connects, reads, writes,
walks frames and closes; the server and the router only add queues on
top. These tests exercise that layer with no server in the way: a
recording subclass on one end of a socketpair (or a loopback TCP pair
where RST / connect behaviour matters), the test thread on the other.
Every socket the move of ownership into `Link` could leak fails the
test through the ResourceWarning filters.
"""

import errno
import gc
import os
import selectors
import socket
import struct
import threading
import time

import pytest

from repro.net.family import V4, V6
from repro.service.aio import PEER_EOF, Link, Reactor
from repro.service.wire import (
    FT_MSG,
    decode_binary_frame,
    decode_frame,
    decode_msg_payload,
    encode_frame,
)

from .test_service_binary import (
    JSON_PING_PIN,
    MSG_PING_PIN,
    MSG_VERDICT_REPLY_PIN,
    WIRE_PINS,
)

pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    # A ResourceWarning raised inside a finalizer is "unraisable";
    # without this it would only be reported, not fail the test.
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"
    ),
]

PING = encode_frame({"op": "ping"})


class Recorder(Link):
    """A link that writes down what its hooks were told."""

    def __init__(self):
        super().__init__()
        self.frames = []
        self.causes = []
        self.connected = threading.Event()
        self.closed = threading.Event()
        self.boom = False

    def on_connected(self):
        self.connected.set()

    def on_message(self, request_id, message):
        if self.boom:
            raise RuntimeError("boom")
        self.frames.append(("msg", request_id, message))

    def on_packed(self, ftype, request_id, payload):
        self.frames.append(("packed", ftype, request_id, payload))

    def on_close(self, cause):
        self.causes.append(cause)
        self.closed.set()


@pytest.fixture()
def reactor():
    reactor = Reactor()
    thread = threading.Thread(target=reactor.run, daemon=True)
    thread.start()
    yield reactor
    reactor.stop()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    reactor.close()
    gc.collect()  # surface any socket a test left unclosed, here


def attached(reactor, sock, codec="json"):
    """A Recorder reading ``sock`` on the loop."""
    link = Recorder()
    link.codec = codec
    reactor.run_sync(lambda: link.attach(reactor, sock))
    return link


def settle(reactor):
    """Bytes the test sent before this call have been read by the
    loop when it returns: a timer fires only after the loop's next
    ``select`` pass, which finds them readable. (A bare ``run_sync``
    can be picked up by a loop still draining its call queue, with no
    ``select`` in between.)"""
    done = threading.Event()
    reactor.run_sync(lambda: reactor.call_later(0.0, done.set))
    assert done.wait(5.0)


def close_on_loop(reactor, link, cause="test done"):
    reactor.run_sync(lambda: link.close(cause))


def tcp_pair():
    """A connected loopback TCP pair: (accepted side, dialling side)."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        dialled = socket.create_connection(listener.getsockname())
        accepted, _ = listener.accept()
    return accepted, dialled


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class TestFrameWalk:
    def _binary_expectation(self, frame):
        ftype, rid, payload, consumed = decode_binary_frame(frame)
        assert consumed == len(frame)
        if ftype == FT_MSG:
            return ("msg", rid, decode_msg_payload(payload))
        return ("packed", ftype, rid, payload)

    def _feed_split_everywhere(self, reactor, codec, frame, expected):
        ours, theirs = socket.socketpair()
        link = attached(reactor, ours, codec)
        with theirs:
            for cut in range(1, len(frame)):
                theirs.sendall(frame[:cut])
                settle(reactor)
                theirs.sendall(frame[cut:])
            # Back to back, too: several frames in one read.
            theirs.sendall(frame * 3)
            settle(reactor)
            assert link.frames == [expected] * (len(frame) - 1 + 3)
            assert not link.inbuf
            close_on_loop(reactor, link)
        assert link.causes == ["test done"]

    def test_json_pin_split_at_every_offset(self, reactor):
        frame = bytes.fromhex(JSON_PING_PIN)
        message, _ = decode_frame(frame)
        self._feed_split_everywhere(
            reactor, "json", frame, ("msg", 0, message)
        )

    @pytest.mark.parametrize(
        "pin",
        [MSG_PING_PIN, MSG_VERDICT_REPLY_PIN]
        + [
            WIRE_PINS[family][name]
            for family in (V4, V6)
            for name in ("request", "reply")
        ],
        ids=["msg-ping", "msg-verdict-reply", "v4-request", "v4-reply",
             "v6-request", "v6-reply"],
    )
    def test_binary_pin_split_at_every_offset(self, reactor, pin):
        frame = bytes.fromhex(pin)
        self._feed_split_everywhere(
            reactor, "binary", frame, self._binary_expectation(frame)
        )

    def test_links_sharing_the_loops_read_buffer_keep_their_bytes(
        self, reactor
    ):
        """Every link reads into its reactor's one buffer, so a half
        frame is copied out before another link's read lands there."""
        frames = [PING, encode_frame({"op": "stats"})]
        pairs = [socket.socketpair() for _ in frames]
        links = [attached(reactor, ours) for ours, _ in pairs]
        for cut in (slice(None, 6), slice(6, None)):
            for (_, theirs), frame in zip(pairs, frames):
                theirs.sendall(frame[cut])
                settle(reactor)
        for link, (_, theirs), frame in zip(links, pairs, frames):
            assert link.frames == [("msg", 0, decode_frame(frame)[0])]
            close_on_loop(reactor, link)
            theirs.close()

    def test_peer_eof_closes_with_the_eof_cause(self, reactor):
        ours, theirs = socket.socketpair()
        link = attached(reactor, ours)
        theirs.sendall(PING)
        theirs.close()
        assert link.closed.wait(5.0)
        assert link.frames == [("msg", 0, {"op": "ping"})]
        assert link.causes == [PEER_EOF]


class TestWrites:
    def test_eagain_flips_to_write_interest_and_drains_in_order(
        self, reactor
    ):
        ours, theirs = tcp_pair()
        ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1)
        link = attached(reactor, ours)
        chunks = [
            struct.pack(">I", number) * (1 << 14) for number in range(8)
        ]
        seen = {}

        def write_all():
            for chunk in chunks:
                link.outbuf += chunk
                link.flush()
            seen["events"] = link.events
            seen["queued"] = len(link.outbuf)

        with theirs:
            reactor.run_sync(write_all)
            # The kernel took only part: the rest waits for writability.
            assert seen["queued"] > 0
            assert seen["events"] & selectors.EVENT_WRITE
            assert seen["events"] & selectors.EVENT_READ
            total = sum(len(chunk) for chunk in chunks)
            theirs.settimeout(5.0)
            got = bytearray()
            while len(got) < total:
                data = theirs.recv(1 << 16)
                assert data, "link closed mid-drain"
                got += data
            assert bytes(got) == b"".join(chunks)
            # Drained: write interest is dropped again.
            assert wait_for(
                lambda: link.events == selectors.EVENT_READ
            )
            assert not link.outbuf
            close_on_loop(reactor, link)


class TestWritePass:
    """Output a hook queues leaves in the write pass that ends the
    loop's pass — once per link, wherever in the pass it was queued.
    No timer is armed here and nothing else is sent, so a write left
    for a later pass would wait for a wake-up that never comes."""

    @staticmethod
    def _queue(link, frame):
        def queue():
            link.outbuf += frame
            link.mark()

        return queue

    def test_a_timers_output_leaves_in_its_pass(self, reactor):
        ours, theirs = socket.socketpair()
        link = attached(reactor, ours)
        with theirs:
            theirs.settimeout(5.0)
            reactor.run_sync(
                lambda: reactor.call_later(0.0, self._queue(link, PING))
            )
            assert theirs.recv(64) == PING
            close_on_loop(reactor, link)

    def test_a_callbacks_output_leaves_in_its_pass(self, reactor):
        ours, theirs = socket.socketpair()
        link = attached(reactor, ours)
        with theirs:
            theirs.settimeout(5.0)
            reactor.run_sync(self._queue(link, PING))
            assert theirs.recv(64) == PING
            close_on_loop(reactor, link)

    def test_marks_in_one_pass_make_one_send(self, reactor):
        ours, theirs = socket.socketpair()
        link = attached(reactor, ours)
        sends = []
        flush = link.flush

        def counted():
            sends.append(len(link.outbuf))
            flush()

        link.flush = counted

        def three():
            for _ in range(3):
                self._queue(link, PING)()

        with theirs:
            theirs.settimeout(5.0)
            reactor.run_sync(three)
            got = b""
            while len(got) < 3 * len(PING):
                got += theirs.recv(64)
            assert got == PING * 3
            assert sends == [3 * len(PING)]
            close_on_loop(reactor, link)

    def test_a_failing_flush_closes_only_that_link(self, reactor):
        class FailingFlush(Recorder):
            def flush(self):
                raise RuntimeError("flush boom")

        bad_ours, bad_theirs = socket.socketpair()
        good_ours, good_theirs = socket.socketpair()
        bad = FailingFlush()
        reactor.run_sync(lambda: bad.attach(reactor, bad_ours))
        good = attached(reactor, good_ours)
        with bad_theirs, good_theirs:
            good_theirs.settimeout(5.0)

            def both():
                self._queue(bad, PING)()
                self._queue(good, PING)()

            reactor.run_sync(both)
            assert bad.closed.wait(5.0)
            assert bad.causes == ["internal error: flush boom"]
            assert bad.sock is None
            assert good_theirs.recv(64) == PING
            # The loop lives on and keeps serving the other link.
            good_theirs.sendall(PING)
            settle(reactor)
            assert good.frames == [("msg", 0, {"op": "ping"})]
            reactor.run_sync(self._queue(good, PING))
            assert good_theirs.recv(64) == PING
            assert good.causes == []
            close_on_loop(reactor, good)


class TestClose:
    def test_rst_mid_frame_closes_once_with_a_cause(self, reactor):
        ours, theirs = tcp_pair()
        link = attached(reactor, ours)
        theirs.sendall(PING[: len(PING) // 2])
        settle(reactor)
        # SO_LINGER 0: close() sends RST instead of FIN.
        theirs.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        theirs.close()
        assert link.closed.wait(5.0)
        assert link.frames == []
        assert len(link.causes) == 1
        assert link.causes[0].startswith("recv failed")
        assert link.sock is None and link.events == 0
        # Closing an idle link is a no-op: the hook fired exactly once.
        close_on_loop(reactor, link, "again")
        assert len(link.causes) == 1

    def test_frame_callback_exception_closes_only_that_link(
        self, reactor
    ):
        bad_ours, bad_theirs = socket.socketpair()
        good_ours, good_theirs = socket.socketpair()
        bad = attached(reactor, bad_ours)
        good = attached(reactor, good_ours)
        bad.boom = True
        with bad_theirs, good_theirs:
            bad_theirs.sendall(PING)
            assert bad.closed.wait(5.0)
            assert bad.causes == ["internal error: boom"]
            assert bad.sock is None
            # The loop lives on and keeps serving the other link.
            good_theirs.sendall(PING)
            settle(reactor)
            good_theirs.sendall(PING)
            settle(reactor)
            assert good.frames == [("msg", 0, {"op": "ping"})] * 2
            assert good.causes == []
            close_on_loop(reactor, good)


class TestConnect:
    def _connect_on_loop(self, reactor, link, address):
        took = {}

        def dial():
            started = time.monotonic()
            link.connect(reactor, address)
            took["s"] = time.monotonic() - started

        reactor.run_sync(dial)
        # connect() only *starts* the connect; the loop never waits.
        assert took["s"] < 0.1

    def test_connect_then_frames_flow_both_ways(self, reactor):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            link = Recorder()
            self._connect_on_loop(reactor, link, listener.getsockname())
            theirs, _ = listener.accept()
        with theirs:
            assert link.connected.wait(5.0)
            theirs.sendall(PING)
            settle(reactor)
            assert link.frames == [("msg", 0, {"op": "ping"})]

            def reply():
                link.outbuf += PING
                link.flush()

            reactor.run_sync(reply)
            theirs.settimeout(5.0)
            assert theirs.recv(64) == PING
            close_on_loop(reactor, link)
        assert link.causes == ["test done"]

    def test_refused_connect_closes_with_a_cause(self, reactor, monkeypatch):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            address = listener.getsockname()

        def at_the_fd_limit(*_args):
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

        # Nobody listens there any more; or the process is out of
        # descriptors, so not even the socket can be made.
        for factory in (socket.socket, at_the_fd_limit):
            link = Recorder()
            monkeypatch.setattr(socket, "socket", factory)
            self._connect_on_loop(reactor, link, address)
            monkeypatch.undo()
            assert link.closed.wait(5.0)
            assert len(link.causes) == 1
            assert link.causes[0].startswith("connect failed")
            assert link.sock is None and not link.connecting
            assert not link.connected.is_set()
        assert link.causes == ["connect failed: Too many open files"]

    def test_black_holed_connect_ends_at_the_owners_deadline(
        self, reactor
    ):
        # A listener whose accept queue is full drops further SYNs:
        # the nearest thing to a black hole loopback offers.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        fillers = []
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(0)
            address = listener.getsockname()
            for _ in range(8):
                filler = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                fillers.append(filler)
                filler.settimeout(0.2)
                try:
                    filler.connect(address)
                except OSError:
                    break  # the queue is full: SYNs now vanish
            else:
                pytest.skip("could not fill the accept queue")

            link = Recorder()
            self._connect_on_loop(reactor, link, address)
            assert link.connecting and link.sock is not None
            # The owner's deadline, as the router's sweep would set it.
            reactor.run_sync(
                lambda: reactor.call_later(
                    0.3, lambda: link.close("deadline")
                )
            )
            # Meanwhile the loop is not stuck behind the connect.
            started = time.monotonic()
            settle(reactor)
            assert time.monotonic() - started < 0.1
            assert not link.closed.is_set()

            assert link.closed.wait(5.0)
            assert link.causes == ["deadline"]
            assert link.sock is None and not link.connecting
            assert not link.connected.is_set()
        finally:
            for filler in fillers:
                filler.close()
            listener.close()
