"""Wall-clock event loop with real UDP sockets.

The simulators drive everything through :class:`~repro.sim.events.Scheduler`
and the :class:`~repro.sim.nat.Socket` interface. This module provides
the *live* counterparts: a reactor whose clock is the OS clock and
whose sockets are real UDP sockets (``selectors``-based, single
thread). The DHT crawler runs unmodified on either pair — which is
what makes the reproduction's crawler a deployable artefact rather
than a simulation-only one.

Only loopback/LAN use is exercised in this repository's tests; pointing
it at the public DHT is the operator's decision.
"""

from __future__ import annotations

import selectors
import socket as socket_module
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..net.ipv4 import ip_to_int
from .events import Scheduler
from .udp import Datagram, Endpoint

__all__ = ["LiveLoop", "LiveUdpSocket"]

ReceiveHandler = Callable[[Datagram], None]

_MAX_DATAGRAM = 65536


class LiveLoop(Scheduler):
    """A Scheduler whose time base is the wall clock.

    Inherits the heap/callback machinery; ``run_for`` interleaves due
    timer callbacks with socket readiness, sleeping on the selector in
    between. The crawler's ``every``/``after`` pacing works unchanged.
    """

    def __init__(self) -> None:
        super().__init__()
        self._selector = selectors.DefaultSelector()
        # This module IS the wall-clock adapter the simulators swap in
        # for live runs; nothing deterministic ever imports it.
        # reprolint: disable=DET
        self._origin = time.monotonic()
        self.clock.advance_to(0.0)
        self._sockets: Dict[int, "LiveUdpSocket"] = {}

    def _now_wall(self) -> float:
        return time.monotonic() - self._origin  # reprolint: disable=DET

    def _register(self, live_socket: "LiveUdpSocket") -> None:
        self._selector.register(
            live_socket._sock, selectors.EVENT_READ, live_socket
        )
        self._sockets[live_socket._sock.fileno()] = live_socket

    def _unregister(self, live_socket: "LiveUdpSocket") -> None:
        try:
            self._selector.unregister(live_socket._sock)
        except (KeyError, ValueError):
            pass

    def open_udp_socket(
        self, bind_ip: str = "127.0.0.1", port: int = 0
    ) -> "LiveUdpSocket":
        """Bind a real UDP socket managed by this loop."""
        live_socket = LiveUdpSocket(self, bind_ip, port)
        self._register(live_socket)
        return live_socket

    def run_for(self, duration: float) -> int:
        """Run the reactor for ``duration`` wall-clock seconds.

        Returns the number of timer callbacks executed. Socket receive
        handlers run as datagrams arrive.
        """
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        deadline = self._now_wall() + duration
        executed = 0
        while True:
            now = self._now_wall()
            if now >= deadline:
                break
            executed += self._fire_due(now)
            # Sleep until the next timer or the deadline, waking on IO.
            next_timer = self._heap[0][0] if self._heap else deadline
            timeout = max(0.0, min(next_timer, deadline) - self._now_wall())
            for key, _ in self._selector.select(timeout=min(timeout, 0.25)):
                key.data._drain()
            self.clock.advance_to(max(self.clock.now, self._now_wall()))
        return executed


class LiveUdpSocket:
    """A real UDP socket satisfying the simulated Socket interface:
    ``endpoint``, ``send``, ``on_receive``, ``close``."""

    def __init__(self, loop: LiveLoop, bind_ip: str, port: int) -> None:
        self._loop = loop
        self._sock = socket_module.socket(
            socket_module.AF_INET, socket_module.SOCK_DGRAM
        )
        self._sock.setblocking(False)
        self._sock.bind((bind_ip, port))
        host, bound_port = self._sock.getsockname()
        self._endpoint = Endpoint(ip_to_int(host), bound_port)
        self._handler: Optional[ReceiveHandler] = None
        self._closed = False

    @property
    def endpoint(self) -> Endpoint:
        """The locally-bound (ip, port)."""
        return self._endpoint

    @property
    def closed(self) -> bool:
        """True once closed."""
        return self._closed

    def on_receive(self, handler: ReceiveHandler) -> None:
        """Install the inbound datagram handler (runs on the loop)."""
        self._handler = handler

    def send(self, dst: Endpoint, payload: bytes) -> None:
        """Send one datagram."""
        if self._closed:
            raise RuntimeError("socket is closed")
        from ..net.ipv4 import int_to_ip

        self._sock.sendto(payload, (int_to_ip(dst.ip), dst.port))

    def close(self) -> None:
        """Unregister and close. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._loop._unregister(self)
        self._sock.close()

    def _drain(self) -> None:
        """Read every queued datagram and dispatch to the handler."""
        while not self._closed:
            try:
                payload, (host, port) = self._sock.recvfrom(_MAX_DATAGRAM)
            except BlockingIOError:
                return
            except OSError:
                return
            if self._handler is None:
                continue
            src = Endpoint(ip_to_int(host), port)
            self._handler(Datagram(src, self._endpoint, payload))
