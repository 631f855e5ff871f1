"""Simulated BitTorrent DHT peers.

A peer owns a socket (public or NAT-translated), a node id derived from
its *private* address, a k-bucket routing table, and answers ``ping``
and ``find_node`` queries on the wire. Restarting a peer regenerates its
node id and rebinds on a fresh port — both behaviours the paper calls
out as confounders its crawler must handle (stale port entries, node_id
churn on reboot).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Tuple

from ..sim.nat import Socket
from ..sim.udp import Datagram, Endpoint
from .krpc import (
    AnnouncePeerQuery,
    ErrorMessage,
    GetNodesQuery,
    GetNodesResponse,
    GetPeersQuery,
    GetPeersResponse,
    KrpcError,
    NodeInfo,
    PeerEndpoint,
    PingQuery,
    PingResponse,
    decode_message,
    encode_message,
    ERROR_GENERIC,
    ERROR_PROTOCOL,
)
from .tokens import TokenManager
from .nodeid import generate_node_id
from .routing import BUCKET_SIZE, RoutingTable

__all__ = ["SimulatedPeer", "CLIENT_VERSIONS"]

#: Client version tags observed in the wild (BEP 20 style), used to
#: populate the ``v`` field of responses.
CLIENT_VERSIONS = (b"UT\x03\x05", b"LT\x01\x02", b"TR\x03\x00", b"qB\x04\x03")

SocketFactory = Callable[[], Socket]


class SimulatedPeer:
    """One DHT participant.

    ``private_ip`` is the address the client itself sees (RFC1918 when
    behind a NAT); ``socket.endpoint`` is what the rest of the DHT sees.
    """

    def __init__(
        self,
        peer_key: str,
        private_ip: int,
        socket_factory: SocketFactory,
        rng: random.Random,
        *,
        bucket_size: int = BUCKET_SIZE,
        now_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.peer_key = peer_key
        self.private_ip = private_ip
        self._socket_factory = socket_factory
        self._rng = rng
        self.version = rng.choice(CLIENT_VERSIONS)
        self.node_id = generate_node_id(private_ip, rng)
        self.table = RoutingTable(self.node_id, bucket_size)
        self.socket: Optional[Socket] = None
        self.online = False
        self.restarts = 0
        self._now = now_fn if now_fn is not None else (lambda: 0.0)
        self._tokens = TokenManager(
            bytes(rng.getrandbits(8) for _ in range(16))
        )
        # info_hash -> {(ip, port) -> announce time}.
        self.peer_store: Dict[bytes, Dict[Tuple[int, int], float]] = {}

    # -- lifecycle ---------------------------------------------------

    def start(self) -> None:
        """Bind the socket and begin answering queries."""
        if self.online:
            raise RuntimeError(f"peer {self.peer_key} already online")
        self.socket = self._socket_factory()
        self.socket.on_receive(self._handle)
        self.online = True

    def stop(self) -> None:
        """Go offline (socket closes; routing entries elsewhere go
        stale). Idempotent."""
        if self.socket is not None and not self.socket.closed:
            self.socket.close()
        self.online = False

    def restart(self) -> None:
        """Model a client/machine restart: new port, new node id.

        The routing table survives (clients persist it to disk); the
        rest of the DHT still advertises the *old* endpoint until
        entries age out — the stale-information case of Section 3.1.
        """
        self.stop()
        self.node_id = generate_node_id(self.private_ip, self._rng)
        old_table = self.table
        self.table = RoutingTable(self.node_id, old_table.bucket_size)
        for contact in old_table:
            self.table.insert(contact)
        self.restarts += 1
        self.start()

    @property
    def endpoint(self) -> Endpoint:
        """Public endpoint other nodes see. Peer must be online."""
        if self.socket is None:
            raise RuntimeError(f"peer {self.peer_key} has no socket")
        return self.socket.endpoint

    def contact_info(self) -> NodeInfo:
        """This peer as a compact routing-table contact."""
        endpoint = self.endpoint
        return NodeInfo(self.node_id, endpoint.ip, endpoint.port)

    def learn(self, contact: NodeInfo) -> None:
        """Offer a contact to the routing table (join-time gossip)."""
        self.table.insert(contact)

    # -- query handling ----------------------------------------------

    def _handle(self, datagram: Datagram) -> None:
        if self.socket is None or self.socket.closed:
            return
        try:
            message = decode_message(datagram.payload)
        except KrpcError:
            # Garbage on the DHT port is routine; a real client ignores
            # it or answers with a protocol error. We answer.
            reply = ErrorMessage(b"\x00\x00", ERROR_PROTOCOL, "malformed")
            self.socket.send(datagram.src, encode_message(reply))
            return
        if isinstance(message, PingQuery):
            response = PingResponse(message.txn, self.node_id, self.version)
            self.socket.send(datagram.src, encode_message(response))
        elif isinstance(message, GetPeersQuery):
            token = self._tokens.issue(datagram.src.ip, self._now())
            stored = self.peer_store.get(message.info_hash, {})
            values = tuple(
                PeerEndpoint(ip, port) for ip, port in sorted(stored)
            )
            nodes = (
                ()
                if values
                else tuple(self.table.closest(message.info_hash, BUCKET_SIZE))
            )
            response = GetPeersResponse(
                message.txn, self.node_id, token, values, nodes, self.version
            )
            self.socket.send(datagram.src, encode_message(response))
        elif isinstance(message, AnnouncePeerQuery):
            if not self._tokens.validate(
                datagram.src.ip, message.token, self._now()
            ):
                reply = ErrorMessage(
                    message.txn, ERROR_GENERIC, "bad announce token"
                )
                self.socket.send(datagram.src, encode_message(reply))
                return
            store = self.peer_store.setdefault(message.info_hash, {})
            store[(datagram.src.ip, message.port)] = self._now()
            response = PingResponse(message.txn, self.node_id, self.version)
            self.socket.send(datagram.src, encode_message(response))
        elif isinstance(message, GetNodesQuery):
            nodes = tuple(self.table.closest(message.target, BUCKET_SIZE))
            response = GetNodesResponse(
                message.txn, self.node_id, nodes, self.version
            )
            self.socket.send(datagram.src, encode_message(response))
            self.table.insert(
                NodeInfo(message.sender_id, datagram.src.ip, datagram.src.port)
            )
        # Responses/errors arriving at a peer are ignored: simulated
        # peers never originate queries (overlay construction wires the
        # tables directly; see swarm.py).
