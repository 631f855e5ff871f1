"""DHT overlay construction and churn.

Builds the population of simulated peers (public hosts, home-NAT users,
CGN users), wires their routing tables the way joins would (each new
user learns eight neighbours — paper Section 3.1), and schedules churn
during the crawl:

* **restarts** — a client rebinds on a new port with a new node_id,
  leaving stale entries in other tables (the paper's false-NAT signal);
* **departures** — a client goes offline; tables keep advertising it.

The overlay is deliberately decoupled from the internet ground-truth
model: it consumes :class:`PeerSpec` records, which
:mod:`repro.internet.scenario` produces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..sim.events import Scheduler
from ..sim.nat import HostStack, Socket
from ..sim.udp import Endpoint, UdpFabric
from .peer import SimulatedPeer
from .routing import BUCKET_SIZE

__all__ = ["PeerSpec", "DhtOverlay", "build_overlay"]

SocketFactory = Callable[[], Socket]


@dataclass
class PeerSpec:
    """Everything the overlay needs to instantiate one DHT user."""

    key: str
    private_ip: int
    socket_factory: SocketFactory


class DhtOverlay:
    """The running overlay: peers, bootstrap node, and churn control."""

    def __init__(
        self,
        peers: Dict[str, SimulatedPeer],
        bootstrap: SimulatedPeer,
        rng: random.Random,
    ) -> None:
        self.peers = peers
        self.bootstrap = bootstrap
        self._rng = rng

    @property
    def bootstrap_endpoint(self) -> Endpoint:
        """Where a crawler should send its first get_nodes."""
        return self.bootstrap.endpoint

    def online_peers(self) -> List[SimulatedPeer]:
        """Peers currently answering queries."""
        return [p for p in self.peers.values() if p.online]

    def announce(self, peer: SimulatedPeer, fanout: int = BUCKET_SIZE) -> None:
        """Insert ``peer`` into ``fanout`` random online tables (what a
        (re)joining client's traffic achieves)."""
        online = [p for p in self.online_peers() if p is not peer]
        if not online:
            return
        contact = peer.contact_info()
        for neighbour in self._rng.sample(online, min(fanout, len(online))):
            neighbour.learn(contact)
        self.bootstrap.learn(contact)

    def schedule_churn(
        self,
        scheduler: Scheduler,
        *,
        duration: float,
        restart_fraction: float = 0.08,
        depart_fraction: float = 0.04,
    ) -> None:
        """Schedule restarts and departures uniformly over ``duration``.

        Restarted peers re-announce, so both their stale and fresh
        endpoints circulate — the crawler must disambiguate them.
        """
        if not 0 <= restart_fraction <= 1 or not 0 <= depart_fraction <= 1:
            raise ValueError("churn fractions must be within [0, 1]")
        population = list(self.peers.values())
        self._rng.shuffle(population)
        n_restart = int(len(population) * restart_fraction)
        n_depart = int(len(population) * depart_fraction)
        restarting = population[:n_restart]
        departing = population[n_restart : n_restart + n_depart]
        # Delays are drawn, and events numbered, restarts first and
        # then departures — replay depends on that order.
        for peer in restarting:

            def do_restart(p: SimulatedPeer = peer) -> None:
                if p.online:
                    p.restart()
                    self.announce(p)

            scheduler.after(self._rng.uniform(0, duration), do_restart)
        for peer in departing:

            def do_depart(p: SimulatedPeer = peer) -> None:
                p.stop()

            scheduler.after(self._rng.uniform(0, duration), do_depart)


def build_overlay(
    fabric: UdpFabric,
    specs: Sequence[PeerSpec],
    bootstrap_stack: HostStack,
    rng: random.Random,
    *,
    join_fanout: int = BUCKET_SIZE,
    bootstrap_sample: int = 2000,
) -> DhtOverlay:
    """Instantiate and wire the overlay.

    Table wiring reproduces the *result* of organic joins without
    paying for millions of join messages: every peer learns
    ``join_fanout`` random live contacts, is learned by that many in
    return, and the bootstrap node knows a broad sample. The crawl
    itself then runs entirely at the message level.
    """
    if not specs:
        raise ValueError("cannot build an empty overlay")
    peers: Dict[str, SimulatedPeer] = {}
    for spec in specs:
        if spec.key in peers:
            raise ValueError(f"duplicate peer key {spec.key!r}")
        peer = SimulatedPeer(
            spec.key,
            spec.private_ip,
            spec.socket_factory,
            rng,
            now_fn=lambda: fabric.scheduler.now,
        )
        peer.start()
        peers[spec.key] = peer

    bootstrap = SimulatedPeer(
        "bootstrap",
        bootstrap_stack.ip,
        bootstrap_stack.open_socket,
        rng,
        bucket_size=64,  # router-class node: deep buckets
        now_fn=lambda: fabric.scheduler.now,
    )
    bootstrap.start()

    all_peers = list(peers.values())
    for peer in all_peers:
        others = rng.sample(
            all_peers, min(join_fanout + 1, len(all_peers))
        )
        learned = 0
        for other in others:
            if other is peer:
                continue
            peer.learn(other.contact_info())
            other.learn(peer.contact_info())
            learned += 1
            if learned >= join_fanout:
                break

    for peer in rng.sample(all_peers, min(bootstrap_sample, len(all_peers))):
        bootstrap.learn(peer.contact_info())

    return DhtOverlay(peers, bootstrap, rng)
