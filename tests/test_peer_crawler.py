"""Integration tests: simulated peers, overlay, crawler, NAT detection."""

import pytest

from repro.bittorrent.crawler import CrawlerConfig, DhtCrawler
from repro.bittorrent.crawllog import QUERY_GET_NODES, QUERY_PING
from repro.bittorrent.krpc import (
    GetNodesQuery,
    GetNodesResponse,
    PingQuery,
    PingResponse,
    decode_message,
    encode_message,
)
from repro.bittorrent.peer import SimulatedPeer
from repro.bittorrent.swarm import PeerSpec, build_overlay
from repro.natdetect import detect_by_node_ids, detect_by_ports, detect_nated
from repro.net.ipv4 import ip_to_int
from repro.net.prefixtrie import PrefixSet
from repro.net.ipv4 import Prefix
from repro.sim.clock import HOUR
from repro.sim.events import Scheduler
from repro.sim.nat import HostStack, NatBehaviour, NatGateway
from repro.sim.rng import RngHub
from repro.sim.udp import Endpoint, UdpFabric


@pytest.fixture()
def world():
    sched = Scheduler()
    hub = RngHub(21)
    fabric = UdpFabric(sched, hub, loss_rate=0.0)
    return sched, fabric, hub


class TestSimulatedPeer:
    def test_answers_ping(self, world):
        sched, fabric, hub = world
        rng = hub.stream("t")
        stack = HostStack(fabric, ip_to_int("10.0.0.1"), rng)
        peer = SimulatedPeer("p", ip_to_int("10.0.0.1"), stack.open_socket, rng)
        peer.start()
        probe = HostStack(fabric, ip_to_int("10.0.0.9"), rng).open_socket()
        got = []
        probe.on_receive(lambda d: got.append(decode_message(d.payload)))
        probe.send(peer.endpoint, encode_message(PingQuery(b"\x00\x07", bytes(20))))
        sched.run()
        assert len(got) == 1
        assert isinstance(got[0], PingResponse)
        assert got[0].responder_id == peer.node_id
        assert got[0].txn == b"\x00\x07"

    def test_answers_get_nodes_with_contacts(self, world):
        sched, fabric, hub = world
        rng = hub.stream("t")
        stack = HostStack(fabric, ip_to_int("10.0.0.1"), rng)
        peer = SimulatedPeer("p", ip_to_int("10.0.0.1"), stack.open_socket, rng)
        peer.start()
        other_stack = HostStack(fabric, ip_to_int("10.0.0.2"), rng)
        other = SimulatedPeer("q", ip_to_int("10.0.0.2"), other_stack.open_socket, rng)
        other.start()
        peer.learn(other.contact_info())
        probe = HostStack(fabric, ip_to_int("10.0.0.9"), rng).open_socket()
        got = []
        probe.on_receive(lambda d: got.append(decode_message(d.payload)))
        query = GetNodesQuery(b"\x00\x01", bytes(20), bytes(20))
        probe.send(peer.endpoint, encode_message(query))
        sched.run()
        assert isinstance(got[0], GetNodesResponse)
        assert any(n.ip == ip_to_int("10.0.0.2") for n in got[0].nodes)

    def test_learns_querier(self, world):
        sched, fabric, hub = world
        rng = hub.stream("t")
        stack = HostStack(fabric, ip_to_int("10.0.0.1"), rng)
        peer = SimulatedPeer("p", ip_to_int("10.0.0.1"), stack.open_socket, rng)
        peer.start()
        probe = HostStack(fabric, ip_to_int("10.0.0.9"), rng).open_socket()
        sender_id = bytes([7]) * 20
        probe.send(
            peer.endpoint,
            encode_message(GetNodesQuery(b"\x00\x01", sender_id, bytes(20))),
        )
        sched.run()
        assert peer.table.contains(sender_id)

    def test_restart_changes_port_and_id(self, world):
        sched, fabric, hub = world
        rng = hub.stream("t")
        stack = HostStack(fabric, ip_to_int("10.0.0.1"), rng)
        peer = SimulatedPeer("p", ip_to_int("10.0.0.1"), stack.open_socket, rng)
        peer.start()
        old_port = peer.endpoint.port
        old_id = peer.node_id
        peer.restart()
        assert peer.endpoint.port != old_port
        assert peer.node_id != old_id
        assert peer.restarts == 1
        assert peer.online

    def test_garbage_gets_error_reply(self, world):
        sched, fabric, hub = world
        rng = hub.stream("t")
        stack = HostStack(fabric, ip_to_int("10.0.0.1"), rng)
        peer = SimulatedPeer("p", ip_to_int("10.0.0.1"), stack.open_socket, rng)
        peer.start()
        probe = HostStack(fabric, ip_to_int("10.0.0.9"), rng).open_socket()
        got = []
        probe.on_receive(lambda d: got.append(d.payload))
        probe.send(peer.endpoint, b"\xff\xfegarbage")
        sched.run()
        assert len(got) == 1  # error reply, still valid bencode
        decode_message(got[0])

    def test_double_start_rejected(self, world):
        _, fabric, hub = world
        rng = hub.stream("t")
        stack = HostStack(fabric, ip_to_int("10.0.0.1"), rng)
        peer = SimulatedPeer("p", ip_to_int("10.0.0.1"), stack.open_socket, rng)
        peer.start()
        with pytest.raises(RuntimeError):
            peer.start()


def build_world(seed=42, loss=0.0, n_public=12, nat_users=3, restricted_users=0):
    sched = Scheduler()
    hub = RngHub(seed)
    fabric = UdpFabric(sched, hub, loss_rate=loss)
    rng = hub.stream("t")
    specs = []
    for i in range(n_public):
        ip = ip_to_int(f"10.0.{i}.1")
        stack = HostStack(fabric, ip, rng)
        specs.append(PeerSpec(f"pub{i}", ip, stack.open_socket))
    gw = NatGateway(fabric, ip_to_int("20.0.0.1"), rng)
    for j in range(nat_users):
        specs.append(
            PeerSpec(
                f"nat{j}",
                ip_to_int(f"192.168.0.{j + 2}"),
                lambda gw=gw: gw.open_socket(behaviour=NatBehaviour.FULL_CONE),
            )
        )
    for j in range(restricted_users):
        specs.append(
            PeerSpec(
                f"natr{j}",
                ip_to_int(f"192.168.1.{j + 2}"),
                lambda gw=gw: gw.open_socket(),
            )
        )
    bstack = HostStack(fabric, ip_to_int("30.0.0.1"), rng)
    overlay = build_overlay(fabric, specs, bstack, rng)
    return sched, fabric, hub, overlay


class TestCrawler:
    def test_discovers_all_public_peers(self):
        sched, fabric, hub, overlay = build_world()
        crawler = DhtCrawler(
            sched,
            HostStack(fabric, ip_to_int("30.0.0.2"), hub.stream("c")).open_socket(),
            hub.stream("c"),
            CrawlerConfig(duration=2 * HOUR),
        )
        crawler.start([overlay.bootstrap_endpoint])
        sched.run_until(3 * HOUR)
        discovered = crawler.discovered_addresses()
        # 12 public peers + 1 NAT IP + bootstrap; the crawler can also
        # re-discover itself via tables that learned it from queries.
        for i in range(12):
            assert ip_to_int(f"10.0.{i}.1") in discovered
        assert ip_to_int("20.0.0.1") in discovered
        assert ip_to_int("30.0.0.1") in discovered

    def test_detects_nat_ip_as_multiport(self):
        sched, fabric, hub, overlay = build_world(nat_users=4)
        crawler = DhtCrawler(
            sched,
            HostStack(fabric, ip_to_int("30.0.0.2"), hub.stream("c")).open_socket(),
            hub.stream("c"),
            CrawlerConfig(duration=3 * HOUR),
        )
        crawler.start([overlay.bootstrap_endpoint])
        sched.run_until(4 * HOUR)
        assert ip_to_int("20.0.0.1") in crawler.multiport_ips
        result = detect_nated(crawler.log)
        assert result.users_behind(ip_to_int("20.0.0.1")) == 4

    def test_restricted_nat_users_invisible_to_detection(self):
        sched, fabric, hub, overlay = build_world(nat_users=0, restricted_users=3)
        crawler = DhtCrawler(
            sched,
            HostStack(fabric, ip_to_int("30.0.0.2"), hub.stream("c")).open_socket(),
            hub.stream("c"),
            CrawlerConfig(duration=3 * HOUR),
        )
        crawler.start([overlay.bootstrap_endpoint])
        sched.run_until(4 * HOUR)
        result = detect_nated(crawler.log)
        assert ip_to_int("20.0.0.1") not in result.nated_ips()

    def test_allowed_space_restriction(self):
        sched, fabric, hub, overlay = build_world()
        allowed = PrefixSet(iter([Prefix.from_text("10.0.0.0/16")]))
        crawler = DhtCrawler(
            sched,
            HostStack(fabric, ip_to_int("30.0.0.2"), hub.stream("c")).open_socket(),
            hub.stream("c"),
            CrawlerConfig(duration=2 * HOUR, allowed_space=allowed),
        )
        crawler.start([overlay.bootstrap_endpoint])
        sched.run_until(3 * HOUR)
        discovered = crawler.discovered_addresses()
        # NAT at 20.0.0.1 is outside the allowed space; bootstrap was
        # force-seeded and is exempt.
        assert ip_to_int("20.0.0.1") not in discovered
        assert any(ip >> 16 == ip_to_int("10.0.0.0") >> 16 for ip in discovered)

    def test_cooldown_respected(self):
        sched, fabric, hub, overlay = build_world(nat_users=2)
        config = CrawlerConfig(duration=4 * HOUR)
        crawler = DhtCrawler(
            sched,
            HostStack(fabric, ip_to_int("30.0.0.2"), hub.stream("c")).open_socket(),
            hub.stream("c"),
            config,
        )
        crawler.start([overlay.bootstrap_endpoint])
        sched.run_until(5 * HOUR)
        nat_ip = ip_to_int("20.0.0.1")
        contacts = sorted(
            r.time for r in crawler.log.sent() if r.dst_ip == nat_ip
        )
        # Group into bursts (all ports of one IP are pinged together);
        # distinct bursts must be >= cooldown apart.
        bursts = []
        for t in contacts:
            if not bursts or t - bursts[-1] > 60:
                bursts.append(t)
        gaps = [b - a for a, b in zip(bursts, bursts[1:])]
        assert all(gap >= config.contact_cooldown - 1e-6 for gap in gaps)

    def test_log_contains_both_kinds(self):
        sched, fabric, hub, overlay = build_world(nat_users=2)
        crawler = DhtCrawler(
            sched,
            HostStack(fabric, ip_to_int("30.0.0.2"), hub.stream("c")).open_socket(),
            hub.stream("c"),
            CrawlerConfig(duration=3 * HOUR),
        )
        crawler.start([overlay.bootstrap_endpoint])
        sched.run_until(4 * HOUR)
        kinds = {r.kind for r in crawler.log.sent()}
        assert kinds == {QUERY_GET_NODES, QUERY_PING}
        assert crawler.stats.ping_response_rate() > 0.9  # zero loss

    def test_start_requires_bootstrap(self):
        sched, fabric, hub, overlay = build_world()
        crawler = DhtCrawler(
            sched,
            HostStack(fabric, ip_to_int("30.0.0.3"), hub.stream("c")).open_socket(),
            hub.stream("c"),
        )
        with pytest.raises(ValueError):
            crawler.start([])

    def test_double_start_rejected(self):
        sched, fabric, hub, overlay = build_world()
        crawler = DhtCrawler(
            sched,
            HostStack(fabric, ip_to_int("30.0.0.3"), hub.stream("c")).open_socket(),
            hub.stream("c"),
            CrawlerConfig(duration=1 * HOUR),
        )
        crawler.start([overlay.bootstrap_endpoint])
        with pytest.raises(RuntimeError):
            crawler.start([overlay.bootstrap_endpoint])


class TestChurnAndAblations:
    def test_port_churn_fools_naive_rules_not_verified(self):
        sched, fabric, hub, overlay = build_world(seed=7, n_public=25, nat_users=3)
        overlay.schedule_churn(
            sched, duration=3 * HOUR, restart_fraction=0.4, depart_fraction=0.0
        )
        crawler = DhtCrawler(
            sched,
            HostStack(fabric, ip_to_int("30.0.0.2"), hub.stream("c")).open_socket(),
            hub.stream("c"),
            CrawlerConfig(duration=8 * HOUR, rewalk_interval=1 * HOUR),
        )
        crawler.start([overlay.bootstrap_endpoint])
        sched.run_until(9 * HOUR)
        verified = detect_nated(crawler.log).nated_ips()
        by_ports = detect_by_ports(crawler.log).nated_ips()
        by_ids = detect_by_node_ids(crawler.log).nated_ips()
        nat_ip = ip_to_int("20.0.0.1")
        assert verified == {nat_ip}
        # The naive rules must flag at least one churned public host.
        assert len(by_ports - {nat_ip}) > 0
        assert len(by_ids - {nat_ip}) > 0
