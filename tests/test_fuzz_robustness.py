"""Fuzz-style robustness tests.

Anything that parses wire bytes or feed text must fail *cleanly* on
arbitrary input: a typed error or a valid parse, never an unhandled
exception. A DHT node and a feed collector both live on hostile input.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bittorrent.bencode import BencodeError, bdecode
from repro.bittorrent.krpc import KrpcError, decode_message
from repro.blocklists.formats import FeedFormatError, parse_feed
from repro.ipv6.addr6 import ip6_to_int
from repro.net.ipv4 import ip_to_int, parse_ip_or_prefix


class TestWireFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=120))
    def test_bdecode_never_crashes(self, blob):
        try:
            bdecode(blob)
        except BencodeError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=120))
    def test_decode_message_never_crashes(self, blob):
        try:
            decode_message(blob)
        except KrpcError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=80))
    def test_feed_parsers_never_crash(self, text):
        for fmt in ("plain", "cidr", "csv"):
            try:
                parse_feed(fmt, text)
            except FeedFormatError:
                pass

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40))
    def test_ip_parsers_never_crash(self, text):
        for parser in (ip_to_int, parse_ip_or_prefix, ip6_to_int):
            try:
                parser(text)
            except ValueError:
                pass


class TestSnapshotFuzz:
    """A damaged index snapshot must end in ``SnapshotError`` — never
    another exception, a hang, or an index that loaded."""

    HEADER_BYTES = 40
    ENTRY = struct.Struct("<4sB3xQQ")

    @pytest.fixture(scope="class", params=["ipv4", "ipv6"])
    def snapshot(self, request, tmp_path_factory):
        from repro.net.family import FAMILIES
        from repro.service.index import ReputationIndex

        family = FAMILIES[request.param]
        top = family.max_int - 4096
        index = ReputationIndex(
            windows=[(0, 40)],
            intervals={
                top + 7 * i: [(i % 9, i % 9 + 5, f"list-{i % 5}")] * (1 + i % 3)
                for i in range(60)
            },
            nated={top + 14 * i for i in range(20)},
            users={top + 14 * i: 2 + i for i in range(20)},
            dynamic_prefixes=[family.atom_prefix(top)],
            categories={f"list-{i}": "spam" for i in range(5)},
            asn_by_ip={top + 7 * i: 64500 + i % 3 for i in range(60)},
            family=family,
        )
        path = tmp_path_factory.mktemp("fuzz") / f"{family.name}.idx"
        index.save(path)
        assert ReputationIndex.load(path).stats() == index.stats()
        return path, path.read_bytes()

    def _must_refuse(self, path, blob, what):
        from repro.service.index import ReputationIndex, SnapshotError

        path.write_bytes(blob)
        try:
            index = ReputationIndex.load(path)
        except SnapshotError as exc:
            assert str(exc), what
        else:
            pytest.fail(f"{what}: loaded {index.stats()}")

    def _section_bounds(self, good):
        sections = struct.unpack_from("<I", good, 20)[0]
        bounds = {0, 8, 32, 36, self.HEADER_BYTES}
        for at in range(sections):
            entry = self.HEADER_BYTES + self.ENTRY.size * at
            _tag, _item, offset, nbytes = self.ENTRY.unpack_from(good, entry)
            bounds |= {entry, offset, offset + nbytes}
        assert max(bounds) <= len(good)
        return sorted(bounds - {len(good)})

    def test_truncation_at_every_section_boundary(self, snapshot):
        path, good = snapshot
        for cut in self._section_bounds(good):
            for at in {max(cut - 1, 0), cut, cut + 1} - {len(good)}:
                self._must_refuse(path, good[:at], f"cut at {at}")

    def test_truncation_at_random_offsets(self, snapshot):
        path, good = snapshot
        rng = random.Random(2020)
        for _ in range(200):
            at = rng.randrange(len(good))
            self._must_refuse(path, good[:at], f"cut at {at}")

    def test_flipped_bytes(self, snapshot):
        path, good = snapshot
        rng = random.Random(2021)
        # Every header byte and section-table byte, then random ones.
        sections = struct.unpack_from("<I", good, 20)[0]
        table_end = self.HEADER_BYTES + self.ENTRY.size * sections
        offsets = list(range(table_end)) + [
            rng.randrange(len(good)) for _ in range(300)
        ]
        for at in offsets:
            blob = bytearray(good)
            blob[at] ^= 1 << rng.randrange(8)
            self._must_refuse(path, bytes(blob), f"flip at {at}")

    def test_appended_and_foreign_bytes(self, snapshot):
        path, good = snapshot
        rng = random.Random(2022)
        self._must_refuse(path, good + b"\x00", "one byte appended")
        self._must_refuse(path, good + good, "file doubled")
        self._must_refuse(path, rng.randbytes(len(good)), "random bytes")
        self._must_refuse(
            path, good[:8] + rng.randbytes(len(good) - 8), "magic then noise"
        )


class TestPeerUnderHostileTraffic:
    def test_peer_survives_garbage_storm(self):
        from repro.bittorrent.peer import SimulatedPeer
        from repro.net.ipv4 import ip_to_int as ip
        from repro.sim.events import Scheduler
        from repro.sim.nat import HostStack
        from repro.sim.rng import RngHub
        from repro.sim.udp import UdpFabric

        hub = RngHub(13)
        sched = Scheduler()
        fabric = UdpFabric(sched, hub, loss_rate=0.0)
        rng = hub.stream("t")
        stack = HostStack(fabric, ip("10.0.0.1"), rng)
        peer = SimulatedPeer("p", ip("10.0.0.1"), stack.open_socket, rng)
        peer.start()
        attacker = HostStack(fabric, ip("10.9.9.9"), rng).open_socket()
        blob_rng = random.Random(5)
        for _ in range(200):
            size = blob_rng.randint(0, 60)
            blob = bytes(blob_rng.getrandbits(8) for _ in range(size))
            attacker.send(peer.endpoint, blob)
        sched.run()
        # Peer still answers a well-formed query afterwards.
        from repro.bittorrent.krpc import PingQuery, PingResponse, encode_message

        got = []
        attacker.on_receive(
            lambda d: got.append(d)
        )
        attacker.send(
            peer.endpoint,
            encode_message(PingQuery(b"\x00\x01", bytes(20))),
        )
        sched.run()
        replies = [
            d for d in got
            if isinstance(_try_decode(d.payload), PingResponse)
        ]
        assert len(replies) == 1


def _try_decode(blob):
    try:
        return decode_message(blob)
    except KrpcError:
        return None


class TestCrawlerUnderHostileTraffic:
    def test_unsolicited_responses_ignored(self):
        """Forged responses with unknown transaction ids must not
        pollute the crawl log (they would fabricate NAT evidence)."""
        from repro.bittorrent.crawler import CrawlerConfig, DhtCrawler
        from repro.bittorrent.krpc import PingResponse, encode_message
        from repro.net.ipv4 import ip_to_int as ip
        from repro.sim.clock import HOUR
        from repro.sim.events import Scheduler
        from repro.sim.nat import HostStack
        from repro.sim.rng import RngHub
        from repro.sim.udp import UdpFabric

        hub = RngHub(14)
        sched = Scheduler()
        fabric = UdpFabric(sched, hub, loss_rate=0.0)
        rng = hub.stream("t")
        crawler_sock = HostStack(fabric, ip("10.0.0.1"), rng).open_socket()
        crawler = DhtCrawler(
            sched, crawler_sock, rng, CrawlerConfig(duration=1 * HOUR)
        )
        attacker = HostStack(fabric, ip("66.6.6.6"), rng)
        for port_index in range(5):
            sock = attacker.open_socket()
            forged = PingResponse(
                b"\xff\xff", bytes([port_index]) * 20, None
            )
            sock.send(crawler_sock.endpoint, encode_message(forged))
        sched.run_until(10.0)
        assert crawler.stats.ping_responses == 0
        assert len(list(crawler.log.received())) == 0

    def test_malformed_datagrams_counted(self):
        from repro.bittorrent.crawler import CrawlerConfig, DhtCrawler
        from repro.net.ipv4 import ip_to_int as ip
        from repro.sim.clock import HOUR
        from repro.sim.events import Scheduler
        from repro.sim.nat import HostStack
        from repro.sim.rng import RngHub
        from repro.sim.udp import UdpFabric

        hub = RngHub(15)
        sched = Scheduler()
        fabric = UdpFabric(sched, hub, loss_rate=0.0)
        rng = hub.stream("t")
        crawler_sock = HostStack(fabric, ip("10.0.0.1"), rng).open_socket()
        crawler = DhtCrawler(
            sched, crawler_sock, rng, CrawlerConfig(duration=1 * HOUR)
        )
        attacker = HostStack(fabric, ip("66.6.6.7"), rng).open_socket()
        attacker.send(crawler_sock.endpoint, b"\x00\x01garbage")
        sched.run_until(10.0)
        assert crawler.stats.malformed == 1
