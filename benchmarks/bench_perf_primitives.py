"""Performance microbenchmarks for the hot-path primitives.

The crawler pushes millions of datagrams through bencode, the KRPC
codec and the UDP fabric; the analyses hammer the prefix trie and the
ECDFs. These benches track that the primitives stay fast enough for
the default scenario to run in seconds.
"""

import random

from repro.bittorrent.bencode import bdecode, bencode
from repro.bittorrent.krpc import (
    GetNodesResponse,
    NodeInfo,
    decode_message,
    encode_message,
)
from repro.net.ipv4 import MAX_IPV4, Prefix, covering_prefix
from repro.net.prefixtrie import PrefixTrie
from repro.analysis.cdf import Ecdf
from repro.internet.dhcp import DhcpPool, LineChurnSpec


def test_perf_bencode_roundtrip(benchmark):
    rng = random.Random(1)
    message = {
        b"t": b"\x00\x01",
        b"y": b"r",
        b"r": {
            b"id": bytes(rng.getrandbits(8) for _ in range(20)),
            b"nodes": bytes(rng.getrandbits(8) for _ in range(26 * 8)),
        },
        b"v": b"UT\x03\x05",
    }

    def roundtrip():
        return bdecode(bencode(message))

    result = benchmark(roundtrip)
    assert result[b"y"] == b"r"


def test_perf_krpc_decode(benchmark):
    rng = random.Random(2)
    nodes = tuple(
        NodeInfo(
            bytes(rng.getrandbits(8) for _ in range(20)),
            rng.getrandbits(32),
            rng.randint(1, 65535),
        )
        for _ in range(8)
    )
    wire = encode_message(
        GetNodesResponse(b"\x00\x09", bytes(20), nodes, b"LT\x01\x02")
    )

    decoded = benchmark(decode_message, wire)
    assert len(decoded.nodes) == 8


def test_perf_trie_lookup(benchmark):
    rng = random.Random(3)
    trie = PrefixTrie()
    for _ in range(5000):
        prefix = covering_prefix(
            rng.randint(0, MAX_IPV4), rng.choice((8, 16, 20, 24))
        )
        trie.insert(prefix, prefix.network)
    probes = [rng.randint(0, MAX_IPV4) for _ in range(256)]

    def lookups():
        hits = 0
        for ip in probes:
            if trie.lookup_value(ip) is not None:
                hits += 1
        return hits

    benchmark(lookups)


def test_perf_trie_build(benchmark):
    rng = random.Random(4)
    prefixes = [
        covering_prefix(rng.randint(0, MAX_IPV4), 24) for _ in range(2000)
    ]

    def build():
        trie = PrefixTrie()
        for prefix in prefixes:
            trie.insert(prefix, True)
        return len(trie)

    assert benchmark(build) > 0


def test_perf_ecdf(benchmark):
    rng = random.Random(5)
    samples = [rng.random() * 44 for _ in range(20000)]

    def evaluate():
        cdf = Ecdf(samples)
        return cdf.median(), cdf.at(2.0), cdf.quantile(0.95)

    benchmark(evaluate)


def test_perf_record_allocation(benchmark):
    """Allocation throughput of the hot record types.

    The crawl log, connection log and fabric records are created
    millions of times per run; ``slots=True`` keeps them dict-free.
    This bench regresses if per-instance ``__dict__`` ever comes back
    (or validation on the construction path gets heavier).
    """
    from repro.bittorrent.crawllog import ReceivedRecord, SentRecord
    from repro.sim.udp import Datagram, Endpoint

    src = Endpoint(0x0A000001, 6881)
    dst = Endpoint(0x0A000002, 6881)

    def allocate():
        total = 0
        for i in range(500):
            sent = SentRecord(
                time=float(i),
                kind="bt_ping",
                dst_ip=0x0A000001,
                dst_port=6881,
                txn="00ff",
            )
            received = ReceivedRecord(
                time=float(i),
                kind="bt_ping",
                src_ip=0x0A000002,
                src_port=6881,
                node_id="ab" * 20,
                txn="00ff",
            )
            datagram = Datagram(src, dst, b"payload")
            total += sent.dst_port + received.src_port + len(datagram.payload)
        return total

    assert benchmark(allocate) > 0


def test_perf_dhcp_pool_simulation(benchmark):
    prefixes = [Prefix(0x0A000000 + i * 256, 24) for i in range(2)]

    def simulate():
        pool = DhcpPool("bench", 64500, list(prefixes))
        specs = [LineChurnSpec(f"l{i}", 1.0) for i in range(60)]
        pool.simulate(specs, 120.0, random.Random(6))
        return sum(t.allocation_count() for t in pool.timelines.values())

    assert benchmark(simulate) > 60
