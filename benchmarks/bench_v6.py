"""Performance of the IPv6 serving path.

The family generalization must not tax either family. Three timings
no ledger probe takes (``benchmarks/serving/`` is a v4 corpus; its
one v6 probe is the request codec):

* **v6 survey build** — the full hitlist-v6 discovery half (corpus
  generation, Entropy/IP structure learning, per-group target
  generation, alias collapse, pool classification);
* **128-bit trie lookups** — point lookups against a
  :class:`~repro.net.prefixtrie.PrefixTrie` parameterized over V6 and
  loaded with the survey's /64 pools (16x the bit depth of the v4
  trie, so this is the structure's worst case);
* **routed v6 binary batches** — pipelined ``FT_BATCH_REQ6`` frames
  through a 2-shard v6 cluster end to end.

Each asserts only counts (every probe hit, every query answered): an
absolute rate floor passes or fails by host, not by code. The
timings are pytest-benchmark's table until the ledger can carry them
as reference-kernel-corrected ratios.
"""

import random

from repro.adversary import scenario_index
from repro.cluster import LocalCluster
from repro.net.family import V6
from repro.net.prefixtrie import PrefixTrie
from repro.service.client import ReputationClient
from repro.v6serve import HitlistV6Model


def test_perf_v6_survey_build(benchmark):
    """Hitlist addresses/sec through the discovery pipeline."""
    model = HitlistV6Model()

    survey = benchmark.pedantic(
        lambda: model.survey(2020), rounds=3, iterations=1
    )
    assert survey.facts.hitlist


def test_perf_v6_trie_lookup(benchmark, gc_frozen):
    """Point lookups/sec against a 128-bit prefix trie."""
    survey = HitlistV6Model().survey(2020)
    trie = PrefixTrie(V6)
    for pool in survey.facts.pools:
        trie.insert(pool.prefix, pool.risk)
    rng = random.Random(7)
    hitlist = survey.facts.hitlist
    probes = [rng.choice(hitlist) for _ in range(20_000)]

    def sweep():
        hits = 0
        for ip in probes:
            if trie.lookup_value(ip) is not None:
                hits += 1
        return hits

    hits = benchmark.pedantic(sweep, rounds=3, iterations=1)
    assert hits == len(probes)


def test_perf_v6_routed_binary_batches(benchmark, gc_frozen):
    """Pipelined FT_BATCH_REQ6 frames through a 2-shard v6 cluster."""
    scenario = HitlistV6Model().build(2020)
    index = scenario_index(scenario)
    rng = random.Random(11)
    population = sorted(
        {ip for (ip, _day) in scenario.ledger.eval_points()}
    )
    queries = [
        (rng.choice(population), rng.randrange(scenario.horizon_days))
        for _ in range(8_000)
    ]
    batches = [
        queries[start : start + 256]
        for start in range(0, len(queries), 256)
    ]

    with LocalCluster(index, shards=2) as cluster:
        assert cluster.router.wait_healthy(10.0)
        with ReputationClient(
            *cluster.address, codec="binary", family=V6
        ) as client:
            assert client.codec == "binary"

            def pipelined():
                replies = client.query_batch_pipelined(batches)
                return sum(len(reply) for reply in replies)

            total = benchmark.pedantic(pipelined, rounds=3, iterations=1)
            assert total == len(queries)
