"""Point-query tail latency while a cluster shard fails over.

Per-query latencies against a replicated 3-shard cluster, first
steady, then while one shard's primary is killed and later restarted
mid-run. Queries fail over to the replica; the failover phase's p99
must stay within 3x the steady-state p99 taken in the same test (plus
a small epsilon for connect/retry noise) — a bound between two
timings from one process on one host, so it needs no recorded
baseline. No ledger workload kills a backend, which is why this one
stays beside ``benchmarks/serving/``; routed throughput and the
router hop are the ledger's (``routed-slo``, ``router.bulk_qps``,
``router.batch_hop_p50_us``).
"""

import time

from repro.cluster import LocalCluster
from repro.experiments.runner import cached_run
from repro.loadgen.stats import percentile, window_day_workload
from repro.service.client import ReputationClient
from repro.service.index import ReputationIndex

#: Allowed failover-phase p99 inflation: 3x steady-state + noise.
FAILOVER_P99_FACTOR = 3.0
FAILOVER_P99_EPSILON_S = 500e-6


def test_perf_cluster_failover_p99(benchmark):
    """Point-query p99 while a shard primary dies and comes back."""
    run = cached_run("small")
    index = ReputationIndex.from_run(run)
    queries = window_day_workload(run.analysis, 600)

    with LocalCluster(index, shards=3, replicas=1) as cluster:
        assert cluster.router.wait_healthy(10.0)
        victim = cluster.partition.shard_of(queries[0][0])

        def timed_points(client, pairs):
            samples = []
            for ip, day in pairs:
                started = time.perf_counter()
                client.query(ip, day)
                samples.append(time.perf_counter() - started)
            return samples

        with ReputationClient(*cluster.address) as client:
            steady = timed_points(client, queries)

            def failover_round():
                cluster.kill_primary(victim)
                try:
                    return timed_points(client, queries)
                finally:
                    cluster.restart_primary(victim)
                    assert cluster.router.wait_healthy(10.0)

            during = benchmark.pedantic(
                failover_round, rounds=3, iterations=1
            )
            failovers = client.stats()["router"]["failovers"]
    p99_steady = percentile(steady, 0.99)
    p99_during = percentile(during, 0.99)
    benchmark.extra_info.update(
        p99_steady_us=round(p99_steady * 1e6, 1),
        p99_during_us=round(p99_during * 1e6, 1),
        failovers=failovers,
    )
    assert failovers >= 1, "failover path never exercised"
    assert p99_during <= (
        FAILOVER_P99_FACTOR * p99_steady + FAILOVER_P99_EPSILON_S
    ), (
        f"failover p99 {p99_during * 1e6:.1f}us exceeds "
        f"{FAILOVER_P99_FACTOR}x steady-state "
        f"{p99_steady * 1e6:.1f}us"
    )
