"""Performance of the streaming ingestion path.

Two promises gate the zero-downtime story:

* **delta apply throughput** — the follower must absorb listing churn
  far faster than any collector produces it. The whole small-preset
  replay (hundreds of day batches) is applied per round, and the
  sustained rate must stay above 50k deltas/sec (asserted);
* **query latency under hot swap** — readers never lock, so applying
  batches between queries must not move the tail. Per-query latencies
  are timed individually, steady-state first, then with an epoch swap
  between every few queries; the churn-phase p99 must stay within 2x
  of steady-state (plus a small timer-noise epsilon, asserted).

The update log's write+read roundtrip rides along as a third number so
the gate also catches a slowdown in the persistence layer.
"""

import time

from repro.experiments.runner import cached_run
from repro.loadgen.stats import percentile
from repro.service.engine import QueryEngine
from repro.service.index import ReputationIndex
from repro.stream.delta import day_advance_batches
from repro.stream.epoch import EpochIndex, index_as_of
from repro.stream.log import UpdateLogWriter, read_update_log

#: Floor asserted on the follower's sustained delta-apply rate.
MIN_DELTAS_PER_SEC = 50_000

#: Allowed churn-phase p99 inflation: 2x steady-state + timer noise.
P99_FACTOR = 2.0
P99_EPSILON_S = 100e-6


def _replay(run):
    observed = run.analysis.observed
    start_day = int(run.analysis.windows[0][0])
    batches = list(day_advance_batches(observed, start_day=start_day))
    base = index_as_of(ReputationIndex.from_run(run), start_day)
    return base, start_day, batches


def _query_pairs(analysis, n):
    ips = sorted(analysis.blocklisted_ips)
    days = [d for w in analysis.windows for d in w]
    return [
        (ips[(3 * i) % len(ips)], days[i % len(days)]) for i in range(n)
    ]


def test_perf_stream_delta_apply(benchmark):
    """Applying the whole replay stream to a fresh epoch index."""
    run = cached_run("small")
    base, start_day, batches = _replay(run)
    total_deltas = sum(len(b.deltas) for b in batches)

    def apply_all():
        epochs = EpochIndex(base, day=start_day)
        epochs.apply_all(batches)
        return epochs

    epochs = benchmark.pedantic(apply_all, rounds=3, iterations=1)
    assert epochs.current.seq == batches[-1].seq

    started = time.perf_counter()
    apply_all()
    elapsed = time.perf_counter() - started
    rate = total_deltas / elapsed
    benchmark.extra_info.update(
        batches=len(batches),
        deltas=total_deltas,
        deltas_per_sec=round(rate),
    )
    assert rate >= MIN_DELTAS_PER_SEC, (
        f"follower sustained only {rate:.0f} deltas/sec "
        f"(floor: {MIN_DELTAS_PER_SEC})"
    )


def test_perf_stream_log_roundtrip(benchmark, tmp_path):
    """Writing and re-reading the full replay as an update log."""
    run = cached_run("small")
    _, start_day, batches = _replay(run)
    path = tmp_path / "updates.gz"

    def roundtrip():
        path.unlink(missing_ok=True)
        writer = UpdateLogWriter(path, start_day=start_day)
        for batch in batches:
            writer.append(batch)
        return read_update_log(path)

    _, loaded = benchmark.pedantic(roundtrip, rounds=3, iterations=1)
    assert loaded == batches
    benchmark.extra_info.update(
        records=len(batches), log_bytes=path.stat().st_size
    )


def test_perf_stream_query_p99_under_hot_swap(benchmark):
    """Per-query p99 with epoch swaps interleaved vs steady-state.

    Queries are timed one by one on the engine's evaluate path; the
    churn phase applies one day batch between every few queries, so
    nearly every query crosses a swap boundary.
    """
    run = cached_run("small")
    base, start_day, batches = _replay(run)
    pairs = _query_pairs(run.analysis, 12 * len(batches))

    def timed_queries(engine, pairs):
        samples = []
        for ip, day in pairs:
            started = time.perf_counter()
            engine.query(ip, day)
            samples.append(time.perf_counter() - started)
        return samples

    # Steady-state: same index state, no writer activity.
    steady_engine = QueryEngine(EpochIndex(base, day=start_day))
    steady = timed_queries(steady_engine, pairs)

    def churn_round():
        epochs = EpochIndex(base, day=start_day)
        engine = QueryEngine(epochs)
        samples = []
        cursor = 0
        for batch in batches:
            epochs.apply(batch)
            chunk = pairs[cursor : cursor + 12]
            cursor += 12
            samples.extend(timed_queries(engine, chunk))
        return samples

    during = benchmark.pedantic(churn_round, rounds=3, iterations=1)
    p99_steady = percentile(steady, 0.99)
    p99_during = percentile(during, 0.99)
    benchmark.extra_info.update(
        p99_steady_us=round(p99_steady * 1e6, 1),
        p99_during_us=round(p99_during * 1e6, 1),
        queries=len(during),
    )
    assert p99_during <= P99_FACTOR * p99_steady + P99_EPSILON_S, (
        f"hot-swap p99 {p99_during * 1e6:.1f}us exceeds "
        f"{P99_FACTOR}x steady-state {p99_steady * 1e6:.1f}us"
    )
