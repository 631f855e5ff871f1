"""Serving benchmark: one command, every metric, checked outputs.

    python3 benchmarks/serving/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

generates the seeded corpus (:mod:`synth`), compiles and snapshots it
with the commit's own code, boots the SUT shape the workload needs in
child processes (:mod:`sut`) — several times, for the set-up median —
drives it over TCP loopback through ``ReputationClient`` only
(:mod:`driver`), checks replies against the bench-side oracle
(:mod:`oracle`), prints every metric by name with its unit and, as the
last line, the result object the benchmark contract asks for.

Load generator and SUT are separate processes on *one* CPU, and every
gated timing is read against a reference kernel run beside it on that
CPU (:func:`driver.ref_kernel`): README.md "What made it steady".

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` repeats
the workload with spans around every client call, runs the per-layer
probes (:mod:`probes`), writes ``.work/trace-<workload>.json`` and
reports the per-layer metrics. Without ``--workload`` all four run in
turn (no result line; that is for reading, not for the driver).

README.md beside this file says why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    raise SystemExit(
        f"benchmarks/serving measures the repo it sits in, and "
        f"{ROOT / 'src'} holds no repro package"
    )
sys.path.insert(0, str(ROOT / "src"))

from repro.service.client import ReputationClient  # noqa: E402
from repro.service.index import ReputationIndex  # noqa: E402
from repro.stream import UpdateLogWriter  # noqa: E402

import driver  # noqa: E402
import probes  # noqa: E402
import synth  # noqa: E402
from driver import Ledger, Timeline, Tracer  # noqa: E402
from oracle import Oracle  # noqa: E402
from sut import Sut, SutDied  # noqa: E402

clock = time.perf_counter

#: Boots per run; ``setup_s`` is their median, the last one is measured.
SETUP_BOOTS = 5

#: ``bulk-hot``'s fixed key set: fits the server's 32,768-record packed
#: cache, exceeds the engine's 4,096-entry LRU.
HOT_KEYS = 16_384

#: Distinct keys the zipf workloads draw from.
POPULATION = 50_000

#: Unmeasured load before the measured timeline, same shape.
WARM_SECONDS = 1.5

#: Validity limits on the open-loop generator (see README "Guards").
#: Lateness is 0.3-2 ms on a quiet host and reached 5 ms in stretches
#: where the host stalled everything; the limit sits well above both,
#: because a refused run costs a PR more than one outlier among ten.
MAX_LATE_P99_MS = 20.0
MAX_CPU_SHARE = 0.85


@dataclass(frozen=True)
class Workload:
    shape: str
    #: ``cold`` fresh uniform keys, ``hot`` a fixed cached set,
    #: ``zipf`` skewed draws over a fixed population.
    keys: str
    churn: bool = False


WORKLOADS: Dict[str, Workload] = {
    "bulk-cold": Workload("direct", "cold"),
    "bulk-hot": Workload("direct", "hot"),
    "routed-slo": Workload("routed", "zipf"),
    "churn-follow": Workload("follow", "zipf", churn=True),
}


class Invalid(RuntimeError):
    """The run cannot be trusted; no metrics are reported."""


# -- preparation -------------------------------------------------------


@dataclass
class Prep:
    """The seeded corpus, its oracle and its compiled snapshot."""

    seed: int
    tables: synth.Tables
    oracle: Oracle
    snapshot: Path
    workdir: Path
    calibration: Dict[str, Any]
    #: ``compile_s`` / ``save_s`` / ``snapshot_bytes``.
    timings: Dict[str, float]
    #: A listed address: the first verdict of every boot is checked.
    boot_key: Tuple[int, Optional[int]]
    #: CPUs every SUT child is pinned to (``None``: left to the kernel).
    #: ``main`` passes the one CPU the load generator itself runs on.
    sut_cpus: Optional[Set[int]] = None


def prepare(
    seed: int,
    workdir: Path,
    divisor: int = synth.SCALE_DIVISOR,
    sut_cpus: Optional[Set[int]] = None,
) -> Prep:
    workdir.mkdir(parents=True, exist_ok=True)
    tables = synth.generate(seed, divisor)
    kwargs = synth.index_kwargs(tables)
    index, compile_s = driver.timed_fast(lambda: ReputationIndex(**kwargs))
    snapshot = workdir / "index.snapshot"
    _, save_s = driver.timed_fast(index.save, snapshot)
    return Prep(
        seed=seed,
        tables=tables,
        oracle=Oracle(tables),
        snapshot=snapshot,
        workdir=workdir,
        calibration=synth.calibration(tables, divisor),
        timings={
            "compile_s": compile_s,
            "save_s": save_s,
            "snapshot_bytes": float(snapshot.stat().st_size),
        },
        boot_key=(tables.ips[len(tables.ips) // 2], None),
        sut_cpus=sut_cpus,
    )


def boot(
    shape: str, prep: Prep, tag: str
) -> Tuple[Sut, Optional[Path], Tuple[float, float]]:
    """Spawn one SUT; returns it, its update log (``follow``) and the
    seconds from spawn to the first oracle-correct verdict, as the
    host's fast state would read them and as the clock read them."""
    log: Optional[Path] = None
    if shape == "follow":
        log = prep.workdir / f"updates-{tag}.log"
        UpdateLogWriter(log, start_day=prep.oracle.default_day)
    with driver.RefSampler() as speed:
        sut = Sut(shape, prep.snapshot, log, prep.sut_cpus)
        try:
            sut.wait_ready()
            with ReputationClient(*sut.address) as client:
                verdict = client.query(*prep.boot_key)
            if not prep.oracle.matches(*prep.boot_key, verdict):
                raise Invalid(
                    f"{shape} SUT's first verdict is wrong: {verdict}"
                )
            took = clock() - sut.spawned_at
        except BaseException:
            sut.stop()
            raise
    return sut, log, (speed.fast(took), took)


# -- one workload ------------------------------------------------------


def _engine_counters(stats: Dict[str, Any]) -> Dict[str, int]:
    """Engine query counters summed over every serving process: the
    ``stats`` op of a single server, or each shard's row of a router's."""
    rows = (
        [row.get("stats") or {} for row in stats["shards"]]
        if "shards" in stats else [stats]
    )
    total = {"point": 0, "batch": 0, "hits": 0}
    for row in rows:
        for kind, counters in row.get("queries", {}).items():
            total[kind] = total.get(kind, 0) + counters["queries"]
            total["hits"] += counters["cache_hits"]
    return total


def _key_source(
    spec: Workload, prep: Prep, rng: random.Random
) -> Tuple[Callable[[random.Random, int], List[driver.Key]], List[driver.Key]]:
    """The workload's ``draw(rng, n)`` and its fixed key set (empty
    for ``cold``)."""
    if spec.keys == "cold":
        return (lambda r, n: synth.query_keys(prep.tables, r, n)), []
    if spec.keys == "hot":
        hot = synth.query_keys(prep.tables, rng, HOT_KEYS)
        return (lambda r, n: r.choices(hot, k=n)), hot
    population = synth.query_keys(prep.tables, rng, POPULATION)
    return driver.ZipfKeys(population).draw, population


def run_workload(
    name: str,
    prep: Prep,
    seconds: float,
    tracer: Tracer,
    keep: Optional[Dict[str, Sut]] = None,
) -> Dict[str, Any]:
    """Boot, drive and tear down one workload.

    Returns ``metrics`` (name → (value, unit)), the ``ledger`` and the
    ``samples`` behind the statistics. With ``keep`` the measured SUT
    is left running in ``keep[shape]`` for the per-layer probes.
    """
    spec = WORKLOADS[name]
    oracle = prep.oracle
    rng = random.Random(f"load-{name}-{prep.seed}")
    draw, fixed = _key_source(spec, prep, rng)
    timeline = Timeline.rounds(seconds)
    churn: List[Any] = []
    if spec.churn:
        churn = driver.make_churn(
            prep.tables, oracle, rng,
            int(seconds / driver.CHURN_PERIOD) + 1,
            sorted({ip for ip, _day in fixed}),
        )

    setups: List[Tuple[float, float]] = []
    sut: Optional[Sut] = None
    log: Optional[Path] = None
    # One traced boot is enough: set-up is measured untraced.
    for attempt in range(1 if tracer.enabled else SETUP_BOOTS):
        if sut is not None:
            sut.stop()
        sut, log, setup_s = boot(spec.shape, prep, f"{name}-{attempt}")
        setups.append(setup_s)
    if sut is None:
        raise Invalid("no SUT was booted")
    ledger = Ledger()
    writer: Optional[driver.ChurnWriter] = None
    try:
        with tracer.span(f"workload.{name}") as root, \
                ReputationClient(*sut.address, codec="binary") as client:
            sizes = client.stats()["index"]
            if (
                sizes["ips"] != len(prep.tables.ips)
                or sizes["lists"] != len(prep.tables.list_ids)
            ):
                raise Invalid(f"SUT serves another corpus: {sizes}")
            # Memory is read now, before any load: how many pages the
            # forked shards un-share later follows the traffic of the
            # run, not the size of the system.
            pss_mb = sut.pss_mb()
            with tracer.span("phase.warm", root) as warm:
                # A fixed key set is sent once, coldest rank first, so
                # the caches hold what they will hold in steady state.
                client.query_batch_pipelined(
                    [fixed[i:i + driver.BATCH][::-1]
                     for i in range(0, len(fixed), driver.BATCH)][::-1],
                    window=driver.WINDOW,
                )
                driver.drive(
                    Timeline.rounds(WARM_SECONDS),
                    sut.address, draw, rng, oracle, Ledger(), tracer, warm,
                )
            before = _engine_counters(client.stats())
            cpu_before = sum(sut.cpu_seconds().values())
            if spec.churn and log is not None:
                writer = driver.ChurnWriter(log, churn)
                writer.start()
            with tracer.span("phase.measured", root) as phase:
                result = driver.drive(
                    timeline, sut.address, draw, rng, oracle, ledger,
                    tracer, phase,
                )
            if writer is not None:
                writer.halt()
            cpu_s = sum(sut.cpu_seconds().values()) - cpu_before
            after = _engine_counters(client.stats())
            if not sut.alive():
                raise Invalid("a SUT process died during the run")
    finally:
        if writer is not None:
            writer.halt()
        if keep is not None and sut.alive():
            keep[spec.shape] = sut
        else:
            sut.stop()

    late_p99_ms = 1e3 * driver.percentile(result.late, 0.99)
    if late_p99_ms > MAX_LATE_P99_MS:
        raise Invalid(f"load generator ran late: p99 {late_p99_ms:.2f} ms")
    if result.cpu_share > MAX_CPU_SHARE:
        raise Invalid(
            f"load generator CPU-bound: share {result.cpu_share:.2f}"
        )
    if (
        result.bulk_windows() < driver.SLICES
        or not result.samples("point")
        or not result.samples("batch")
    ):
        raise Invalid("a window produced no samples")
    staleness: List[float] = []
    if writer is not None:
        if not result.first_seen:
            raise Invalid("no reply ever reported an appended seq")
        # Only appends that landed while the open loop was watching:
        # one made during a bulk window is first seen a window late.
        staleness = [
            result.first_seen[seq] - at
            for seq, at in writer.appended.items()
            if seq in result.first_seen and any(
                begin <= at <= end - 0.3 for begin, end in result.open_spans
            )
        ]

    sent_batch = ledger.sent - result.samples("point")
    engine = {k: after[k] - before[k] for k in after}
    metrics: Dict[str, Tuple[float, str]] = {
        # Timings as the host's fast state would read them.
        "setup_s": (statistics.median(s for s, _raw in setups), "s"),
        "mem_pss_mb": (pss_mb, "MB"),
        "throughput_qps": (result.throughput(), "1/s"),
        "point_p50_ms": (result.latency_ms("point", 0.50), "ms"),
        "batch_p50_ms": (result.latency_ms("batch", 0.50), "ms"),
        # The same as the clock read them, and how slow the host was.
        "raw.setup_s": (statistics.median(raw for _s, raw in setups), "s"),
        "raw.throughput_qps": (result.raw_throughput(), "1/s"),
        "raw.point_p50_ms": (result.sliced("point", 0.50), "ms"),
        "raw.batch_p50_ms": (result.sliced("batch", 0.50), "ms"),
        "host.slowdown": (result.slowdown(), "x"),
        # Workload-scoped layer numbers (reported on traced runs).
        "point_p99_ms": (result.sliced("point", 0.99), "ms"),
        "batch_p99_ms": (result.sliced("batch", 0.99), "ms"),
        "sut_cpu_ms_per_kq": (1e6 * cpu_s / ledger.sent, "ms"),
        "failed_share": (ledger.failed / ledger.sent, "share"),
        "server.packed_hit_rate": (
            1.0 - engine["batch"] / max(1, sent_batch), "share"
        ),
        "engine.lru_hit_rate": (
            engine["hits"] / max(1, engine["point"] + engine["batch"]),
            "share",
        ),
        "driver.late_p99_ms": (late_p99_ms, "ms"),
        "driver.cpu_share": (result.cpu_share, "share"),
    }
    if staleness:
        metrics["staleness_p50_ms"] = (
            1e3 * statistics.median(staleness), "ms"
        )
    for step, took in sut.ready["steps"].items():
        metrics[f"boot.{step}"] = (took, "s")
    return {
        "metrics": metrics,
        "ledger": ledger,
        "samples": {
            "windows": driver.SLICES,
            "bulk_calls": len(result.calls),
            "point": result.samples("point"),
            "batch": result.samples("batch"),
            "staleness": len(staleness),
            "oracle_checked": ledger.checked,
        },
    }


# -- command line ------------------------------------------------------


def _contract() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _print_table(title: str, metrics: Dict[str, Tuple[float, str]]) -> None:
    print(f"-- {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")


def run_one(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    divisor: int = synth.SCALE_DIVISOR,
    sut_cpus: Optional[Set[int]] = None,
) -> Dict[str, Any]:
    """One contract run: the result object for the last output line."""
    contract = _contract()
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    suts: Dict[str, Sut] = {}
    try:
        prep = prepare(seed, workdir, divisor, sut_cpus)
        tracer = Tracer(trace)
        outcome = run_workload(
            name, prep, seconds, tracer, keep=suts if trace else None
        )
        metrics = outcome["metrics"]
        wanted = contract["end_to_end"]
        if trace:
            metrics.update(
                {f"index.{k}": (v, "s" if k.endswith("_s") else "B")
                 for k, v in prep.timings.items()}
            )
            metrics.update(probes.run_all(prep, suts, boot, tracer, metrics))
            self_times = tracer.self_times()
            trace_path = HERE / ".work" / f"trace-{name}.json"
            trace_path.write_text(
                json.dumps(
                    {
                        "workload": name,
                        "seed": seed,
                        "fields": ["id", "name", "parent", "request",
                                   "start_s", "end_s"],
                        "spans": tracer.spans,
                        "self_times": self_times,
                    }
                )
            )
            print(f"-- spans of {name}: self time is a span minus its children")
            for span, row in sorted(self_times.items()):
                print(
                    f"{span:36s} n={row['count']:<7d} "
                    f"total {row['total_s']:9.4f} s  self {row['self_s']:9.4f} s"
                )
            print(f"trace -> {trace_path.relative_to(ROOT)}")
            wanted = contract["per_layer"]
    finally:
        for sut in suts.values():
            sut.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    ledger: Ledger = outcome["ledger"]
    _print_table(
        f"{name} seed={seed} seconds={seconds:g} trace={int(trace)} "
        f"samples={outcome['samples']}",
        metrics,
    )
    print(f"calibration ok={prep.calibration['ok']} ledger={ledger}")
    reported = {}
    for row in wanted:
        value, unit = metrics.get(row["name"], (-1.0, row["unit"]))
        reported[row["name"]] = {"value": value, "unit": unit}
    return {
        "correct": ledger.failed == 0 and bool(prep.calibration["ok"]),
        "attempted": ledger.sent,
        "failed": ledger.failed,
        "metrics": reported,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result object(s) here")
    args = parser.parse_args(argv)
    seconds = args.seconds or float(_contract()["run_seconds"])
    # Two load threads share this interpreter: hand the GIL over fast
    # so a reply is not kept waiting by the other thread's decode.
    sys.setswitchinterval(0.0005)
    # Load generator and SUT share one CPU: the host's CPUs change
    # speed independently of each other, and only on a shared one does
    # the reference kernel see the state the timed work saw.
    sut_cpus = {max(os.sched_getaffinity(0))}
    os.sched_setaffinity(0, sut_cpus)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_one(
                name, args.seed, seconds, bool(args.trace), sut_cpus=sut_cpus
            )
    except (Invalid, SutDied) as exc:
        print(f"INVALID RUN: {exc}", file=sys.stderr)
        return 3
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    if args.workload:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
