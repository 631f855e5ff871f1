"""Per-layer probes for the traced run.

Like the end-to-end timings, every time reported here is read against
the reference kernel (:func:`driver.timed_fast`, :func:`trip_us`): the
host changes speed between one probe and the next, and layer times
that are to be added up or subtracted must be in one currency.

Each probe times public calls into one layer from outside — in this
process on an index loaded from the run's snapshot, or against SUT
children — and returns named values. Every probe runs in its own
try-block and imports what it measures inside it: when a later
refactor renames or removes a probed function, that probe reports
``-1`` with the reason on standard output and the run it is judged by
goes on. (``-1`` rather than null: the benchmark contract wants every
reported value to be a number.)

README.md lists which end-to-end metric each value should move.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

import driver
import synth
from driver import Ledger, Timeline, Tracer, timed_fast
from oracle import Oracle
from sut import SHARDS, Sut

clock = time.perf_counter

Metric = Tuple[float, str]

#: Registered probes, in run order: ``(units by metric name, function)``.
PROBES: List[Tuple[Dict[str, str], Callable[["Ctx"], Dict[str, float]]]] = []


def probe(units: Dict[str, str]) -> Callable[[Callable], Callable]:
    """Register a probe; ``units`` maps each metric it returns to its
    unit."""

    def register(fn: Callable[["Ctx"], Dict[str, float]]) -> Callable:
        PROBES.append((units, fn))
        return fn

    return register


def per_call_us(fn: Callable[..., Any], argsets: Sequence[tuple]) -> float:
    """Median over five passes of the mean µs per ``fn(*args)``."""
    def one_pass() -> None:
        for args in argsets:
            fn(*args)

    with driver.no_gc():  # a collection mid-pass would be charged to ``fn``
        passes = [timed_fast(one_pass)[1] for _ in range(5)]
    return 1e6 * statistics.median(passes) / len(argsets)


def trip_us(fn: Callable[..., Any], argsets: Sequence[tuple]) -> float:
    """Median µs of one ``fn(*args)``, each read against a reference
    kernel run right after it."""
    kernels = []
    for args in argsets:
        mark = clock()
        fn(*args)
        took = clock() - mark
        kernels.append(took / driver.ref_kernel())
    return 1e6 * driver.REF_NOMINAL_S * statistics.median(kernels)


class Ctx:
    """What probes share: the corpus, a bench-side index, SUTs."""

    def __init__(
        self,
        prep: Any,
        suts: Dict[str, Sut],
        boot: Callable[[str, Any, str], Tuple[Sut, Any, Any]],
        measured: Dict[str, Metric],
        tracer: Tracer,
    ) -> None:
        self.tracer = tracer
        self.prep = prep
        self.tables: synth.Tables = prep.tables
        self.rng = random.Random(f"probes-{prep.seed}")
        self._suts = suts
        self._boot = boot
        self._logs: Dict[str, Any] = {}
        self.measured = measured
        #: Values of probes that already ran (later ones derive from them).
        self.values: Dict[str, float] = {}
        self.index: Any = None
        keys = synth.query_keys(self.tables, self.rng, 4096)
        self.keys = keys
        ips = self.tables.ips
        self.listed = [
            (ips[self.rng.randrange(len(ips))], day) for _ip, day in keys
        ]

    def need_index(self) -> Any:
        if self.index is None:
            raise RuntimeError("no bench-side index (index.load_s failed)")
        return self.index

    def sut(self, shape: str) -> Sut:
        """The running SUT of ``shape``, booted on first use."""
        if shape not in self._suts:
            sut, log, _setup = self._boot(shape, self.prep, "probe")
            self._suts[shape] = sut
            self._logs[shape] = log
            # A fresh SUT is still faulting in pages (forked shards
            # copy each one they first touch); probes want it warm,
            # like the SUT the traced workload has just used.
            driver.drive(
                Timeline.only("bulk", 1.0), sut.address, self.cold_keys,
                self.rng, self.prep.oracle, Ledger(), Tracer(False),
            )
        return self._suts[shape]

    def cold_keys(self, rng: random.Random, count: int) -> List[driver.Key]:
        """Fresh uniform keys over the corpus (the ``draw`` of a burst)."""
        return synth.query_keys(self.tables, rng, count)

    def log_of(self, shape: str) -> Any:
        self.sut(shape)
        return self._logs[shape]


# -- in-process: index, engine, codec ----------------------------------


@probe({"index.load_s": "s"})
def index_load(ctx: Ctx) -> Dict[str, float]:
    from repro.service.index import ReputationIndex

    ctx.index, took = timed_fast(ReputationIndex.load, ctx.prep.snapshot)
    return {"index.load_s": took}


@probe({"index.restrict_s": "s"})
def index_restrict(ctx: Ctx) -> Dict[str, float]:
    from repro.cluster import PartitionMap

    index = ctx.need_index()

    def restrict_all() -> None:
        for shard in PartitionMap(SHARDS).ranges:
            index.restrict(shard.lo, shard.hi)

    return {"index.restrict_s": timed_fast(restrict_all)[1]}


@probe({"index.lookup_us": "us", "index.lookup_miss_us": "us"})
def index_lookup(ctx: Ctx) -> Dict[str, float]:
    lookup = ctx.need_index().lists_active_on
    listed = [
        (ip, ctx.prep.oracle.default_day if day is None else day)
        for ip, day in ctx.listed
    ]
    missing = [(ip ^ 0x5A5A5A5A, day) for ip, day in listed]
    return {
        "index.lookup_us": per_call_us(lookup, listed),
        "index.lookup_miss_us": per_call_us(lookup, missing),
    }


@probe({"trie.contains_us": "us"})
def trie_contains(ctx: Ctx) -> Dict[str, float]:
    is_dynamic = ctx.need_index().is_dynamic
    return {
        "trie.contains_us": per_call_us(
            is_dynamic, [(ip,) for ip, _day in ctx.keys]
        )
    }


@probe({"engine.evaluate_us": "us", "engine.cached_us": "us"})
def engine_evaluate(ctx: Ctx) -> Dict[str, float]:
    from repro.service.engine import QueryEngine

    index = ctx.need_index()
    cold = QueryEngine(index, cache_size=0)
    warm = QueryEngine(index)
    hot = ctx.keys[:512]
    for key in hot:
        warm.query(*key)
    return {
        "engine.evaluate_us": per_call_us(cold.query, ctx.keys),
        "engine.cached_us": per_call_us(warm.query, hot),
    }


@probe({"wire.pack_verdict_us": "us"})
def wire_pack(ctx: Ctx) -> Dict[str, float]:
    from repro.service.engine import QueryEngine
    from repro.service.wire import pack_verdict

    verdicts = QueryEngine(ctx.need_index(), cache_size=0).query_batch(
        ctx.keys[:2048]
    )
    return {
        "wire.pack_verdict_us": per_call_us(
            pack_verdict, [(v,) for v in verdicts]
        )
    }


@probe({
    "wire.req_encode_us_per_q": "us",
    "wire.req_decode_us_per_q": "us",
    "wire.reply_decode_us_per_q": "us",
})
def wire_batch_codec(ctx: Ctx) -> Dict[str, float]:
    from repro.service.engine import QueryEngine
    from repro.service.wire import (
        decode_batch_reply, decode_batch_request, decode_binary_frame,
        encode_batch_reply_frame, encode_batch_request, pack_verdict,
    )

    n = driver.BATCH
    batches = [ctx.keys[i:i + n] for i in range(0, 2048, n)]
    requests = [
        decode_binary_frame(encode_batch_request(batch, 1))[2]
        for batch in batches
    ]
    engine = QueryEngine(ctx.need_index(), cache_size=0)
    replies = [
        decode_binary_frame(
            encode_batch_reply_frame(
                [pack_verdict(v) for v in engine.query_batch(batch)], 1
            )
        )[2]
        for batch in batches
    ]
    return {
        "wire.req_encode_us_per_q": per_call_us(
            encode_batch_request, [(batch, 1) for batch in batches]
        ) / n,
        "wire.req_decode_us_per_q": per_call_us(
            decode_batch_request, [(payload,) for payload in requests]
        ) / n,
        "wire.reply_decode_us_per_q": per_call_us(
            decode_batch_reply, [(payload,) for payload in replies]
        ) / n,
    }


@probe({"wire.msg_roundtrip_us": "us", "wire.json_roundtrip_us": "us"})
def wire_point_codec(ctx: Ctx) -> Dict[str, float]:
    """One point query's codec work on both ends: request and reply,
    each encoded and decoded once, per framing."""
    from repro.net.family import V4
    from repro.service.engine import QueryEngine
    from repro.service.wire import (
        decode_binary_frame, decode_frame, decode_msg_payload,
        encode_frame, encode_msg_frame,
    )

    engine = QueryEngine(ctx.need_index(), cache_size=0)
    pairs = []
    for ip, day in ctx.keys[:512]:
        request = {"op": "query", "ip": V4.format(ip)}
        if day is not None:
            request["day"] = day
        reply = {"ok": True, "result": engine.query(ip, day).to_wire()}
        pairs.append((request, reply))

    def msg(request: Any, reply: Any) -> None:
        for obj in (request, reply):
            decode_msg_payload(decode_binary_frame(encode_msg_frame(obj, 1))[2])

    def as_json(request: Any, reply: Any) -> None:
        for obj in (request, reply):
            decode_frame(encode_frame(obj))

    return {
        "wire.msg_roundtrip_us": per_call_us(msg, pairs),
        "wire.json_roundtrip_us": per_call_us(as_json, pairs),
    }


@probe({"wire.v6_req_roundtrip_us_per_q": "us"})
def wire_v6(ctx: Ctx) -> Dict[str, float]:
    from repro.service.wire import (
        decode_batch_request6, decode_binary_frame, encode_batch_request6,
    )

    n = driver.BATCH
    base = 0x2001_0DB8 << 96
    batches = [
        [(base | (ip << 32) | ip, day) for ip, day in ctx.keys[i:i + n]]
        for i in range(0, 2048, n)
    ]

    def roundtrip(batch: Any) -> None:
        decode_batch_request6(
            decode_binary_frame(encode_batch_request6(batch, 1))[2]
        )

    return {
        "wire.v6_req_roundtrip_us_per_q": per_call_us(
            roundtrip, [(batch,) for batch in batches]
        ) / n
    }


@probe({"partition.shard_of_us": "us", "router.scatter_width": "count"})
def partition(ctx: Ctx) -> Dict[str, float]:
    from repro.cluster import PartitionMap

    shard_of = PartitionMap(SHARDS).shard_of
    n = driver.OPEN_BATCH
    widths = [
        len({shard_of(ip) for ip, _day in ctx.keys[i:i + n]})
        for i in range(0, len(ctx.keys), n)
    ]
    return {
        "partition.shard_of_us": per_call_us(
            shard_of, [(ip,) for ip, _day in ctx.keys]
        ),
        "router.scatter_width": statistics.mean(widths),
    }


# -- in-process: the write side ----------------------------------------


def _probe_churn(ctx: Ctx, batches: int) -> List[Any]:
    """Fresh churn batches over a scratch oracle (the run's own oracle
    must not learn batches no SUT of the run ever saw)."""
    watched = sorted({ip for ip, _day in ctx.keys})
    return driver.make_churn(
        ctx.tables, Oracle(ctx.tables), ctx.rng, batches, watched
    )


@probe({"index.cow_update_ms": "ms", "epoch.apply_ms": "ms"})
def write_side(ctx: Ctx) -> Dict[str, float]:
    from repro.stream import EpochIndex

    index = ctx.need_index()
    batches = _probe_churn(ctx, 5)
    updates = {
        delta.ip: index.intervals_of(delta.ip) for delta in batches[0].deltas
    }
    cow = [
        timed_fast(index.with_interval_updates, updates)[1] for _ in range(5)
    ]
    epochs = EpochIndex(index)
    applied = [timed_fast(epochs.apply, batch)[1] for batch in batches]
    return {
        "index.cow_update_ms": 1e3 * statistics.median(cow),
        "epoch.apply_ms": 1e3 * statistics.median(applied),
    }


@probe({"log.append_ms": "ms", "log.poll_ms": "ms"})
def log_io(ctx: Ctx) -> Dict[str, float]:
    from repro.stream import UpdateLogReader, UpdateLogWriter

    path = ctx.prep.workdir / "probe.log"
    writer = UpdateLogWriter(path)
    reader = UpdateLogReader(path)
    reader.poll()
    appends, polls = [], []
    for batch in _probe_churn(ctx, 5):
        appends.append(timed_fast(writer.append, batch)[1])
        got, took = timed_fast(reader.poll)
        polls.append(took)
        if len(got) != 1:
            raise RuntimeError(f"poll returned {len(got)} batches, not 1")
    return {
        "log.append_ms": 1e3 * statistics.median(appends),
        "log.poll_ms": 1e3 * statistics.median(polls),
    }


# -- in-process: what the repo's own benches measure -------------------


@probe({"loadgen.schedule_events_per_s": "1/s"})
def loadgen_schedule(ctx: Ctx) -> Dict[str, float]:
    from repro.loadgen.generator import TrafficGenerator
    from repro.loadgen.mixes import get_mix

    generator = TrafficGenerator(
        get_mix("steady"),
        [ip for ip, _day in ctx.keys],
        list(synth.OBSERVED_DAYS),
        seed=ctx.prep.seed,
    )
    events, took = timed_fast(generator.schedule, 20_000, 3_500.0)
    return {"loadgen.schedule_events_per_s": len(events) / took}


@probe({"index.lookup_us.small": "us", "engine.evaluate_us.small": "us"})
def small_preset(ctx: Ctx) -> Dict[str, float]:
    """The 188-address ``small`` preset every earlier serving number
    was taken on, side by side with the corpus above."""
    from repro.experiments.runner import preset_config, run_full
    from repro.service.engine import QueryEngine
    from repro.service.index import ReputationIndex

    index = ReputationIndex.from_run(run_full(preset_config("small", 2020)))
    day = index.default_day()
    listed = [ip for ip, _spans in index.interval_items()]
    keys = [(listed[i % len(listed)], day) for i in range(2048)]
    return {
        "index.lookup_us.small": per_call_us(index.lists_active_on, keys),
        "engine.evaluate_us.small": per_call_us(
            QueryEngine(index, cache_size=0).query, keys
        ),
    }


# -- against SUT children ----------------------------------------------


def _client(sut: Sut) -> Any:
    from repro.service.client import ReputationClient

    return ReputationClient(*sut.address, codec="binary")


def _bulk(
    ctx: Ctx, sut: Sut, draw: Callable[[random.Random, int], List[driver.Key]],
    seconds: float,
) -> Tuple[float, Dict[str, float]]:
    """A short closed-loop burst: (queries/s of call time, SUT CPU
    seconds per 1000 queries by role), both as in the host's fast
    state."""
    ledger = Ledger()
    before = sut.cpu_seconds()
    result = driver.drive(
        Timeline.only("bulk", seconds), sut.address, draw, ctx.rng,
        ctx.prep.oracle, ledger, Tracer(False),
    )
    after = sut.cpu_seconds()
    if ledger.failed or not result.calls:
        raise RuntimeError(f"probe burst failed: {ledger}")
    slowdown = result.slowdown()
    return result.throughput(), {
        role: 1e3 * (after[role] - before[role]) / ledger.sent / slowdown
        for role in after
    }


@probe({"server.ping_rtt_us": "us"})
def server_ping(ctx: Ctx) -> Dict[str, float]:
    with _client(ctx.sut("direct")) as client:
        return {"server.ping_rtt_us": trip_us(client.ping, [()] * 400)}


@probe({
    "server.cpu_s_per_kq": "s",
    "server.self_us_per_q.cold": "us",
    "server.self_us_per_q.hot": "us",
    "trace_overhead_pct": "%",
})
def direct_bulk(ctx: Ctx) -> Dict[str, float]:
    """A cold burst, then hot calls, on the direct server. Its self
    time per query is its CPU per query minus the in-process spans
    measured above that run inside it (request decode; on the cold path
    also evaluate and pack): what is left is reactor, sockets, framing
    and the cache probes. ``trace_overhead_pct`` compares hot calls
    with bench-side spans on and off, *alternating call by call* so
    that both see the same state of the host."""
    sut = ctx.sut("direct")
    tables, rng, values = ctx.tables, ctx.rng, ctx.values
    _cold_qps, cold_cpu = _bulk(ctx, sut, ctx.cold_keys, 1.5)
    hot = synth.query_keys(tables, rng, 16_384)
    tracers = (Tracer(False), Tracer(True))
    per_call = driver.BATCH * driver.CALL_BATCHES
    calls = 400
    #: Per tracer: call seconds over the kernel seconds right after.
    kernels: Tuple[List[float], List[float]] = ([], [])
    refs = []
    with _client(sut) as client:
        client.query_batch_pipelined(
            [hot[i:i + driver.BATCH] for i in range(0, len(hot), driver.BATCH)]
        )
        before = sut.cpu_seconds()["server"]
        with driver.no_gc():
            for call in range(calls):
                keys = rng.choices(hot, k=per_call)
                batches = [
                    keys[i:i + driver.BATCH]
                    for i in range(0, per_call, driver.BATCH)
                ]
                mark = clock()
                with tracers[call % 2].span("client.query_batch_pipelined"):
                    client.query_batch_pipelined(batches, window=driver.WINDOW)
                took = clock() - mark
                refs.append(driver.ref_kernel())
                kernels[call % 2].append(took / refs[-1])
        slowdown = statistics.fmean(refs) / driver.REF_NOMINAL_S
        hot_cpu = (
            (sut.cpu_seconds()["server"] - before) / (calls * per_call)
            / slowdown
        )
    decode = values["wire.req_decode_us_per_q"]
    return {
        "server.cpu_s_per_kq": cold_cpu["server"],
        "server.self_us_per_q.cold": 1e3 * cold_cpu["server"] - (
            decode + values["engine.evaluate_us"]
            + values["wire.pack_verdict_us"]
        ),
        "server.self_us_per_q.hot": 1e6 * hot_cpu - decode,
        "trace_overhead_pct": 100.0 * (
            statistics.median(kernels[1]) / statistics.median(kernels[0]) - 1.0
        ),
    }


@probe({
    "server.point_rtt_us": "us",
    "server.batch_rtt_us": "us",
    "router.hop_p50_us": "us",
    "router.batch_hop_p50_us": "us",
})
def router_hop(ctx: Ctx) -> Dict[str, float]:
    """The same back-to-back request stream against the direct server
    and the router: the difference is what the extra hop costs. (The
    open loop's p50 minus these round trips is what waking an idle
    CPU costs on the host — the SUT sleeps between open-loop requests
    and never does here.)"""
    points = ctx.keys[:300]
    batches = [
        ctx.keys[i:i + driver.OPEN_BATCH]
        for i in range(300, 300 + 100 * driver.OPEN_BATCH, driver.OPEN_BATCH)
    ]
    p50: Dict[str, Tuple[float, float]] = {}
    for shape in ("direct", "routed"):
        with _client(ctx.sut(shape)) as client:
            p50[shape] = (
                trip_us(client.query, points),
                trip_us(client.query_batch, [(batch,) for batch in batches]),
            )
    return {
        "server.point_rtt_us": p50["direct"][0],
        "server.batch_rtt_us": p50["direct"][1],
        "router.hop_p50_us": p50["routed"][0] - p50["direct"][0],
        "router.batch_hop_p50_us": p50["routed"][1] - p50["direct"][1],
    }


@probe({
    "router.bulk_qps": "1/s",
    "router.cpu_s_per_kq": "s",
    "shard.cpu_s_per_kq": "s",
})
def router_bulk(ctx: Ctx) -> Dict[str, float]:
    sut = ctx.sut("routed")
    qps, cpu = _bulk(ctx, sut, ctx.cold_keys, 2.5)
    return {
        "router.bulk_qps": qps,
        "router.cpu_s_per_kq": cpu["router"],
        "shard.cpu_s_per_kq": cpu["shard"],
    }


@probe({
    "loadgen.harness_point_p50_ms": "ms",
    "loadgen.harness_batch_p50_ms": "ms",
})
def harness(ctx: Ctx) -> Dict[str, float]:
    """The repo's own ``LoadHarness`` at this benchmark's open-loop
    rates against the same cluster — beside the driver's numbers it
    sizes the harness's share of the latency the repo used to quote."""
    from repro.loadgen.generator import Event
    from repro.loadgen.harness import LoadHarness

    seconds = 2.0
    rng = ctx.rng
    events = [
        Event(at, "point", (rng.choice(ctx.keys),))
        for at in driver.poisson(rng, driver.POINT_RATE, seconds)
    ] + [
        Event(at, "batch", tuple(rng.choices(ctx.keys, k=driver.OPEN_BATCH)))
        for at in driver.poisson(rng, driver.BATCH_RATE, seconds)
    ]
    events.sort(key=lambda event: event.at)
    host, port = ctx.sut("routed").address
    report = LoadHarness(host, port, conns=2, codec="binary").run(events)
    if report.failed:
        raise RuntimeError(f"harness run failed {report.failed} queries")
    return {
        "loadgen.harness_point_p50_ms": 1e3 * report.point_latency["p50"],
        "loadgen.harness_batch_p50_ms": 1e3 * report.batch_latency["p50"],
    }


@probe({"staleness_p50_ms": "ms"})
def staleness(ctx: Ctx) -> Dict[str, float]:
    """Append return → first reply at that seq. ``churn-follow``
    measures it under its own load; elsewhere a short churn against an
    otherwise idle ``follow`` SUT stands in."""
    if "staleness_p50_ms" in ctx.measured:
        return {"staleness_p50_ms": ctx.measured["staleness_p50_ms"][0]}
    sut, log = ctx.sut("follow"), ctx.log_of("follow")
    oracle = Oracle(ctx.tables)
    watched = sorted({ip for ip, _day in ctx.keys})
    batches = driver.make_churn(ctx.tables, oracle, ctx.rng, 4, watched)
    writer = driver.ChurnWriter(log, batches, period=0.5)
    ledger = Ledger()
    writer.start()
    try:
        result = driver.drive(
            Timeline.only("open", 2.5), sut.address,
            lambda r, n: r.choices(ctx.keys, k=n), ctx.rng, oracle, ledger,
            Tracer(False),
        )
    finally:
        writer.halt()
    lags = [
        result.first_seen[seq] - at
        for seq, at in writer.appended.items()
        if seq in result.first_seen
    ]
    if ledger.failed or not lags:
        raise RuntimeError(f"staleness probe failed: {ledger}, {len(lags)}")
    return {"staleness_p50_ms": 1e3 * statistics.median(lags)}


@probe({
    "client.query_call_us": "us",
    "client.query_batch_call_us": "us",
    "client.pipelined_call_us_per_q": "us",
})
def client_calls(ctx: Ctx) -> Dict[str, float]:
    """Mean duration of each kind of client call in the traced
    workload, from its spans."""
    table = ctx.tracer.self_times()

    def mean_us(name: str) -> float:
        row = table[f"client.{name}"]
        return 1e6 * row["total_s"] / row["count"]

    return {
        "client.query_call_us": mean_us("query"),
        "client.query_batch_call_us": mean_us("query_batch"),
        "client.pipelined_call_us_per_q": mean_us("query_batch_pipelined")
        / (driver.BATCH * driver.CALL_BATCHES),
    }


def run_all(
    prep: Any,
    suts: Dict[str, Sut],
    boot: Callable[[str, Any, str], Tuple[Sut, Any, Any]],
    tracer: Tracer,
    measured: Dict[str, Metric],
) -> Dict[str, Metric]:
    """Run every probe, each isolated; returns name → (value, unit)."""
    ctx = Ctx(prep, suts, boot, measured, tracer)
    out: Dict[str, Metric] = {}
    for units, fn in PROBES:
        with tracer.span(f"probe.{fn.__name__}"):
            try:
                values = fn(ctx)
            # A probe must never take the run down with it: whatever a
            # refactored layer raises is reported and the run goes on.
            except Exception as exc:  # noqa: BLE001
                print(
                    f"probe {fn.__name__}: unavailable "
                    f"({type(exc).__name__}: {exc})"
                )
                out.update({name: (-1.0, unit) for name, unit in units.items()})
                continue
        ctx.values.update(values)
        out.update({name: (values[name], units[name]) for name in units})
    return out
