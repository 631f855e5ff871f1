"""The load side: schedules, the two loops, ledgers and spans.

Everything that talks to a SUT goes through ``ReputationClient`` over
TCP loopback from this one process. Schedules and key draws come from
``random.Random`` instances the caller seeds, never from
``repro.loadgen``, so the offered load is identical on every commit.

Closed loop
    one binary connection, ``query_batch_pipelined`` with batches of
    :data:`BATCH` and window :data:`WINDOW`; the next call goes out
    when the previous one returned. Throughput is queries per second
    of call time — key generation between calls is not on the clock.
Open loop
    two connections on two threads, one carrying Poisson point
    queries and one Poisson batches of :data:`OPEN_BATCH`, one request
    outstanding per connection. Latency runs from the *scheduled* due
    time to the decoded reply, so a stall is charged to every request
    it delays; how late the generator itself ran (the sleep timer's
    overshoot) is taken off and reported apart.

:func:`drive` runs both along a :class:`Timeline` of alternating
windows.

Host speed
    the build host's CPUs flip between a fast state and one about 1.6x
    slower, for milliseconds to minutes at a time. Every timed
    operation is therefore followed at once by :func:`ref_kernel`, a
    fixed piece of work on the same CPU, and the gated
    statistics are medians of *operation time / kernel time* put back
    into seconds with :data:`REF_NOMINAL_S`: times as the host's fast
    state would read them. The raw readings are reported beside them.
"""

from __future__ import annotations

import gc
import math
import random
import socket
import statistics
import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from repro.service.client import (
    ReputationClient, ServiceError, TransportError,
)
from repro.stream import DeltaBatch, ListingDelta, UpdateLogWriter

from oracle import Oracle
from synth import Tables

__all__ = [
    "BATCH", "WINDOW", "SLICES", "OPEN_BATCH", "POINT_RATE", "BATCH_RATE",
    "REF_NOMINAL_S", "Ledger", "Measured", "RefSampler", "Timeline", "Tracer",
    "ZipfKeys", "ChurnWriter", "drive", "make_churn", "no_gc",
    "open_schedules", "percentile", "poisson", "ref_kernel", "timed_fast",
]

Key = Tuple[int, Optional[int]]

#: Closed loop: queries per batch, batches in flight, batches per call.
#: A call is short (one full window) so that it and the reference
#: kernel behind it mostly see the same state of the host.
BATCH = 128
WINDOW = 16
CALL_BATCHES = 16

#: Open loop: offered rates (fixed; see README "Rates") and batch size.
POINT_RATE = 300.0
BATCH_RATE = 100.0
OPEN_BATCH = 32

#: Zipf exponent of the open-loop key popularity.
ZIPF_S = 1.1

#: Equal slices a measured phase is cut into.
SLICES = 5

#: One reply in this many is checked against the oracle (>= 1%).
CHECK_EVERY = 64

clock = time.perf_counter


def percentile(samples: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of ``samples`` (``share`` in 0..1)."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


# -- host speed --------------------------------------------------------

#: The reference kernel's three parts, each about a third of its time:
#: interpreter arithmetic, record decoding with dict building, and
#: loopback socket round trips — what the serving path is made of. Its
#: working set is a few KB on purpose: what the host takes away is CPU
#: speed, and a kernel that waits for memory (a big table was tried)
#: slows down by 1.2x where a pipelined call slows down by 1.6x.
REF_LOOPS = 750
REF_RECORDS = 30
REF_TRIPS = 12

#: Seconds the kernel takes on the build machine (README "Baseline")
#: in the host's fast state. The constant only fixes the scale of the
#: corrected metrics; a commit is compared with its parent on one
#: machine, under one constant.
REF_NOMINAL_S = 61e-6

_REF_RECORD = struct.Struct(">IBiH")
_REF_BYTES = bytes(range(256)) * 16
_REF_PAYLOAD = b"x" * 2048
_ref_local = threading.local()


def _ref_pass(near: socket.socket, far: socket.socket) -> None:
    unpack = _REF_RECORD.unpack_from
    offset, rows, total = 0, [], 0
    for step in range(REF_LOOPS):
        total += step & 7
    for step in range(REF_RECORDS):
        ip, flags, day, count = unpack(_REF_BYTES, offset)
        offset = (offset + 67) % 4000
        rows.append({
            "ip": ip, "flags": flags, "day": day, "count": count,
            "lists": [ip & 15, flags],
        })
    for step in range(REF_TRIPS):
        near.sendall(_REF_PAYLOAD)
        far.recv(4096)


def ref_kernel() -> float:
    """Seconds a fixed piece of work takes on this CPU right now. The
    work runs twice and the second pass is timed: the first refills the
    caches with the kernel's own few KB, so that the reading does not
    depend on what ran before it."""
    pair = getattr(_ref_local, "pair", None)
    if pair is None:  # one per thread: a shared one would cross replies
        pair = _ref_local.pair = socket.socketpair()
    _ref_pass(*pair)
    began = clock()
    _ref_pass(*pair)
    return clock() - began


class RefSampler(threading.Thread):
    """Samples :func:`ref_kernel` every ``period`` seconds while the
    caller times work it cannot interleave with the kernel itself: a
    SUT booting on the same CPU, one long call. About 2% of the CPU
    at the default period."""

    def __init__(self, period: float = 0.01) -> None:
        super().__init__(name="bench-ref-sampler")
        self._period = period
        self._halt = threading.Event()
        self.samples: List[float] = []
        #: Seconds the sampler itself kept the CPU from the timed work.
        self.busy = 0.0

    def run(self) -> None:
        while not self._halt.wait(self._period):
            began = clock()
            self.samples.append(ref_kernel())
            self.busy += clock() - began

    def __enter__(self) -> "RefSampler":
        self.start()
        return self

    def __exit__(self, *_: Any) -> None:
        self._halt.set()
        self.join()
        if not self.samples:  # the stretch was shorter than a period
            self.samples.append(ref_kernel())

    def fast(self, seconds: float) -> float:
        """``seconds`` of the sampled stretch as the host's fast state
        would read them: less what the sampler took, times the mean of
        nominal / sample (the time-paced samples average the host's
        *speed*)."""
        return (seconds - self.busy) * statistics.fmean(
            REF_NOMINAL_S / sample for sample in self.samples
        )


def timed_fast(fn: Callable[..., Any], *args: Any) -> Tuple[Any, float]:
    """``fn(*args)`` and the seconds it took as the host's fast state
    would read them. For one-off timings; the loops pair every
    operation with its own kernel instead."""
    with RefSampler(period=0.002) as speed:
        began = clock()
        result = fn(*args)
        took = clock() - began
    return result, speed.fast(took)


@contextmanager
def no_gc() -> Iterator[None]:
    """Keep the cycle collector out of a timed stretch. What is timed
    here allocates plain dicts and lists, freed by reference count; a
    collection would only stall the measurement mid-window."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# -- spans -------------------------------------------------------------


class Tracer:
    """In-memory spans: ``(id, name, parent, request id, start, end)``.

    Disabled, :meth:`span` costs one generator frame and records
    nothing. Span ids are per-tracer and start at 1; parent 0 is the
    root. Threads may record concurrently (list.append is atomic).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Tuple[int, str, int, int, float, float]] = []
        self._ids = iter(range(1, 1 << 62))

    @contextmanager
    def span(
        self, name: str, parent: int = 0, rid: int = 0
    ) -> Iterator[int]:
        if not self.enabled:
            yield 0
            return
        span_id = next(self._ids)
        started = clock()
        try:
            yield span_id
        finally:
            self.spans.append(
                (span_id, name, parent, rid, started, clock())
            )

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and *self* seconds — a span's
        duration minus the part its child spans cover."""
        child_time: Dict[int, float] = {}
        for _id, _name, parent, _rid, started, ended in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + ended - started
        table: Dict[str, Dict[str, float]] = {}
        for span_id, name, _parent, _rid, started, ended in self.spans:
            row = table.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += ended - started
            row["self_s"] += ended - started - child_time.get(span_id, 0.0)
        return table


# -- accounting --------------------------------------------------------


@dataclass
class Ledger:
    """Queries sent and what became of them."""

    sent: int = 0
    ok: int = 0
    rejected: int = 0
    degraded: int = 0
    transport: int = 0
    checked: int = 0
    mismatched: int = 0
    _until_check: int = field(default=CHECK_EVERY, repr=False)

    @property
    def failed(self) -> int:
        """Queries that did not get a correct verdict: rejected,
        degraded, lost to transport errors, never answered, or
        answered but contradicting the oracle."""
        unanswered = (
            self.sent - self.ok - self.rejected - self.degraded
            - self.transport
        )
        return (
            self.rejected + self.degraded + self.transport + unanswered
            + self.mismatched
        )

    def merge(self, other: "Ledger") -> None:
        for name in ("sent", "ok", "rejected", "degraded", "transport",
                     "checked", "mismatched"):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def account(
        self,
        oracle: Oracle,
        keys: Sequence[Key],
        verdicts: Sequence[Dict[str, Any]],
    ) -> None:
        """Tally one reply; oracle-check every ``CHECK_EVERY``-th."""
        for key, verdict in zip(keys, verdicts):
            if "error" in verdict:
                self.degraded += 1
                continue
            self.ok += 1
            self._until_check -= 1
            if self._until_check <= 0:
                self._until_check = CHECK_EVERY
                self.checked += 1
                if not oracle.matches(key[0], key[1], verdict):
                    self.mismatched += 1


# -- key sources -------------------------------------------------------


class ZipfKeys:
    """Zipf(``ZIPF_S``) draws over a key population; rank order is the
    population's own (seed-shuffled) order."""

    def __init__(self, population: Sequence[Key]) -> None:
        self._population = population
        self._cumulative = list(
            accumulate(
                1.0 / (rank + 1) ** ZIPF_S
                for rank in range(len(population))
            )
        )

    def draw(self, rng: random.Random, count: int) -> List[Key]:
        return rng.choices(
            self._population, cum_weights=self._cumulative, k=count
        )


# -- the timeline ------------------------------------------------------

Window = Tuple[float, float]


@dataclass(frozen=True)
class Timeline:
    """When each loop runs, as ``(start, end)`` offsets in seconds.

    A measured run interleaves the two loops in :data:`SLICES` rounds,
    so each metric's slices are spread over the whole run and a slow
    stretch of the host costs every metric one slice, not one metric
    all of them. The loops never overlap.
    """

    bulk: Tuple[Window, ...]
    open: Tuple[Window, ...]

    @classmethod
    def rounds(cls, seconds: float) -> "Timeline":
        """``SLICES`` rounds, each half closed loop, then half open."""
        length = seconds / SLICES
        return cls(
            tuple((r * length, (r + 0.5) * length) for r in range(SLICES)),
            tuple(((r + 0.5) * length, (r + 1) * length)
                  for r in range(SLICES)),
        )

    @classmethod
    def only(cls, loop: str, seconds: float) -> "Timeline":
        """One loop alone, cut into ``SLICES`` back-to-back windows."""
        length = seconds / SLICES
        cut = tuple((r * length, (r + 1) * length) for r in range(SLICES))
        return cls(cut, ()) if loop == "bulk" else cls((), cut)


#: A closed-loop window stops issuing calls this long before it ends
#: (a quarter of the window if that is less), so its last call has
#: returned when the open loop's window begins.
BULK_GUARD = 0.25


@dataclass
class Measured:
    """What one timeline measured. Every timed operation carries the
    seconds the reference kernel took right after it."""

    #: Closed loop, in call order: ``(bulk window, call s, kernel s)``.
    calls: List[Tuple[int, float, float]]
    #: Per kind (``point`` / ``batch``), in send order:
    #: ``(open window, latency s, kernel s)``.
    latencies: Dict[str, List[Tuple[int, float, float]]]
    #: Generator lateness per open-loop request, seconds.
    late: List[float]
    #: This process's CPU seconds per wall second in the open windows.
    cpu_share: float
    #: ``seq -> earliest reply time`` that reported at least that seq.
    first_seen: Dict[int, float]
    #: Absolute ``(start, end)`` clock times of the open windows.
    open_spans: List[Window]

    def throughput(self) -> float:
        """Closed-loop queries per second of call time in the host's
        fast state: a call costs the median of call / kernel reference
        kernels, and a kernel costs ``REF_NOMINAL_S`` there."""
        kernels = statistics.median(took / ref for _w, took, ref in self.calls)
        return BATCH * CALL_BATCHES / (kernels * REF_NOMINAL_S)

    def raw_throughput(self) -> float:
        """Queries per second of the median call, as the clock read it."""
        return BATCH * CALL_BATCHES / statistics.median(
            took for _w, took, _ref in self.calls
        )

    def latency_ms(self, kind: str, share: float) -> float:
        """Percentile over the whole run of latency / kernel, in
        milliseconds of the host's fast state."""
        return 1e3 * REF_NOMINAL_S * percentile(
            [latency / ref for _w, latency, ref in self.latencies[kind]],
            share,
        )

    def sliced(self, kind: str, share: float) -> float:
        """Median over the open windows of the per-window percentile
        of the raw latencies, in milliseconds."""
        buckets: Dict[int, List[float]] = {}
        for window, latency, _ref in self.latencies[kind]:
            buckets.setdefault(window, []).append(latency)
        return 1e3 * statistics.median(
            percentile(bucket, share) for bucket in buckets.values()
        )

    def slowdown(self) -> float:
        """Mean reference-kernel time of the run over its nominal: 1.0
        in the host's fast state, about 1.6 in its slow one."""
        refs = [ref for _w, _took, ref in self.calls]
        for rows in self.latencies.values():
            refs += [ref for _w, _latency, ref in rows]
        return statistics.fmean(refs) / REF_NOMINAL_S

    def bulk_windows(self) -> int:
        return len({window for window, _took, _ref in self.calls})

    def samples(self, kind: str) -> int:
        return len(self.latencies[kind])


def poisson(rng: random.Random, rate: float, seconds: float) -> List[float]:
    due: List[float] = []
    at = rng.expovariate(rate)
    while at < seconds:
        due.append(at)
        at += rng.expovariate(rate)
    return due


#: One open-loop request: ``(due offset, open window, keys)``.
Due = Tuple[float, int, List[Key]]


def open_schedules(
    draw: Callable[[random.Random, int], List[Key]],
    rng: random.Random,
    windows: Sequence[Window],
) -> Dict[str, List[Due]]:
    """Per connection, in due order: Poisson arrivals at the fixed
    rates inside every open window."""
    schedules: Dict[str, List[Due]] = {"point": [], "batch": []}
    for kind, rate, size in (
        ("point", POINT_RATE, 1), ("batch", BATCH_RATE, OPEN_BATCH)
    ):
        for index, (start, end) in enumerate(windows):
            schedules[kind] += [
                (start + at, index, draw(rng, size))
                for at in poisson(rng, rate, end - start)
            ]
    return schedules


def _bulk_window(
    client: ReputationClient,
    next_keys: Callable[[int], List[Key]],
    until: float,
    oracle: Oracle,
    ledger: Ledger,
    tracer: Tracer,
    parent: int,
) -> List[Tuple[float, float]]:
    """Closed-loop pipelined calls until the clock reads ``until``;
    returns, per answered call, the seconds it took and the seconds
    the reference kernel took right after it."""
    per_call = BATCH * CALL_BATCHES
    took: List[Tuple[float, float]] = []
    while True:
        keys = next_keys(per_call)
        batches = [keys[i:i + BATCH] for i in range(0, per_call, BATCH)]
        began = clock()
        if began >= until:
            break
        ledger.sent += per_call
        try:
            with tracer.span("client.query_batch_pipelined", parent):
                replies = client.query_batch_pipelined(
                    batches, window=WINDOW
                )
        except TransportError:
            ledger.transport += per_call
            break  # the connection is gone; the run reports the loss
        except ServiceError:
            ledger.rejected += per_call
            continue
        took.append((clock() - began, ref_kernel()))
        with tracer.span("oracle.check", parent):
            for batch, reply in zip(batches, replies):
                ledger.account(oracle, batch, reply)
    return took


def _open_worker(
    address: Tuple[str, int],
    kind: str,
    schedule: List[Due],
    start: float,
    oracle: Oracle,
    ledger: Ledger,
    tracer: Tracer,
    parent: int,
    out: Dict[str, Any],
) -> None:
    latencies: List[Tuple[int, float, float]] = []
    late: List[float] = []
    first_seen: Dict[int, float] = {}
    seen_seq = 0
    free_at = start
    out.update(latencies=latencies, late=late, first_seen=first_seen)
    with ReputationClient(*address, codec="binary") as client:
        for rid, (due, window, keys) in enumerate(schedule, 1):
            due_at = start + due
            wait = due_at - clock()
            if wait > 0:
                time.sleep(wait)
            sent_at = clock()
            # Lateness is the generator's own: time past the later of
            # the due time and the previous reply (the timer's
            # overshoot, the other thread holding the GIL, this
            # thread's kernel and oracle check after that reply).
            lateness = sent_at - max(due_at, free_at)
            late.append(lateness)
            ledger.sent += len(keys)
            try:
                if kind == "point":
                    with tracer.span("client.query", parent, rid):
                        verdicts = [client.query(*keys[0])]
                else:
                    with tracer.span("client.query_batch", parent, rid):
                        verdicts = client.query_batch(keys)
            except TransportError:
                ledger.transport += len(keys)
                break
            except ServiceError:
                ledger.rejected += len(keys)
                free_at = clock()
                continue
            replied_at = clock()
            latencies.append(
                (window, replied_at - due_at - lateness, ref_kernel())
            )
            ledger.account(oracle, keys, verdicts)
            seq = max(v.get("seq", 0) for v in verdicts)
            if seq < seen_seq:
                ledger.mismatched += 1  # a connection never goes back
            for newer in range(seen_seq + 1, seq + 1):
                first_seen[newer] = replied_at
            seen_seq = max(seen_seq, seq)
            free_at = replied_at


def drive(
    timeline: Timeline,
    address: Tuple[str, int],
    draw: Callable[[random.Random, int], List[Key]],
    rng: random.Random,
    oracle: Oracle,
    ledger: Ledger,
    tracer: Tracer,
    parent: int = 0,
) -> Measured:
    """Run ``timeline`` against the SUT at ``address``.

    The closed loop runs on the calling thread in the bulk windows;
    the open loop's two connections live on two threads for the whole
    timeline and fire only inside the open windows.
    """
    schedules = open_schedules(draw, rng, timeline.open)
    ledgers = {kind: Ledger() for kind in schedules}
    outs: Dict[str, Dict[str, Any]] = {kind: {} for kind in schedules}
    with no_gc():
        start = clock() + 0.05
        threads = [
            threading.Thread(
                target=_open_worker,
                args=(address, kind, schedule, start, oracle, ledgers[kind],
                      tracer, parent, outs[kind]),
                name=f"bench-open-{kind}",
            )
            for kind, schedule in schedules.items()
            if schedule
        ]
        for thread in threads:
            thread.start()
        calls: List[Tuple[int, float, float]] = []
        open_cpu = open_wall = 0.0
        plan = sorted(
            [(w, "bulk") for w in timeline.bulk]
            + [(w, "open") for w in timeline.open]
        )

        def guard(begin: float, end: float) -> float:
            if not timeline.open:
                return 0.0
            return min(BULK_GUARD, 0.25 * (end - begin))

        with ReputationClient(*address, codec="binary") as client:
            for window, ((begin, end), loop) in enumerate(plan):
                time.sleep(max(0.0, start + begin - clock()))
                if loop == "bulk":
                    calls += [
                        (window, took, ref)
                        for took, ref in _bulk_window(
                            client, lambda n: draw(rng, n),
                            start + end - guard(begin, end), oracle, ledger,
                            tracer, parent,
                        )
                    ]
                else:
                    # This thread only sleeps through an open window; what
                    # the process burns meanwhile is the generator's cost.
                    cpu = time.process_time()
                    time.sleep(max(0.0, start + end - clock()))
                    open_cpu += time.process_time() - cpu
                    open_wall += end - begin
        for thread in threads:
            thread.join()
    first_seen: Dict[int, float] = {}
    for kind in schedules:
        ledger.merge(ledgers[kind])
        for seq, at in outs[kind].get("first_seen", {}).items():
            first_seen[seq] = min(at, first_seen.get(seq, at))
    return Measured(
        calls=calls,
        latencies={k: outs[k].get("latencies", []) for k in schedules},
        late=[x for k in schedules for x in outs[k].get("late", [])],
        cpu_share=open_cpu / open_wall if open_wall else 0.0,
        first_seen=first_seen,
        open_spans=[(start + a, start + b) for a, b in timeline.open],
    )


# -- churn -------------------------------------------------------------

#: Deltas per appended batch, and seconds between appends.
CHURN_DELTAS = 2000
CHURN_PERIOD = 1.0


def make_churn(
    tables: Tables,
    oracle: Oracle,
    rng: random.Random,
    batches: int,
    watched: Sequence[int],
    deltas: int = CHURN_DELTAS,
) -> List[DeltaBatch]:
    """``batches`` update-log batches of an add / extend / delist mix,
    each also applied to ``oracle`` under its sequence number.

    Half of every batch touches ``watched`` addresses (the ones the
    load queries, so the churn is actually observed), half the corpus
    at large. Every batch touches an address at most once and never
    makes one list carry an address twice at once.
    """
    day = tables.windows[-1][1]
    list_ids = tables.list_ids
    n_lists = len(list_ids)
    out: List[DeltaBatch] = []
    for seq in range(1, batches + 1):
        half = min(deltas // 2, len(watched))
        touched = set(rng.sample(watched, half))
        while len(touched) < min(deltas, len(tables.ips)):
            touched.add(tables.ips[rng.randrange(len(tables.ips))])
        rows: List[Tuple[str, int, str, int, int]] = []
        for ip in sorted(touched):
            table = oracle.table_at(ip, seq - 1)
            spans = sorted(table.items())
            draw = rng.random()
            if not spans or draw < 0.4:
                carried = {which for which, _first in table}
                which = rng.randrange(n_lists)
                if which in carried:
                    continue
                rows.append(
                    ("add", ip, list_ids[which], day - rng.randrange(8), day)
                )
                continue
            (which, first), last = spans[rng.randrange(len(spans))]
            alone = sum(1 for w, _f in table if w == which) == 1
            if draw < 0.7 and alone:
                rows.append(
                    ("extend", ip, list_ids[which], first,
                     last + 1 + rng.randrange(3))
                )
            elif last > first and draw < 0.9:
                rows.append(
                    ("delist", ip, list_ids[which], first,
                     first + rng.randrange(last - first))
                )
            else:
                rows.append(("delist", ip, list_ids[which], first, first - 1))
        oracle.apply(seq, rows)
        out.append(
            DeltaBatch(
                seq,
                day,
                tuple(
                    ListingDelta(day, ip, list_id, op, first, last)
                    for op, ip, list_id, first, last in rows
                ),
            )
        )
    return out


class ChurnWriter(threading.Thread):
    """Appends one prepared batch to the followed log every
    ``period`` seconds until told to stop or out of batches."""

    def __init__(
        self, log: Path, batches: Sequence[DeltaBatch],
        period: float = CHURN_PERIOD,
    ) -> None:
        super().__init__(name="bench-churn-writer")
        self._writer = UpdateLogWriter(log)
        self._batches = batches
        self._period = period
        self._halt = threading.Event()
        #: ``seq -> time append() returned``.
        self.appended: Dict[int, float] = {}

    def run(self) -> None:
        start = clock()
        for index, batch in enumerate(self._batches):
            wait = start + (index + 0.5) * self._period - clock()
            if self._halt.wait(max(0.0, wait)):
                return
            self._writer.append(batch)
            self.appended[batch.seq] = clock()

    def halt(self) -> None:
        self._halt.set()
        self.join()
