# reprolint: disable-file=DET — the harness is the wall-clock
# boundary by design: it replays a (seeded, deterministic) schedule
# open-loop against real time, so time.monotonic/time.sleep are its
# job, exactly like sim/realtime.py on the simulation side.
"""Replay a schedule against a live server and measure the SLO.

:class:`LoadHarness` drives a pre-computed schedule (see
:mod:`repro.loadgen.generator`) against any endpoint speaking the
service wire protocol — a single server or a cluster router, which are
indistinguishable on the wire. ``conns`` worker threads each own one
:class:`~repro.service.client.ReputationClient`; events are dealt
round-robin so every connection carries an even share of the mix.

Pacing is open-loop: a worker sleeps until an event's due time, then
issues it — and when the server falls behind, the backlog shows up as
latency rather than reduced offered load. Latency is measured from the
*scheduled* due time to completion, so queueing delay the schedule
caused is charged to the server (no coordinated omission). Due batch
events are drained together through ``query_batch_pipelined`` — the
serving plane's hot path — up to ``window`` in flight.

The result is a :class:`LoadReport`: offered/answered counts, a
transport/degraded/rejected error ledger, and per-kind latency digests
(p50/p90/p99 via :mod:`repro.loadgen.stats`, so benches and the
harness report identical percentile semantics) — JSON-serialisable as
the run's artefact.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..net.family import V4, AddressFamily
from ..service.client import ReputationClient, ServiceError, TransportError
from .generator import Event
from .stats import summarize

__all__ = [
    "LoadHarness",
    "LoadReport",
    "render_report",
    "storm_hook",
]

#: A verdict carrying this key is a degraded (shard-unavailable) row.
_ERROR_KEY = "error"


@dataclass
class LoadReport:
    """One load run's outcome, JSON-ready via :meth:`to_json`."""

    mix: str
    seed: int
    target_qps: float
    #: Wall-clock seconds from first event due to last reply.
    duration: float
    #: Queries offered / answered with a verdict.
    sent: int = 0
    ok: int = 0
    #: Verdict rows that came back as per-IP ``SHARD_UNAVAILABLE``.
    degraded: int = 0
    #: Requests the server rejected outright (``ok: false`` replies).
    rejected: int = 0
    #: Queries lost to connection-level failures.
    transport_errors: int = 0
    #: Churn storms fired during the run.
    storms: int = 0
    point_latency: Dict[str, float] = field(default_factory=dict)
    batch_latency: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """Queries that did not produce a verdict — the elasticity
        acceptance bar is this staying zero through a split."""
        return self.degraded + self.rejected + self.transport_errors

    def achieved_qps(self) -> float:
        return self.ok / self.duration if self.duration > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "mix": self.mix,
            "seed": self.seed,
            "target_qps": self.target_qps,
            "achieved_qps": round(self.achieved_qps(), 1),
            "duration_s": round(self.duration, 3),
            "sent": self.sent,
            "ok": self.ok,
            "failed": self.failed,
            "degraded": self.degraded,
            "rejected": self.rejected,
            "transport_errors": self.transport_errors,
            "storms": self.storms,
            "point_latency_s": self.point_latency,
            "batch_latency_s": self.batch_latency,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


class _WorkerLedger:
    """One worker thread's private tallies (merged after join)."""

    __slots__ = (
        "sent", "ok", "degraded", "rejected", "transport_errors",
        "point_lat", "batch_lat", "captured",
    )

    def __init__(self) -> None:
        self.sent = 0
        self.ok = 0
        self.degraded = 0
        self.rejected = 0
        self.transport_errors = 0
        self.point_lat: List[float] = []
        self.batch_lat: List[float] = []
        self.captured: List[Tuple[int, Optional[int], Dict[str, Any]]] = []


class LoadHarness:
    """Drive one schedule over ``conns`` pipelined connections."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        conns: int = 4,
        codec: str = "auto",
        window: int = 16,
        timeout: float = 10.0,
        capture: bool = False,
        family: AddressFamily = V4,
    ) -> None:
        if conns < 1:
            raise ValueError(f"need at least one connection: {conns}")
        if window < 1:
            raise ValueError(f"pipeline window must be >= 1: {window}")
        self._host = host
        self._port = port
        self._conns = conns
        self._codec = codec
        self._window = window
        self._timeout = timeout
        self._capture = capture
        self._family = family
        #: (ip, day, verdict) rows from the last run when ``capture``
        #: — what the fidelity tests replay against a static engine.
        self.captured: List[Tuple[int, Optional[int], Dict[str, Any]]] = []

    # -- per-worker execution ------------------------------------------

    def _connect(self) -> ReputationClient:
        return ReputationClient(
            self._host,
            self._port,
            timeout=self._timeout,
            codec=self._codec,
            family=self._family,
        )

    def _account_verdicts(
        self,
        ledger: _WorkerLedger,
        pairs: Sequence[Tuple[int, Optional[int]]],
        verdicts: Sequence[Mapping[str, Any]],
    ) -> None:
        for (ip, day), verdict in zip(pairs, verdicts):
            if _ERROR_KEY in verdict:
                ledger.degraded += 1
            else:
                ledger.ok += 1
                if self._capture:
                    # A detached copy: a binary reply's record view
                    # would pin its whole payload for the run.
                    ledger.captured.append((ip, day, dict(verdict)))

    def _flush_batches(
        self,
        client: ReputationClient,
        ledger: _WorkerLedger,
        due: List[Event],
        start: float,
    ) -> ReputationClient:
        """Drain the due batch events in one pipelined burst."""
        if not due:
            return client
        batches = [event.pairs for event in due]
        try:
            replies = client.query_batch_pipelined(
                batches, window=self._window
            )
        # TransportError subclasses ServiceError: transport first.
        except (TransportError, OSError):
            ledger.transport_errors += sum(len(b) for b in batches)
            due.clear()
            return self._reconnect(client, ledger)
        except ServiceError:
            ledger.rejected += sum(len(b) for b in batches)
            due.clear()
            return client
        done = time.monotonic()
        for event, reply in zip(due, replies):
            ledger.batch_lat.append(done - (start + event.at))
            self._account_verdicts(ledger, event.pairs, reply)
        due.clear()
        return client

    def _reconnect(
        self, client: ReputationClient, ledger: _WorkerLedger
    ) -> ReputationClient:
        try:
            client.close()
        except OSError:
            pass
        try:
            return self._connect()
        except (TransportError, OSError):
            # The endpoint is gone; keep the dead client so later
            # sends fail fast into the transport-error ledger.
            return client

    def _run_worker(
        self,
        events: List[Event],
        start: float,
        ledger: _WorkerLedger,
    ) -> None:
        try:
            client = self._connect()
        except (TransportError, OSError):
            ledger.sent += sum(e.queries() for e in events)
            ledger.transport_errors += sum(e.queries() for e in events)
            return
        due_batches: List[Event] = []
        try:
            for event in events:
                wait = (start + event.at) - time.monotonic()
                if wait > 0:
                    # About to idle: drain whatever batches are due so
                    # their latency is not inflated by our sleep.
                    client = self._flush_batches(
                        client, ledger, due_batches, start
                    )
                    wait = (start + event.at) - time.monotonic()
                    if wait > 0:
                        time.sleep(wait)
                ledger.sent += event.queries()
                if event.kind == "batch":
                    due_batches.append(event)
                    if len(due_batches) >= self._window:
                        client = self._flush_batches(
                            client, ledger, due_batches, start
                        )
                    continue
                ip, day = event.pairs[0]
                try:
                    verdict = client.query(ip, day)
                except (TransportError, OSError):
                    ledger.transport_errors += 1
                    client = self._reconnect(client, ledger)
                    continue
                except ServiceError:
                    ledger.rejected += 1
                    continue
                ledger.point_lat.append(
                    time.monotonic() - (start + event.at)
                )
                self._account_verdicts(ledger, event.pairs, [verdict])
            self._flush_batches(client, ledger, due_batches, start)
        finally:
            try:
                client.close()
            except OSError:
                pass

    # -- the run -------------------------------------------------------

    def run(
        self,
        events: Sequence[Event],
        *,
        mix: str = "custom",
        seed: int = 0,
        target_qps: float = 0.0,
        storm_times: Sequence[float] = (),
        on_storm: Optional[Callable[[int], None]] = None,
    ) -> LoadReport:
        """Replay ``events``; returns the filled :class:`LoadReport`.

        ``storm_times`` schedules ``on_storm(i)`` calls on a side
        thread at those offsets (churn storms appended to a followed
        log land mid-run, while the harness is mid-schedule).
        """
        if not events:
            raise ValueError("empty schedule")
        shards: List[List[Event]] = [[] for _ in range(self._conns)]
        for position, event in enumerate(events):
            shards[position % self._conns].append(event)
        ledgers = [_WorkerLedger() for _ in shards]
        start = time.monotonic()
        stop_storms = threading.Event()
        storms_fired = [0]

        def storm_loop() -> None:
            for index, at in enumerate(sorted(storm_times)):
                wait = (start + at) - time.monotonic()
                if wait > 0 and stop_storms.wait(wait):
                    return
                if on_storm is not None:
                    on_storm(index)
                storms_fired[0] += 1

        storm_thread: Optional[threading.Thread] = None
        if storm_times and on_storm is not None:
            storm_thread = threading.Thread(
                target=storm_loop, name="repro-load-storms", daemon=True
            )
            storm_thread.start()
        workers = [
            threading.Thread(
                target=self._run_worker,
                args=(shard, start, ledger),
                name=f"repro-load-{index}",
                daemon=True,
            )
            for index, (shard, ledger) in enumerate(zip(shards, ledgers))
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        stop_storms.set()
        if storm_thread is not None:
            storm_thread.join(timeout=5.0)
        duration = time.monotonic() - start
        report = LoadReport(
            mix=mix,
            seed=seed,
            target_qps=target_qps,
            duration=duration,
            storms=storms_fired[0],
        )
        point_lat: List[float] = []
        batch_lat: List[float] = []
        self.captured = []
        for ledger in ledgers:
            report.sent += ledger.sent
            report.ok += ledger.ok
            report.degraded += ledger.degraded
            report.rejected += ledger.rejected
            report.transport_errors += ledger.transport_errors
            point_lat += ledger.point_lat
            batch_lat += ledger.batch_lat
            self.captured += ledger.captured
        report.point_latency = summarize(point_lat)
        report.batch_latency = summarize(batch_lat)
        return report


def storm_hook(
    batches: Iterable[Any], target: Any
) -> Tuple[Callable[[int], None], int]:
    """Churn storms for a load run: each storm appends to the live
    log ``target`` (the one a ``--follow`` cluster tails) the next of
    ``batches`` it has not seen yet, so the serving plane swaps epochs
    while the harness is mid-schedule.

    ``batches`` is the full day-batch sequence from ``target``'s start
    day on — a preset run's own churn, or an adversary scenario log
    written by ``repro scenarios run`` — so sequence numbers line up
    with what the log already holds. Returns ``(storm_fn,
    pending_count)``.
    """
    from ..stream import UpdateLogWriter

    # Opening the writer reads the log once and resumes its sequence.
    writer = UpdateLogWriter(target)
    pending = [
        batch for batch in batches if batch.seq >= writer.next_seq
    ]

    def storm(index: int) -> None:
        if index < len(pending):
            writer.append(pending[index])

    return storm, len(pending)


def render_report(report: LoadReport) -> str:
    """Human-readable summary (the CLI's non-JSON output)."""
    lines = [
        f"mix={report.mix} seed={report.seed} "
        f"target={report.target_qps:g} q/s "
        f"achieved={report.achieved_qps():.0f} q/s "
        f"duration={report.duration:.2f}s",
        f"queries: sent={report.sent} ok={report.ok} "
        f"failed={report.failed} (degraded={report.degraded} "
        f"rejected={report.rejected} "
        f"transport={report.transport_errors}) storms={report.storms}",
    ]
    for label, digest in (
        ("point", report.point_latency),
        ("batch", report.batch_latency),
    ):
        if digest.get("count"):
            lines.append(
                f"{label} latency: p50={digest['p50'] * 1e3:.2f}ms "
                f"p90={digest['p90'] * 1e3:.2f}ms "
                f"p99={digest['p99'] * 1e3:.2f}ms "
                f"max={digest['max'] * 1e3:.2f}ms "
                f"({digest['count']} samples)"
            )
    return "\n".join(lines)
