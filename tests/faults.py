"""Seeded fault reproducers, and the one check they are held to
(DESIGN.md §6, "Faults").

Each :class:`Fault` in :data:`FAULTS` is a reproducer with no asserts:
``run(tmp_path, world)`` breaks one thing in a serving plane and
returns a :class:`Record` of what its clients saw; :class:`Expect`
holds the fault's own facts as data. :func:`check` alone judges:

1. every verdict equals ``tests/reference.py``'s model, ``epoch`` and
   ``seq`` aside; behind a log follower, the model as of the day of
   the ``seq`` the verdict names;
2. every request id on a connection is answered exactly once, in
   order, within the fault's bound;
3. ``seq`` and ``epoch`` (and a router's ``seq_min``) never step back
   on a connection — through a router, on each shard of a connection,
   since every shard reports its own;
4. every other answer is declared — ``SHARD_UNAVAILABLE`` on a dead
   shard's addresses only, or an in-band error carrying the fault's
   cause — and so is every stale state. A hang, a timeout or a
   process that did not exit cleanly fails.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import random
import re
import resource
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

import repro
from repro.cluster import SHARD_UNAVAILABLE, LocalCluster, PartitionMap, Router
from repro.loadgen import TrafficGenerator, get_mix, population_from_analysis
from repro.net.family import V4
from repro.service.client import ReputationClient, ServiceError, TransportError
from repro.service.engine import QueryEngine
from repro.service.index import ReputationIndex
from repro.service.server import ReputationServer
from repro.service.wire import (
    CODECS, FT_MSG, FrameReader, decode_frame, decode_msg_payload, encode_binary_frame,
    encode_frame, encode_msg_frame,
)
from repro.stream.delta import DeltaBatch, ListingDelta, day_advance_batches
from repro.stream.epoch import EpochIndex, index_as_of
from repro.stream.follower import LogFollower
from repro.stream.log import UpdateLogWriter
from tests.conftest import wait_for_seq
from tests.fake_peer import FakePeer, garbled, polite
from tests.reference import run_model
from tests.test_stream_log import _member, _record_doc

#: ``(rid, asked, answer, seconds)``: ``asked`` is the client call,
#: ``(method, *args)``; ``answer`` its result as plain data, the
#: exception it raised, or ``None`` when none came.
Call = Tuple[int, tuple, Any, float]


@dataclass
class Record:
    """What a fault's clients saw; nothing in it is judged here."""

    conns: Dict[str, List[Call]] = field(default_factory=dict)
    #: Declared causes read back: ``epoch.error``, an event, a refusal.
    causes: List[str] = field(default_factory=list)
    #: Exit codes of the processes the fault did not kill on purpose.
    exits: Dict[str, Optional[int]] = field(default_factory=dict)
    #: Shards the fault left with no backend: id -> its (lo, hi).
    dead: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: What the run saw of the fault itself: that it landed, and how.
    facts: Dict[str, Any] = field(default_factory=dict)
    #: A router's layout: clause 3 holds per shard of its connections.
    partition: Optional[PartitionMap] = None
    _lock: Any = field(default_factory=threading.Lock, repr=False)

    def conn(self, name: str) -> List[Call]:
        """A new connection's call list."""
        with self._lock:
            return self.conns.setdefault(f"{name}-{len(self.conns)}", [])


@dataclass(frozen=True)
class Expect:
    #: Text every declared cause must carry (``None``: none may be).
    cause: Optional[str] = None
    #: A shard is left with no backend: its addresses, and only its,
    #: must be answered ``SHARD_UNAVAILABLE``.
    degraded: bool = False
    #: Seconds no answer may take (the router's backend timeout).
    bound: Optional[float] = None
    #: Verdicts come from log followers: each is judged as of its seq.
    follow: bool = False
    #: :attr:`Record.facts`, exactly.
    facts: Mapping[str, Any] = field(default_factory=dict)


class Fault(NamedTuple):
    name: str
    run: Callable[[Path, "World"], Record]
    expect: Expect


class World:
    """The session's run as the faults use it, and its model."""

    def __init__(self, run) -> None:
        self.run = run
        self.index = ReputationIndex.from_run(run)
        self.listed = sorted(run.analysis.blocklisted_ips)
        self.days = [day for window in run.analysis.windows for day in window]
        self.start_day = self.days[0]
        self.base = index_as_of(self.index, self.start_day)
        self.batches = list(day_advance_batches(
            run.analysis.observed, start_day=self.start_day
        ))
        self.day_of_seq = {0: self.start_day}
        self.day_of_seq.update((batch.seq, batch.day) for batch in self.batches)
        self.reference = run_model(run)
        self._as_of: Dict[int, Any] = {}

    def owed(self, ip: int, day: Optional[int], seq: Optional[int] = None):
        """The wire verdict owed for ``(ip, day)``, ``epoch``/``seq``
        aside: by the reference, or by it as of ``seq``'s day."""
        model = self.reference
        if seq is not None:
            assert seq in self.day_of_seq, f"no batch has seq {seq}"
            if seq not in self._as_of:
                self._as_of[seq] = model.as_of(self.day_of_seq[seq])
            model = self._as_of[seq]
        if day is None:
            day = model.windows[-1][1] if model.windows else 0
        verdict = model.verdict(ip, day)
        del verdict["epoch"], verdict["seq"]
        return {**verdict, "ip": model.family.format(ip),
                "lists": list(verdict["lists"])}


def check(record: Record, expect: Expect, model: World) -> None:
    """Assert clauses 1-4 (module docstring) on ``record``, then
    ``expect``'s facts. Exits come first: a death is why answers are
    missing."""
    for name, code in record.exits.items():
        died = " (signal death)" if (code or 0) < 0 else ""
        assert code == 0, f"{name} exited {code}{died}"
    degraded = 0
    for name, calls in record.conns.items():
        rids = [call[0] for call in calls]
        first = rids[0] if rids else 0
        assert rids == list(range(first, first + len(rids))), (
            f"{name}: request ids {rids} are not each answered once, in order"
        )
        marks: Dict[Tuple[str, Optional[int]], int] = {}
        for rid, asked, answer, seconds in calls:
            at = f"{name} request {rid} ({asked[0]})"
            assert answer is not None, f"{at}: never answered"
            assert seconds < (expect.bound or math.inf), (
                f"{at}: answered in {seconds:.3f} s, bound {expect.bound}"
            )
            for ip, day, got in _answers(asked, answer, at):
                if isinstance(got, BaseException) or "error" in got:
                    degraded += _declared(ip, day, got, record, expect, at)
                    continue
                shard = None
                if ip is not None and record.partition is not None:
                    shard = record.partition.shard_of(ip)
                for mark in ("epoch", "seq", "seq_min"):
                    if mark in got:
                        key = (mark, shard)
                        on = "" if shard is None else f" on shard {shard}"
                        assert got[mark] >= marks.get(key, 0), (
                            f"{at}: {mark} stepped back "
                            f"{marks[key]} -> {got[mark]}{on}"
                        )
                        marks[key] = got[mark]
                if ip is not None:
                    got = dict(got)
                    del got["epoch"]
                    seq = got.pop("seq")
                    want = model.owed(ip, day, seq if expect.follow else None)
                    assert got == want, f"{at}: {got} is not the model's {want}"
    assert (degraded > 0) == expect.degraded, f"{degraded} degraded answers"
    assert bool(record.causes) == (expect.cause is not None), (
        f"declared {record.causes}; the fault's cause: {expect.cause!r}"
    )
    for cause in record.causes:
        assert expect.cause in cause, f"{cause!r} lacks {expect.cause!r}"
    assert record.facts == dict(expect.facts)


def _answers(asked: tuple, answer: Any, at: str):
    """``(ip, day, verdict)`` for each verdict (or the exception) in
    ``answer``; a ``hello``'s marks come with ``ip`` None."""
    method, *args = asked
    if isinstance(answer, BaseException) or method == "query":
        ip = args[0] if method == "query" else None
        return [(ip, args[1] if len(args) > 1 else None, answer)]
    if method == "query_batch":
        assert len(answer) == len(args[0]), f"{at}: {len(answer)} verdicts"
        return [(ip, day, got) for (ip, day), got in zip(args[0], answer)]
    if method in ("hello", "stats"):
        return [(None, None, {**answer.get("cluster", {}), **answer})]
    assert answer in (True, "pong"), f"{at}: {answer!r}"
    return []


def _declared(ip, day, got, record: Record, expect: Expect, at: str) -> int:
    """1 for a degraded answer on a dead shard, 0 for an in-band error
    carrying the fault's cause; anything else fails."""
    if isinstance(got, BaseException):
        assert isinstance(got, ServiceError) and not isinstance(
            got, TransportError
        ), f"{at}: {got!r}"
        dead = re.match(rf"{SHARD_UNAVAILABLE}: shard (\d+) ", str(got))
        if not (dead and ip is not None):
            assert expect.cause and expect.cause in str(got), (
                f"{at}: undeclared error {got}"
            )
            return 0
        got = {"ip": V4.format(ip), "day": day, "error": SHARD_UNAVAILABLE,
               "shard": int(dead[1])}
    shard = got.get("shard")
    assert expect.degraded and shard in record.dead, (
        f"{at}: undeclared degraded answer {dict(got)}"
    )
    lo, hi = record.dead[shard]
    declared = {"ip": V4.format(ip), "day": day, "error": SHARD_UNAVAILABLE,
                "shard": shard}
    assert lo <= ip <= hi and dict(got) == declared, (
        f"{at}: {dict(got)} is not shard {shard}'s to declare"
    )
    return 1


# -- what the faults drive ---------------------------------------------


def _plain(answer: Any) -> Any:
    """A batch's record views as dicts, kept past the reply."""
    return [dict(v) for v in answer] if isinstance(answer, list) else answer


class Conn:
    """A client whose every call is kept in a record's call list."""

    def __init__(self, client: ReputationClient, calls: List[Call]):
        self.client, self.calls = client, calls

    def ask(self, method: str, *args: Any) -> Any:
        """Call ``method``; keep and return its answer (or exception)."""
        started = time.monotonic()
        try:
            answer = _plain(getattr(self.client, method)(*args))
        except Exception as exc:  # the answer, for check() to judge
            answer = exc
        seconds = time.monotonic() - started
        self.calls.append((len(self.calls) + 1, (method, *args), answer, seconds))
        return answer


def _threads(*targets: Callable[[], Any]) -> None:
    """Run ``targets`` side by side and wait for all of them: one that
    raised, or never ended, is an error of the run."""
    raised: List[BaseException] = []

    def guarded(target: Callable[[], Any]) -> None:
        try:
            target()
        except BaseException as exc:  # re-raised below, on the caller
            raised.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    if raised:
        raise raised[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a fault's client or producer never finished")


_ENV = {**os.environ, "PYTHONUNBUFFERED": "1",
        "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}


@contextlib.contextmanager
def _launch(tmp_path: Path, world: World, record: Record, command: str, *args: str,
            preexec_fn: Optional[Callable[[], None]] = None):
    """``repro COMMAND --port 0 --snapshot … ARGS`` (``serve`` or
    ``cluster``) in its own session, ``preexec_fn`` run in the child
    before it starts: yields its address, a reader of its output and
    its pid, then stops it as an operator does (SIGTERM) and records
    how it exited."""
    snapshot, out = tmp_path / "index.idx", tmp_path / f"{command}.out"
    world.index.save(snapshot)
    with open(out, "wb") as sink:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", command, "--port", "0",
             "--snapshot", str(snapshot), *args],
            stdout=sink, stderr=subprocess.STDOUT, env=_ENV, start_new_session=True,
            preexec_fn=preexec_fn,
        )

    def output() -> str:
        return out.read_text(errors="replace")

    try:
        deadline = time.monotonic() + 120.0
        while not (serving := re.search(r"serving on ([\d.]+):(\d+)", output())):
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"repro {command} never served:\n{output()}")
            time.sleep(0.05)
        yield (serving[1], int(serving[2])), output, proc.pid
    finally:
        proc.send_signal(signal.SIGTERM)
        with contextlib.suppress(subprocess.TimeoutExpired):
            proc.wait(timeout=30.0)
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # whatever did not stop
        record.exits[f"repro {command}"] = proc.wait()


def _backends(cluster: LocalCluster, but=None):
    """Every backend of ``cluster``'s layout now except ``but``, by name
    (read their ``exitcode`` once the cluster is closed)."""
    return {
        f"shard {shard}/{replica}": cluster.backend(shard, replica)
        for shard, slot in enumerate(cluster.shard_pids())
        for replica in range(len(slot))
        if cluster.backend(shard, replica) is not but
    }


def _append(path: Path, data: bytes) -> None:
    with open(path, "ab") as handle:
        handle.write(data)


# -- the faults --------------------------------------------------------


def _cluster_kill_primary(codec: str, victim: int):
    """``repro cluster`` with one replica a shard, asked before and
    after a primary is SIGKILLed (by the pid its banner printed): the
    replica answers."""

    def run(tmp_path: Path, world: World) -> Record:
        record, rng = Record(), random.Random(7)
        keys = world.listed + [rng.randrange(1 << 32) for _ in range(100)]
        with _launch(
            tmp_path, world, record, "cluster", "--shards", "3", "--replicas", "1"
        ) as (address, output, _), ReputationClient(*address, codec=codec) as client:
            conn = Conn(client, record.conn(codec))
            record.facts["shards"] = conn.ask("hello")["cluster"]["shards"]
            conn.ask("query_batch", [(ip, None) for ip in keys])
            pid = re.search(rf"^shard {victim} primary pid=(\d+)", output(), re.M)
            os.kill(int(pid[1]), signal.SIGKILL)
            time.sleep(0.2)
            conn.ask("query_batch", [(ip, None) for ip in keys])
            for ip in world.listed:
                conn.ask("query", ip)
            record.facts["codec"] = client.codec
        return record

    return run


def _auto_split_under_load(tmp_path: Path, world: World) -> Record:
    """``repro cluster --auto-split`` under 20,000 hot-range queries at
    2,000 q/s over four connections: it splits online, and every query
    is answered."""
    record, mix = Record(), get_mix("hot-range")
    ips, days = population_from_analysis(mix, world.run.analysis)
    events = TrafficGenerator(mix, ips, days, seed=0).schedule(20_000, 2_000.0)
    with _launch(
        tmp_path, world, record, "cluster", "--shards", "3", "--auto-split",
        "--split-interval", "0.3", "--split-factor", "1.8",
        "--split-sustain", "2", "--split-min-hits", "50", "--max-shards", "8",
    ) as (address, output, _):
        start = time.monotonic()
        record.facts["auto-split on"] = "auto-split on" in output()

        def drive(share) -> None:
            with ReputationClient(*address, codec="binary") as client:
                conn = Conn(client, record.conn("load"))
                for event in share:
                    time.sleep(max(0.0, start + event.at - time.monotonic()))
                    if event.kind == "batch":
                        conn.ask("query_batch", event.pairs)
                    else:
                        conn.ask("query", *event.pairs[0])

        _threads(*(lambda n=n: drive(events[n::4]) for n in range(4)))
        record.facts["queries asked"] = sum(
            len(asked[1]) if asked[0] == "query_batch" else 1
            for calls in record.conns.values() for _, asked, _, _ in calls
        )
        with ReputationClient(*address, codec="binary") as client:
            hello = Conn(client, record.conn("after")).ask("hello")
            events = client.stats()["events"]
        record.facts["split done"] = any(
            e["kind"] == "split" and e["phase"] == "done" and "new_shards" in e
            for e in events
        )
        record.facts["shards > 3"] = hello["cluster"]["shards"] > 3
    return record


_BACKEND_TIMEOUT = 2.0


def _kill_under_load(replicas: int, total: int = 300, window: int = 8):
    """A primary SIGKILLed while a raw pipelined window of batches (of
    every listed address) is in flight."""

    def run(tmp_path: Path, world: World) -> Record:
        record, codec = Record(), CODECS[V4]
        pairs = [(ip, None) for ip in world.listed]
        calls, sent_at, killed_at = record.conn("raw"), {}, []
        with LocalCluster(
            world.index, shards=2, replicas=replicas,
            backend_timeout=_BACKEND_TIMEOUT, heartbeat_interval=0.2,
        ) as cluster:
            router = cluster.router
            router.wait_healthy(10.0)
            victim = cluster.partition.shard_of(world.listed[0])
            primary = cluster.backend(victim)
            spared = _backends(cluster, but=primary)

            def kill_mid_stream() -> None:
                deadline = time.monotonic() + 10.0
                while (
                    router.load_snapshot()["shards"][victim]["hits"] < 2000
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.001)
                cluster.kill_primary(victim)
                killed_at.append(time.monotonic())

            killer = threading.Thread(target=kill_mid_stream)
            with socket.create_connection(cluster.address, timeout=12.0) as sock:
                frames, started = FrameReader(sock), time.monotonic()
                sock.sendall(encode_frame({"op": "hello", "accept_codecs": ["binary"]}))
                hello = frames.read()["result"]
                calls.append((0, ("hello",), hello, time.monotonic() - started))
                killer.start()
                while len(calls) <= total:
                    out = bytearray()
                    while len(sent_at) < total and len(sent_at) - len(calls) < window:
                        rid = len(sent_at) + 1
                        out += codec.encode_batch_request(pairs, rid)
                        sent_at[rid] = time.monotonic()
                    sock.sendall(out)
                    ftype, rid, payload = frames.read(binary=True)
                    answer = TransportError(f"reply frame type {ftype}")
                    if ftype == codec.ft_reply:
                        answer = _plain(codec.decode_batch_reply(payload))
                    calls.append((rid, ("query_batch", pairs), answer,
                                  time.monotonic() - sent_at.get(rid, started)))
                killer.join(timeout=15.0)
                # Nothing answered twice: the next frame on the wire is
                # the reply to the next request, not a late duplicate.
                started = time.monotonic()
                sock.sendall(encode_binary_frame(FT_MSG, total + 1, b'{"op": "ping"}'))
                _, rid, payload = frames.read(binary=True)
                pong = decode_msg_payload(payload)["result"]
                calls.append((rid, ("ping",), pong, time.monotonic() - started))
            record.facts.update({
                "killed": primary.exitcode,
                "kill landed mid-stream": bool(killed_at)
                and sent_at[1] < killed_at[0] < sent_at[total],
                "victim slot emptied": cluster.shard_pids()[victim][0] is None,
            })
            if replicas:
                with ReputationClient(*router.address) as client:
                    rows = client.stats()["shards"][victim]["backends"]
                record.facts["replica healthy"] = rows[1]["healthy"]
            else:
                shard_range = cluster.partition.range_of(victim)
                record.dead[victim] = (shard_range.lo, shard_range.hi)
        record.exits.update((name, b.exitcode) for name, b in spared.items())
        return record

    return run


_FAKE_TIMEOUT = 1.0  # the routers' backend timeout below, so each answer's bound


@contextlib.contextmanager
def _router(world: World, script: Optional[Callable[[Any], Any]] = None):
    """A one-shard router with no heartbeat to speak of over a real
    server, behind a fake primary answering by ``script`` if given."""
    fake = FakePeer(script) if script else None
    with ReputationServer(QueryEngine(world.index)) as real:
        real.start()
        backends = [tuple(fake.address), real.address] if fake else [real.address]
        router = Router(
            PartitionMap(1), [backends],
            backend_timeout=_FAKE_TIMEOUT, heartbeat_interval=30.0,
        )
        router.start()
        try:
            yield router
        finally:
            router.shutdown()
            if fake:
                fake.close()


def _fake_primary(script: Callable[[Any], Any], codec: str = "json", op: str = ""):
    """A fake primary answers by ``script``, short of what the protocol
    promises: asked on a ``codec`` connection, ``op`` (if any) and a
    query are answered from the replica — a sub lost instead would
    stall its downstream slot for ever — and the router's one
    ``backend`` event is the primary going down, with why."""

    def run(tmp_path: Path, world: World) -> Record:
        record = Record()
        with _router(world, script) as router:
            with ReputationClient(*router.address, codec=codec, timeout=3.0) as client:
                conn = Conn(client, record.conn("client"))
                if op:
                    conn.ask(op)
                conn.ask("query", world.listed[0])
            with ReputationClient(*router.address, timeout=3.0) as watcher:
                stats = watcher.stats()
        primary = ":".join(map(str, stats["shards"][0]["backends"][0]["address"]))
        flips = [e for e in stats["events"] if e["kind"] == "backend"]
        record.causes += [flip["cause"] for flip in flips]
        record.facts["primary down"] = [
            (flip["address"], flip["healthy"]) for flip in flips
        ] == [(primary, False)]
        record.facts["failed over"] = stats["router"]["failovers"] >= 1
        return record

    return run


def _short(op: str, result: Dict[str, Any]) -> Callable[[Any], Any]:
    """A script answering every ``op`` with ``result``, else politely."""

    def script(request: Any) -> Any:
        asked = isinstance(request, dict) and request.get("op") == op
        return result if asked else polite(request)

    return script


def _boom(*_: Any) -> Any:
    raise RuntimeError("boom")


def _gather_raises(tmp_path: Path, world: World) -> Record:
    """A router's ``hello`` gather raises (``_fleet_summary`` patched):
    each such request alone is answered in band — the codec
    negotiation's too, which then grants nothing — the loop counts
    them, the backend stays healthy, and the connection answers its
    next query."""
    record = Record()
    with _router(world) as router:
        router._fleet_summary = _boom
        with ReputationClient(*router.address, timeout=3.0) as client:
            conn = Conn(client, record.conn("client"))
            conn.ask("hello")
            del router._fleet_summary
            conn.ask("query", world.listed[0])
        record.facts["codec"] = client.codec
        with ReputationClient(*router.address, timeout=3.0) as watcher:
            stats = watcher.stats()
    loop = stats.get("loop", {})
    record.causes.append(loop.get("callback_error") or "nothing counted")
    record.facts["backend healthy"] = stats["shards"][0]["backends"][0]["healthy"]
    record.facts["counted"] = loop.get("callback_errors")
    return record


def _log_swaps_under_load(tmp_path: Path, world: World) -> Record:
    """A producer appends the whole stream while four clients ask: each
    answer is the state of the epoch it names, never a torn one; after
    catch-up, every listed address on every window day is."""
    record, log_path = Record(), tmp_path / "updates.gz"
    writer = UpdateLogWriter(log_path, start_day=world.start_day)
    epochs = EpochIndex(world.base, day=world.start_day)
    final, ips, days = world.batches[-1].seq, world.listed, world.days
    with ReputationServer(
        QueryEngine(epochs), connection_timeout=10.0, streaming=True
    ) as server, LogFollower(log_path, epochs, poll_interval=0.002):
        address = server.start()

        def ask(seed: int) -> None:
            with ReputationClient(*address) as client:
                conn = Conn(client, record.conn("client"))
                for i in range(250):
                    ip = ips[(seed + 3 * i) % len(ips)]
                    conn.ask("query", ip, days[(seed + i) % len(days)])

        _threads(*(lambda n=n: ask(n) for n in range(4)),
                 lambda: [writer.append(batch) for batch in world.batches])
        record.facts["caught up"] = wait_for_seq([address], final)
        with ReputationClient(*address) as client:
            conn = Conn(client, record.conn("after"))
            for day in days:
                conn.ask("query_batch", [(ip, day) for ip in ips])
            record.facts["at the last seq"] = conn.ask("hello")["seq"] == final
    record.causes += [epochs.error] if epochs.error is not None else []
    return record


def _log_append_fails(tmp_path: Path, world: World) -> Record:
    """A producer's append writes half its member, waits while the
    follower polls that torn tail, and fails with ENOSPC; the producer
    retries it and appends one more. The follower reaches the last
    seq, and answers every listed address at it."""
    record, log_path = Record(), tmp_path / "updates.gz"
    first, retried, last = world.batches[:3]
    writer = UpdateLogWriter(log_path, start_day=world.start_day)
    epochs = EpochIndex(world.base, day=world.start_day)
    write = writer._write

    def disk_full(blob: bytes) -> None:
        write(blob[:len(blob) // 2])
        time.sleep(0.05)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with ReputationServer(
        QueryEngine(epochs), connection_timeout=5.0, streaming=True
    ) as server, LogFollower(log_path, epochs, poll_interval=0.005):
        address = server.start()
        writer.append(first)
        record.facts["caught up"] = wait_for_seq([address], first.seq, 10.0)
        writer._write = disk_full
        try:
            writer.append(retried)
        except OSError as exc:
            record.facts["append failed"] = exc.errno == errno.ENOSPC
        del writer._write
        record.facts["seq kept"] = writer.next_seq == retried.seq
        writer.append(retried)
        writer.append(last)
        record.facts["at the last seq"] = wait_for_seq([address], last.seq, 10.0)
        with ReputationClient(*address) as client:
            conn = Conn(client, record.conn("client"))
            conn.ask("query_batch", [(ip, last.day) for ip in world.listed])
            conn.ask("hello")
    record.causes += [epochs.error] if epochs.error is not None else []
    return record


def _follow_fault(damage, asks=lambda good: ()):
    """A server following a one-batch log through a symlink (so the
    fault can swap what the path names in one rename), until
    ``damage(log, tmp_path, world)`` breaks the log; it returns text
    the declared reason must also name, or ``None``. The stale server
    is then asked ``asks(good)``, a point query and a ``hello``, and
    its events hold one ``follow-end`` at the seq it serves."""

    def run(tmp_path: Path, world: World) -> Record:
        record, good = Record(), world.batches[0]
        real, log_path = tmp_path / "updates.real.gz", tmp_path / "updates.gz"
        UpdateLogWriter(real, start_day=world.start_day).append(good)
        log_path.symlink_to(real)
        epochs = EpochIndex(world.base, day=world.start_day)
        follower = LogFollower(log_path, epochs, poll_interval=0.01)
        with ReputationServer(
            QueryEngine(epochs), connection_timeout=5.0, streaming=True
        ) as server:
            address = server.start()
            with follower, ReputationClient(*address, codec="binary") as client:
                record.facts["caught up"] = wait_for_seq([address], good.seq, 10.0)
                record.facts["clean before"] = client.stats()["epoch"]["error"] is None
                place = damage(log_path, tmp_path, world)
                deadline = time.monotonic() + 1.0
                while (reason := client.stats()["epoch"]["error"]) is None:
                    if time.monotonic() > deadline:
                        break
                    time.sleep(0.01)
                record.causes += [reason] if reason is not None else []
                conn = Conn(client, record.conn("client"))
                for ask in [*asks(good), ("query", good.deltas[0].ip)]:
                    conn.ask(*ask)
                ends = [e for e in client.stats()["events"] if e["kind"] == "follow-end"]
                record.causes += [end["reason"] for end in ends]
                record.facts.update({
                    "names its place": place is None or place in (reason or ""),
                    "follower holds it": epochs.error == reason,
                    "serving seq": conn.ask("hello")["seq"],
                    "one follow-end at the seq": [
                        (end["reason"], end["seq"]) for end in ends
                    ] == [(reason, good.seq)],
                })
        return record

    return run


def _seq_gap(log_path, tmp_path, world):
    good = world.batches[0]
    _append(log_path, _member(_record_doc(DeltaBatch(good.seq + 2, good.day + 2, ()))))


def _unreadable(log_path, tmp_path, world):
    """Not an ``UpdateLogError``: ``open()`` itself fails (here
    EISDIR; EACCES and EIO take the same path)."""
    (tmp_path / "blocker").mkdir()
    (tmp_path / "swap").symlink_to(tmp_path / "blocker")
    os.replace(tmp_path / "swap", log_path)


def _list_id_too_long(log_path, tmp_path, world):
    """A list id too long for a verdict record is refused where it
    enters, not folded in to fail every binary frame that touches its
    address, the innocent neighbours in the frame included."""
    good = world.batches[0]
    day, ip = good.day + 1, good.deltas[0].ip
    poison = ListingDelta(day, ip, "x" * 300, "add", day, good.day + 9)
    _append(log_path, _member(_record_doc(DeltaBatch(good.seq + 1, day, (poison,)))))


def _neighbours(good):
    ip, day = good.deltas[0].ip, good.day + 1
    return [("query_batch", [(ip - 1, day), (ip, day)]), ("query", ip, day)]


def _damage_mid_file(log_path, tmp_path, world):
    """A flipped byte inside a complete member is not a torn tail:
    taken for one, the follower would wait on it for ever with
    ``error`` None while valid batches sit behind the damage."""
    damaged = bytearray(_member(_record_doc(world.batches[1])))
    damaged[len(damaged) // 2] ^= 0xFF
    at = log_path.stat().st_size
    _append(log_path, bytes(damaged) + _member(_record_doc(world.batches[2])))
    return f"corrupt record at byte {at}:"


def _split_fault(replicas: int, victim: int = 1):
    """Follow mode over a three-batch log; a client's ``hello`` sets
    both slots' marks at its seq, shard 1's primary is SIGKILLed, then
    shard 1 split while the client keeps asking ``hello``: the halves
    cut over once they reach the mark, which needs no live old
    backend."""

    def run(tmp_path: Path, world: World) -> Record:
        record, log_path = Record(), tmp_path / "updates.gz"
        writer = UpdateLogWriter(log_path, start_day=world.start_day)
        for batch in world.batches[:3]:
            writer.append(batch)
        seq, calls, stop = world.batches[2].seq, record.conn("watcher"), []
        with LocalCluster(
            world.base, shards=2, replicas=replicas, follow=log_path,
            start_day=world.start_day,
        ) as cluster, ReputationClient(*cluster.address) as client:
            record.facts["caught up"] = wait_for_seq(cluster, seq)
            conn = Conn(client, calls)
            conn.ask("hello")
            old = [cluster.backend(victim, r) for r in range(1 + replicas)]
            cluster.kill_primary(victim)
            # The dead primary says nothing; its replica is at ``seq``.
            record.facts["dead primary silent"] = not wait_for_seq(
                [old[0].address], 0, timeout=0.0
            )
            if replicas:
                record.facts["replica at seq"] = wait_for_seq(
                    [old[1].address], seq, timeout=0.0
                )

            def watch() -> None:
                while not stop:
                    conn.ask("hello")

            def split() -> None:
                router, marks = cluster.router, []
                try:
                    cluster.split_shard(victim)
                    router.reactor.run_sync(lambda: marks.extend(
                        router.shard_slot(victim + i).mark for i in (0, 1)
                    ))
                except RuntimeError as exc:  # the old shard serves on
                    record.causes.append(str(exc))
                record.facts["halves at the mark"] = marks == [seq, seq]
                time.sleep(0.05)  # at least one hello after the cutover
                stop.append(True)

            _threads(watch, split)
            record.facts["hellos from the serving seq"] = (
                len(calls) >= 2 and calls[0][2]["seq"] == seq
            )
            kept = _backends(cluster, but=old[0])
        record.exits.update((name, b.exitcode) for name, b in kept.items())
        return record

    return run


def _rows_until(
    client: ReputationClient, shard: int, at: int, done: Callable[[Dict], bool]
) -> List[Dict[str, Any]]:
    """``stats`` rows of backend ``at`` of ``shard``, read every 10 ms
    until ``done(row)`` (or 20 s): every one read."""
    rows, deadline = [], time.monotonic() + 20.0
    while time.monotonic() < deadline:
        rows.append(client.stats()["shards"][shard]["backends"][at])
        if done(rows[-1]):
            break
        time.sleep(0.01)
    return rows


def _restart_under_follow(replicas: int):
    """Follow mode over the whole log, caught up and served at its last
    seq; the primary of ``world.listed[0]``'s shard is SIGKILLed and
    restarted — over its pristine base, so it replays the log — while a
    client keeps asking that address and one on the other shard. Once
    the primary's row is healthy again, the client asks a while more,
    and then every listed address on every window day is asked."""

    def run(tmp_path: Path, world: World) -> Record:
        record, log_path = Record(), tmp_path / "updates.gz"
        writer = UpdateLogWriter(log_path, start_day=world.start_day)
        for batch in world.batches:
            writer.append(batch)
        final, calls, stop = world.batches[-1].seq, record.conn("client"), []
        with LocalCluster(
            world.base, shards=2, replicas=replicas, follow=log_path,
            start_day=world.start_day, heartbeat_interval=0.05,
        ) as cluster:
            record.partition = partition = cluster.partition
            record.facts["caught up"] = wait_for_seq(cluster, final)
            ip = world.listed[0]
            victim = partition.shard_of(ip)
            other = partition.range_of(1 - victim).lo
            killed, rows = cluster.backend(victim), []

            def ask() -> None:
                with ReputationClient(*cluster.address) as client:
                    conn = Conn(client, calls)
                    while not stop:
                        conn.ask("query_batch", [(ip, None), (other, None)])

            def chaos() -> None:
                while not calls:  # the client is served: the marks are set
                    time.sleep(0.01)
                cluster.kill_primary(victim)
                cluster.restart_primary(victim)
                with ReputationClient(*cluster.address) as client:
                    rows.extend(_rows_until(client, victim, 0, lambda row: (
                        row.get("cause", "").startswith("catching up")
                    )))
                    rows.extend(_rows_until(client, victim, 0, lambda row: (
                        row["healthy"]
                    )))
                time.sleep(0.2)
                stop.append(True)

            _threads(ask, chaos)
            with ReputationClient(*cluster.address) as client:
                after = Conn(client, record.conn("after"))
                answers = [
                    after.ask("query_batch", [(o, day) for o in world.listed])
                    for day in world.days
                ]
            record.facts.update({
                "after at the last seq": all(
                    isinstance(got, list) and {v.get("seq") for v in got} == {final}
                    for got in answers
                ),
                "killed": killed.exitcode,
                "read catching up": f"catching up to seq {final}" in [
                    row.get("cause") for row in rows
                ],
                "primary admitted again": rows[-1]["healthy"],
            })
            if not replicas:
                shard_range = partition.range_of(victim)
                record.dead[victim] = (shard_range.lo, shard_range.hi)
            kept = _backends(cluster, but=killed)
        record.exits.update((name, b.exitcode) for name, b in kept.items())
        return record

    return run


def _replica_lagging(tmp_path: Path, world: World) -> Record:
    """A router over a primary and a replica left behind it, in one
    process: the primary's seq is served, then the primary shut down.
    The replica below that mark answers nothing until it is brought up
    to it."""
    record, ips = Record(), [(ip, None) for ip in world.listed[:8]]
    record.partition, record.dead[0] = PartitionMap(1), (0, (1 << 32) - 1)
    primary, replica = (EpochIndex(world.base, day=world.start_day) for _ in range(2))
    for batch in world.batches[:6]:
        primary.apply(batch)
    for batch in world.batches[:2]:
        replica.apply(batch)
    mark = world.batches[5].seq
    with ReputationServer(QueryEngine(primary), streaming=True) as ahead, \
            ReputationServer(QueryEngine(replica), streaming=True) as behind:
        router = Router(
            PartitionMap(1), [[ahead.start(), behind.start()]],
            backend_timeout=1.0, heartbeat_interval=0.05,
        )
        router.start()
        try:
            with ReputationClient(*router.address) as client:
                conn = Conn(client, record.conn("client"))
                conn.ask("query_batch", ips)
                ahead.shutdown()
                conn.ask("query_batch", ips)
                conn.ask("query", ips[0][0])
                rows = _rows_until(client, 0, 1, lambda row: "cause" in row)
                record.facts["read catching up"] = (
                    rows[-1].get("cause") == f"catching up to seq {mark}"
                )
                for batch in world.batches[2:6]:
                    replica.apply(batch)
                rows = _rows_until(client, 0, 1, lambda row: row["healthy"])
                record.facts["replica admitted"] = rows[-1]["healthy"]
                served = conn.ask("query_batch", ips)
                record.facts["served at the mark"] = isinstance(served, list) and all(
                    verdict.get("seq") == mark for verdict in served
                )
        finally:
            router.shutdown()
    return record


def _rejoin_under_follow(tmp_path: Path, world: World) -> Record:
    """A router over two streaming shards, asked ``hello`` throughout:
    both at one seq, then shard 1 stops there while shard 0 runs on,
    and shard 1 comes back on its old port behind shard 0, to catch up.
    The fleet minimum never steps back: a shard that is down counts at
    its slot's mark."""
    record = Record()
    epochs = [EpochIndex(world.base, day=world.start_day) for _ in range(2)]
    for batch in world.batches[:3]:
        for shard in epochs:
            shard.apply(batch)
    servers = [ReputationServer(QueryEngine(e), streaming=True) for e in epochs]
    port = servers[1].start()[1]
    router = Router(
        PartitionMap(2), [[servers[0].start()], [("127.0.0.1", port)]],
        backend_timeout=1.0, heartbeat_interval=0.05,
    )
    router.start()
    try:
        with ReputationClient(*router.address) as client, \
                ReputationClient(*router.address) as watcher:
            conn = Conn(client, record.conn("client"))
            record.facts["both up"] = conn.ask("hello")["cluster"]["shards_up"] == 2
            servers[1].shutdown()
            _rows_until(watcher, 1, 0, lambda row: not row["healthy"])
            for batch in world.batches[3:10]:
                epochs[0].apply(batch)
            record.facts["shard 1 down"] = conn.ask("hello")["cluster"]["shards_up"] == 1
            for batch in world.batches[3:5]:
                epochs[1].apply(batch)
            servers[1] = ReputationServer(
                QueryEngine(epochs[1]), port=port, streaming=True
            )
            servers[1].start()
            rows = _rows_until(watcher, 1, 0, lambda row: row["healthy"])
            record.facts["rejoined behind"] = rows[-1]["healthy"] and (
                conn.ask("hello")["cluster"]["seq_max"] == world.batches[9].seq
            )
            for batch in world.batches[5:10]:
                epochs[1].apply(batch)
            record.facts["caught up"] = (
                conn.ask("hello")["seq"] == world.batches[9].seq
            )
    finally:
        router.shutdown()
        for server in servers:
            server.shutdown()
    return record


_PEER_TIMEOUT = 0.5  # the server's connection_timeout for slow peers


def _peer_trickles_frame(tmp_path: Path, world: World) -> Record:
    """Beside a polite client, one raw peer trickles a ``ping`` frame, a
    byte per quarter timeout, for up to three timeouts, while another
    asks a batch and reads the reply a KB per tenth of a timeout, over
    socket buffers too small to take the reply whole: the trickler is
    answered ``slow frame`` in band and hung up on, the reader gets its
    whole reply, whose last byte leaves timeouts after it was computed,
    and is then let go, within six timeouts, and the polite client is
    answered throughout."""
    record, timeout, ips = Record(), _PEER_TIMEOUT, world.listed
    batch = [(ip, None) for ip in ips]
    with ReputationServer(
        QueryEngine(world.index), connection_timeout=timeout
    ) as server:
        address = server.start()
        # Accepted sockets inherit the listener's send buffer: with the
        # reader's receive buffer, a few KB, so the reply leaves in
        # partial sends as the reader drains it.
        server._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)

        def trickle() -> None:
            calls, frame = record.conn("trickler"), encode_frame({"op": "ping"})
            with socket.create_connection(address, timeout=5.0) as sock, \
                    ReputationClient(*address) as client:
                steady, answered = Conn(client, record.conn("polite")), []
                started = time.monotonic()
                for at in range(len(frame)):
                    if answered or time.monotonic() > started + 3 * timeout:
                        break
                    sock.sendall(frame[at:at + 1])
                    steady.ask("query", ips[at % len(ips)])
                    answered = select.select([sock], [], [], timeout / 4)[0]
                reply = FrameReader(sock).read() if answered else {}
                if "error" in reply:
                    record.causes.append(reply["error"])
                    record.facts["trickler hung up on"] = sock.recv(1) == b""
                    reply = {"result": ServiceError(reply["error"])}
                calls.append((1, ("ping",), reply.get("result"), time.monotonic() - started))
                steady.ask("query_batch", batch)

        def read_slowly() -> None:
            calls, got = record.conn("slow reader"), bytearray()
            with socket.socket() as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.settimeout(5.0)
                sock.connect(address)
                started = time.monotonic()
                sock.sendall(encode_frame({"op": "batch", "queries": [
                    {"ip": ip} for ip, _ in batch
                ]}))
                while chunk := sock.recv(1024):
                    got += chunk
                    time.sleep(timeout / 10)
            record.facts["slow reader let go"] = (
                time.monotonic() - started < 6 * timeout
            )
            reply, _ = decode_frame(got) or ({}, 0)
            calls.append((1, ("query_batch", batch), reply.get("result"),
                          time.monotonic() - started))

        _threads(trickle, read_slowly)
    return record


def _peers_dropped_counted(tmp_path: Path, world: World) -> Record:
    """Three raw peers a server drops, each for its own cause: one sends
    two bytes of a length prefix and stops, one sends nothing, and one
    negotiates the binary codec and sends a frame whose magic byte is
    flipped. Each is told its cause in band, if it sent anything, before
    it is hung up on, and the ``loop`` block counts each close under its
    own cause."""
    record = Record()
    bad = bytearray(encode_msg_frame({"op": "ping"}, 1))
    bad[0] ^= 0xFF
    hello = encode_frame({"op": "hello", "accept_codecs": ["binary"]})
    sends = {"trickler": encode_frame({"op": "ping"})[:2], "silent": b"",
             "bad magic": hello + bad}
    with ReputationServer(
        QueryEngine(world.index), connection_timeout=_PEER_TIMEOUT
    ) as server:
        address = server.start()

        def peer(name: str) -> None:
            with socket.create_connection(address, timeout=5.0) as sock:
                frames, told, binary = FrameReader(sock), [], name == "bad magic"
                sock.sendall(sends[name])
                if binary:
                    frames.read()  # the hello's reply, still JSON-framed
                while (reply := frames.read(binary=binary)) is not None:
                    told.append(decode_msg_payload(reply[2]) if binary else reply)
                record.facts[f"{name} told"] = [r["error"] for r in told]

        _threads(*(lambda name=name: peer(name) for name in sends))
        with ReputationClient(*address) as client:
            Conn(client, record.conn("polite")).ask("query", world.listed[0])
            record.facts["closes"] = client.stats()["loop"].get("closes")
    return record


#: The soft descriptor limit the fd-limit fault's server sets itself:
#: a few dozen connections past its own descriptors.
_FD_LIMIT = 48


def _lower_fd_limit() -> None:
    """In the server child only, before it starts."""
    resource.setrlimit(resource.RLIMIT_NOFILE,
                       (_FD_LIMIT, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))


def _cpu_seconds(pid: int) -> float:
    """User + system CPU ``pid`` has used, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _fd_limit_reached(tmp_path: Path, world: World) -> Record:
    """``repro serve`` at a soft limit of 48 descriptors, flooded with 60
    connections it cannot all take: a client connected before the flood
    is answered and reads the failed accepts in ``stats``, the loop idles
    over the backlog instead of spinning on it, and once the flood is
    gone a new client is answered."""
    record, pairs = Record(), [(ip, None) for ip in world.listed]
    with _launch(tmp_path, world, record, "serve", preexec_fn=_lower_fd_limit) as (
        address, _, pid
    ), ReputationClient(*address) as before:
        conn = Conn(before, record.conn("before"))
        conn.ask("query_batch", pairs)
        with contextlib.ExitStack() as flood:
            for _ in range(60):
                flood.enter_context(socket.create_connection(address, timeout=5.0))
            time.sleep(0.2)
            used = _cpu_seconds(pid)
            time.sleep(1.0)
            record.facts["loop idle at the limit"] = _cpu_seconds(pid) - used < 0.25
            conn.ask("query_batch", pairs)
            loop = before.stats()["loop"]
            record.facts["accept errors declared"] = loop.get("accept_errors", 0) > 0
        with ReputationClient(*address, timeout=10.0) as after:
            Conn(after, record.conn("after")).ask("query_batch", pairs)
    return record


#: Loads a snapshot, truncates its file to a tenth in place (what
#: ``cp new.idx served.idx`` does first), then answers the addresses on
#: stdin, one ``[seconds, verdict]`` line each.
_TRUNCATE_UNDER_READER = """
import json, os, sys, time
from repro.service.engine import QueryEngine
from repro.service.index import ReputationIndex
path = sys.argv[1]
index = ReputationIndex.load(path)
os.truncate(path, os.path.getsize(path) // 10)
engine = QueryEngine(index)
for ip in json.load(sys.stdin):
    started = time.monotonic()
    verdict = engine.query(ip).to_wire()
    print(json.dumps([time.monotonic() - started, verdict]), flush=True)
"""


def _snapshot_truncated(tmp_path: Path, world: World) -> Record:
    """A mapping of the file itself loses the truncated pages, and the
    next query that reads one dies of ``SIGBUS``; the index reads its
    sealed copy, and answers every query."""
    record, path, rng = Record(), tmp_path / "served.idx", random.Random(7)
    world.index.save(path)
    size = path.stat().st_size
    keys = [rng.choice(world.listed) if n % 2 else rng.randrange(1 << 32)
            for n in range(2000)]
    result = subprocess.run(
        [sys.executable, "-c", _TRUNCATE_UNDER_READER, str(path)],
        input=json.dumps(keys), env=_ENV, capture_output=True, text=True,
        timeout=120,
    )
    lines, calls = result.stdout.splitlines(), record.conn("reader")
    for rid, ip in enumerate(keys, 1):
        answered = rid <= len(lines)
        seconds, verdict = json.loads(lines[rid - 1]) if answered else (0, None)
        calls.append((rid, ("query", ip), verdict, seconds))
    record.exits["reader"] = result.returncode
    record.facts["truncated to a tenth"] = path.stat().st_size == size // 10
    return record


_KILLED = {"killed": -signal.SIGKILL, "kill landed mid-stream": True,
           "victim slot emptied": True}
_LOG = {"caught up": True, "clean before": True, "names its place": True,
        "follower holds it": True, "serving seq": 1, "one follow-end at the seq": True}
_SPLIT = {"caught up": True, "dead primary silent": True,
          "hellos from the serving seq": True, "halves at the mark": True}
_RESTART = {"caught up": True, "killed": -signal.SIGKILL,
            "read catching up": True, "primary admitted again": True,
            "after at the last seq": True}


def _garbled(cause: str) -> Expect:
    return Expect(cause=f"garbled frame: {cause}", bound=_FAKE_TIMEOUT,
                  facts={"failed over": True, "primary down": True})


def _log(cause: str) -> Expect:
    return Expect(cause=cause, follow=True, facts=_LOG)


FAULTS: List[Fault] = [
    Fault("cluster-kill-primary-json", _cluster_kill_primary("json", 0),
          Expect(facts={"shards": 3, "codec": "json"})),
    Fault("cluster-kill-primary-binary", _cluster_kill_primary("binary", 1),
          Expect(facts={"shards": 3, "codec": "binary"})),
    Fault("auto-split-under-load", _auto_split_under_load,
          Expect(facts={"auto-split on": True, "queries asked": 20_000,
                        "split done": True, "shards > 3": True})),
    Fault("kill-under-load-r1", _kill_under_load(1), Expect(
        bound=_BACKEND_TIMEOUT, facts={**_KILLED, "replica healthy": True})),
    Fault("kill-under-load-r0", _kill_under_load(0),
          Expect(bound=_BACKEND_TIMEOUT, degraded=True, facts=_KILLED)),
    Fault("backend-garbled", _fake_primary(garbled(b'["not", "an", "object"]'), "binary"),
          _garbled("malformed reply")),
    Fault("backend-batch-as-message", _fake_primary(garbled(b'{"ok": true}'), "binary"),
          _garbled("message reply to a batch request")),
    Fault("backend-hello-malformed", _fake_primary(_short("hello", {"codec": "binary"}),
                                                   op="hello"),
          _garbled("hello reply without an int epoch and seq")),
    Fault("backend-stats-malformed", _fake_primary(
        _short("stats", {"index": {}, "epoch": {"epoch": 0}}), op="stats"),
          _garbled("stats reply without an int epoch and seq")),
    Fault("gather-callback-raises", _gather_raises, Expect(
        cause="internal error: boom", bound=_FAKE_TIMEOUT,
        facts={"backend healthy": True, "counted": 2, "codec": "json"})),
    Fault("log-swaps-under-load", _log_swaps_under_load, Expect(
        follow=True, facts={"caught up": True, "at the last seq": True})),
    Fault("log-append-fails", _log_append_fails, Expect(follow=True, facts={
        "caught up": True, "append failed": True, "seq kept": True,
        "at the last seq": True})),
    Fault("log-seq-gap", _follow_fault(_seq_gap), _log("sequence gap")),
    Fault("log-unreadable", _follow_fault(_unreadable), _log("IsADirectoryError")),
    Fault("log-list-id-too-long", _follow_fault(_list_id_too_long, _neighbours),
          _log("ValueError: bad listing intervals: list id of 300 bytes "
               "exceeds the 255-byte limit")),
    Fault("log-damage-mid-file", _follow_fault(_damage_mid_file),
          _log("UpdateLogError: corrupt record at byte ")),
    Fault("split-dead-primary", _split_fault(1), Expect(
        follow=True, facts={**_SPLIT, "replica at seq": True})),
    Fault("split-no-reach", _split_fault(0), Expect(follow=True, facts=_SPLIT)),
    Fault("restart-under-follow-r1", _restart_under_follow(1),
          Expect(follow=True, facts=_RESTART)),
    Fault("restart-under-follow-r0", _restart_under_follow(0),
          Expect(degraded=True, follow=True, facts=_RESTART)),
    Fault("replica-lagging", _replica_lagging, Expect(
        degraded=True, follow=True, facts={
            "read catching up": True, "replica admitted": True,
            "served at the mark": True})),
    Fault("rejoin-under-follow", _rejoin_under_follow, Expect(
        follow=True, facts={"both up": True, "shard 1 down": True,
                            "rejoined behind": True, "caught up": True})),
    Fault("snapshot-truncated", _snapshot_truncated,
          Expect(facts={"truncated to a tenth": True})),
    Fault("peer-trickles-frame", _peer_trickles_frame, Expect(cause="slow frame", facts={
        "trickler hung up on": True, "slow reader let go": True})),
    Fault("fd-limit-reached", _fd_limit_reached, Expect(facts={
        "loop idle at the limit": True, "accept errors declared": True})),
    Fault("peers-dropped-counted", _peers_dropped_counted, Expect(facts={
        "trickler told": ["slow frame"], "silent told": [],
        "bad magic told": ["bad frame magic 0x4e"],
        "closes": {"slow frame": 1, "idle timeout": 1, "garbled frame": 1}})),
]
