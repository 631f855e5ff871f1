"""The cluster's front door: route, scatter-gather, fail over.

A :class:`Router` binds one TCP socket speaking the *existing* service
wire protocol — a client cannot tell a router from a single-process
server, including the binary-codec ``hello`` negotiation — and fans
requests out over the shard fleet:

* point queries route by the partition map to the owning shard's
  active backend (primary, else the first healthy replica);
* batch queries are split by shard, scattered, and the per-shard
  replies merged back into request order;
* ``stats``/``hello`` scatter to every shard and merge, reporting the
  fleet's ``min``/``max`` epoch and seq so cross-shard staleness is
  visible to the client;
* a heartbeat thread pings every backend; a dead backend is marked
  unhealthy (and retried each beat, so a restarted shard rejoins
  without operator action).

Everything rides one event loop: the downstream listener is a
pipelined :class:`~repro.service.aio.WireServer`, and each shard
backend gets one *persistent pipelined* upstream connection registered
on the same reactor — no per-batch threads, no per-request connects.
When the fleet speaks the binary codec, a routed batch is pure
plumbing: packed request records scatter out, packed reply records
merge back by position, and no verdict dict is ever materialised in
the router.

Failure degrades, never cascades: when every backend of a shard is
down, a point query gets an explicit ``SHARD_UNAVAILABLE`` error
reply and a batch reply carries per-IP ``{"error":
"SHARD_UNAVAILABLE"}`` entries in the dead shard's positions — the
other shards' verdicts still flow. A backend connection that dies
with requests in flight fails those requests over to the next
candidate backend; an idle EOF just closes the pooled connection (the
backend may simply have timed us out), leaving its health standing so
the next request probes it first.
"""

from __future__ import annotations

import errno
import os
import selectors
import socket
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..net.family import V4, V6, AddressFamily, family_of_ip
from ..service.aio import Conn, Slot, WireServer
from ..service.server import (
    DEFAULT_CONNECTION_TIMEOUT,
    MAX_BATCH,
    PROTOCOL_VERSION,
    RequestError,
    negotiate_hello,
    parse_batch,
    parse_day,
    parse_ip,
)
from ..service.wire import (
    CODECS,
    FT_MSG,
    MAX_FRAME_BYTES,
    BinaryCodec,
    WireError,
    decode_binary_frame,
    decode_frame,
    decode_msg_payload,
    encode_frame,
    encode_msg_frame,
    recv_frame,
    send_frame,
)
from .partition import PartitionMap, ShardRange

__all__ = ["Backend", "Router", "ShardSlot", "SHARD_UNAVAILABLE"]

#: Error tag clients see when a shard (and all its replicas) is down.
SHARD_UNAVAILABLE = "SHARD_UNAVAILABLE"

#: Seconds between heartbeat sweeps over the backend fleet.
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: Connect/IO timeout the router uses towards shard backends.
DEFAULT_BACKEND_TIMEOUT = 5.0

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE

#: Bytes asked from the kernel per upstream readable event.
_RECV_CHUNK = 1 << 18


class ShardUnavailable(RuntimeError):
    """Every backend of one shard failed at the transport level."""

    def __init__(self, shard_id: int, cause: str) -> None:
        super().__init__(
            f"{SHARD_UNAVAILABLE}: shard {shard_id} has no live "
            f"backend ({cause})"
        )
        self.shard_id = shard_id


class _Sub:
    """One upstream request in flight (or queued for failover).

    ``finish(status, value)`` fires exactly once with one of:
    ``("records", [raw record bytes])`` — binary batch reply;
    ``("verdicts", [verdict dicts])`` — JSON batch reply;
    ``("result", payload)`` — any ``ok`` message reply;
    ``("reject", error string)`` — the backend answered ``ok: false``;
    ``("unavailable", cause)`` — every candidate backend failed.
    """

    __slots__ = ("kind", "request", "pairs", "rid", "candidates",
                 "failed", "shard_slot", "deadline", "finish", "codec")

    def __init__(
        self,
        kind: str,
        shard_slot: "ShardSlot",
        finish: Callable[[str, Any], None],
        *,
        request: Optional[Dict[str, Any]] = None,
        pairs: Optional[List[Tuple[int, Optional[int]]]] = None,
        codec: Optional[BinaryCodec] = None,
    ) -> None:
        self.kind = kind  # "batch" (packed pairs) or "msg" (request)
        self.request = request
        self.pairs = pairs
        self.codec = codec  # batch subs: the pairs' family codec
        self.rid = 0
        self.candidates: Deque["Backend"] = deque(
            shard_slot.ordered_backends()
        )
        self.failed = 0
        self.shard_slot = shard_slot
        self.deadline = 0.0
        self.finish = finish


class Backend:
    """One shard server address: its health flag plus the router's
    persistent pipelined connection state (loop-thread owned).

    The connection advances through ``state``: ``"idle"`` (no socket)
    → ``"connecting"`` (non-blocking connect in flight) →
    ``"hello"`` (codec negotiation sent, awaiting the reply) →
    ``"ready"`` (subs flow). Until ``"ready"`` the codec is unknown,
    so submitted subs queue in ``waiting`` and are encoded when the
    handshake settles; every transition happens on the loop thread,
    which never blocks on upstream I/O."""

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        timeout: float = DEFAULT_BACKEND_TIMEOUT,
    ) -> None:
        self.address = (str(address[0]), int(address[1]))
        self.timeout = timeout
        self.healthy = True  # optimistic until a connect/call fails
        # Loop-owned pipelined connection state.
        self.sock: Optional[socket.socket] = None
        self.state = "idle"
        self.codec = "json"
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.pending: Deque[_Sub] = deque()
        self.waiting: Deque[_Sub] = deque()
        self.rid = 0
        self.registered = False
        self.events = 0
        self.callback: Any = None

    def probe(self) -> bool:
        """One blocking liveness ping over a throwaway connection.

        The heartbeat thread and :meth:`Router.wait_healthy` run off
        the loop thread, so they never touch the loop's pipelined
        connection — a fresh socket per probe keeps the threads apart.
        """
        try:
            with socket.create_connection(
                self.address, timeout=self.timeout
            ) as sock:
                sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
                send_frame(sock, {"op": "ping"})
                reply = recv_frame(sock)
        except (WireError, OSError):
            self.healthy = False
            return False
        ok = isinstance(reply, dict) and bool(reply.get("ok"))
        self.healthy = ok
        return ok


class ShardSlot:
    """One shard id's backend set: a primary plus optional replicas."""

    def __init__(
        self,
        shard_id: int,
        addresses: Sequence[Tuple[str, int]],
        *,
        timeout: float = DEFAULT_BACKEND_TIMEOUT,
        shard_range: Optional[ShardRange] = None,
    ) -> None:
        if not addresses:
            raise ValueError(f"shard {shard_id} has no backends")
        self.shard_id = shard_id
        self.shard_range = shard_range
        self.backends = [
            Backend(address, timeout=timeout) for address in addresses
        ]
        #: Requests that succeeded only after at least one backend
        #: failed; written on the loop thread only.
        self.failovers = 0
        #: Queries routed to this shard (points + batch positions);
        #: written on the loop thread only — the load signal the
        #: hot-range detector reads.
        self.hits = 0

    def ordered_backends(self) -> List[Backend]:
        """Healthy backends first (primary before replicas), then
        unhealthy ones as a last resort so a just-restarted shard
        answers before the next heartbeat."""
        return [b for b in self.backends if b.healthy] + [
            b for b in self.backends if not b.healthy
        ]

    def healthy_count(self) -> int:
        return sum(backend.healthy for backend in self.backends)


class Router:
    """Scatter-gather front over a partitioned shard fleet.

    ``backends`` maps shard id (list position) to that shard's backend
    addresses, primary first. The partition map must be the one the
    shard indexes were restricted with — the router cannot check that,
    only the fidelity tests can. ``backend_codec="binary"`` (default)
    makes the router offer the binary codec on its upstream
    connections; a shard that doesn't speak it just stays on JSON, so
    mixed fleets work during a rollout.

    The partition's family decides which addresses the router answers
    for; a v4 router may additionally host a v6 plane
    (``v6_partition`` + ``v6_backends``) so one front door serves both
    families — queries route to a plane by their address family
    (string literals by syntax, packed frames by frame type), and a
    query for a family with no plane gets a clean error reply.
    """

    def __init__(
        self,
        partition: PartitionMap,
        backends: Sequence[Sequence[Tuple[str, int]]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        connection_timeout: float = DEFAULT_CONNECTION_TIMEOUT,
        backend_timeout: float = DEFAULT_BACKEND_TIMEOUT,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        backend_codec: str = "binary",
        v6_partition: Optional[PartitionMap] = None,
        v6_backends: Optional[
            Sequence[Sequence[Tuple[str, int]]]
        ] = None,
    ) -> None:
        if len(backends) != len(partition):
            raise ValueError(
                f"{len(partition)} shards need {len(partition)} backend "
                f"lists, got {len(backends)}"
            )
        if backend_codec not in ("json", "binary"):
            raise ValueError(f"unknown backend codec {backend_codec!r}")
        self._family = partition.family
        self.connection_timeout = connection_timeout
        self._backend_timeout = backend_timeout
        self._backend_codec = backend_codec
        #: Routing planes, primary first: family → (partition, slots).
        #: Replaced per family in one assignment on the loop thread.
        self._planes: Dict[
            AddressFamily, Tuple[PartitionMap, List[ShardSlot]]
        ] = {
            self._family: (partition, self._make_slots(partition, backends))
        }
        # Optional second routing plane for IPv6 next to a v4 primary.
        if v6_partition is not None:
            if self._family is not V4 or v6_partition.family is not V6:
                raise ValueError(
                    "v6_partition needs a v4 primary partition and an "
                    "ipv6 secondary one"
                )
            if v6_backends is None or len(v6_backends) != len(v6_partition):
                raise ValueError(
                    f"{len(v6_partition)} v6 shards need "
                    f"{len(v6_partition)} backend lists, got "
                    f"{0 if v6_backends is None else len(v6_backends)}"
                )
            self._planes[V6] = (
                v6_partition, self._make_slots(v6_partition, v6_backends)
            )
        elif v6_backends:
            raise ValueError("v6_backends given without v6_partition")
        #: Bumped on every apply_partition, so a load observer can
        #: tell "counters reset because the layout changed" from
        #: "counters wrapped"; written on the loop thread only.
        self._partition_epoch = 0
        #: Backends dropped by a partition swap that may still carry
        #: in-flight requests; loop-thread owned, drained and closed
        #: by :meth:`drain_retired`.
        self._retired: List[Backend] = []
        self._heartbeat_interval = heartbeat_interval
        self._stop = threading.Event()
        self._heartbeat: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        # Mutated on the loop thread only (dict-subscript updates).
        self._counters = {
            "point": 0,
            "batch": 0,
            "batch_queries": 0,
            "degraded": 0,
        }
        self._server = WireServer(
            self._handle,
            host,
            port,
            connection_timeout=connection_timeout,
            max_frame=MAX_FRAME_BYTES,
        )
        self._reactor = self._server.reactor

    # -- routing planes ------------------------------------------------

    def _make_slots(
        self,
        partition: PartitionMap,
        backends: Sequence[Sequence[Tuple[str, int]]],
    ) -> List[ShardSlot]:
        return [
            ShardSlot(
                shard_id,
                list(addresses),
                timeout=self._backend_timeout,
                shard_range=partition.range_of(shard_id),
            )
            for shard_id, addresses in enumerate(backends)
        ]

    def _all_slots(self) -> List[ShardSlot]:
        """Every shard slot across all planes (primary first)."""
        return [
            shard_slot
            for _partition, slots in self._planes.values()
            for shard_slot in slots
        ]

    def _plane(
        self, family: AddressFamily
    ) -> Optional[Tuple[PartitionMap, List[ShardSlot]]]:
        """The ``(partition, slots)`` plane answering ``family``."""
        return self._planes.get(family)

    def _served_families(self) -> str:
        return "/".join(family.name for family in self._planes)

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.address

    def _start_background(self) -> None:
        with self._lock:
            if self._heartbeat is not None:
                raise RuntimeError("router already started")
            heartbeat = threading.Thread(
                target=self._heartbeat_loop,
                name="repro-cluster-heartbeat",
                daemon=True,
            )
            self._heartbeat = heartbeat
        heartbeat.start()
        self._reactor.call_soon(self._arm_backend_sweep)

    def start(self) -> Tuple[str, int]:
        """Serve and heartbeat from daemon threads."""
        self._start_background()
        return self._server.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's foreground mode)."""
        self._start_background()
        self._server.serve_forever()

    def shutdown(self) -> None:
        """Stop serving and close every backend connection."""
        self._stop.set()
        with self._lock:
            heartbeat, self._heartbeat = self._heartbeat, None
        self._server.shutdown()
        if heartbeat is not None:
            heartbeat.join(timeout=5.0)
        # The loop has exited; the pooled upstream sockets (including
        # any retired-but-undrained ones) are ours to close directly.
        for backend in [
            backend
            for shard_slot in self._all_slots()
            for backend in shard_slot.backends
        ] + self._retired:
            sock, backend.sock = backend.sock, None
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._retired = []

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *_: Any) -> None:
        self.shutdown()

    # -- health --------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while not self._stop.is_set():
            for shard_slot in self._all_slots():
                for backend in shard_slot.backends:
                    if self._stop.is_set():
                        return
                    backend.probe()
            self._stop.wait(self._heartbeat_interval)

    def health(self) -> List[List[bool]]:
        """Per-shard, per-backend health flags (tests/observability);
        v6-plane shards follow the primary plane's rows."""
        return [
            [backend.healthy for backend in shard_slot.backends]
            for shard_slot in self._all_slots()
        ]

    def wait_healthy(self, timeout: float = 10.0) -> bool:
        """Block until every backend probes healthy (bootstrap/tests)."""
        sleeper = threading.Event()
        waited = 0.0
        step = 0.05
        while waited <= timeout:
            if all(
                backend.probe()
                for shard_slot in self._all_slots()
                for backend in shard_slot.backends
            ):
                return True
            sleeper.wait(step)
            waited += step
        return False

    # -- elasticity (partition swap + load accounting) -----------------

    def load_snapshot(self) -> Dict[str, Any]:
        """Per-shard routed-query counters, callable from any thread.

        The slot list reference is read once, so the rows are
        internally consistent; ``partition_epoch`` bumps on every
        layout swap, telling an observer to reset its delta baseline
        rather than misread the fresh counters as a traffic collapse.
        """
        _partition, slots = self._planes[self._family]
        return {
            "partition_epoch": self._partition_epoch,
            "shards": [
                {
                    "shard": slot.shard_id,
                    "range": (
                        slot.shard_range.to_wire()
                        if slot.shard_range is not None
                        else None
                    ),
                    "hits": slot.hits,
                }
                for slot in slots
            ],
        }

    def apply_partition(
        self,
        partition: PartitionMap,
        backends: Sequence[Sequence[Tuple[str, int]]],
        *,
        timeout: float = 10.0,
    ) -> None:
        """Cut routing over to a new layout, atomically, online.

        Thread-safe: the actual swap runs as one callback on the loop
        thread, so no request ever observes a partition/slot mismatch.
        Backends whose address survives into the new layout keep their
        live pipelined connection (and health); backends that drop out
        are *retired*, not closed — requests already in flight on them
        complete normally (during a split the old shard's index covers
        both halves, so its verdicts stay correct), and
        :meth:`drain_retired` reaps them once quiet.
        """
        if len(backends) != len(partition):
            raise ValueError(
                f"{len(partition)} shards need {len(partition)} backend "
                f"lists, got {len(backends)}"
            )
        if partition.family is not self._family:
            raise ValueError(
                f"cannot swap a {partition.family.name} partition into "
                f"a {self._family.name} routing plane"
            )

        def swap() -> None:
            old_by_address: Dict[Tuple[str, int], Backend] = {}
            _old_partition, old_slots = self._planes[self._family]
            for slot in old_slots:
                for backend in slot.backends:
                    old_by_address[backend.address] = backend
            new_slots = self._make_slots(partition, backends)
            reused = set()
            for slot in new_slots:
                for position, backend in enumerate(slot.backends):
                    kept = old_by_address.get(backend.address)
                    if kept is not None:
                        slot.backends[position] = kept
                        reused.add(id(kept))
            self._retired.extend(
                backend
                for backend in old_by_address.values()
                if id(backend) not in reused
            )
            self._planes[self._family] = (partition, new_slots)
            # swap() runs via run_sync as one callback on the loop
            # thread — the only writer of this counter.
            self._partition_epoch += 1

        self._reactor.run_sync(swap, timeout)

    def drain_retired(self, timeout: float = 10.0) -> bool:
        """Wait for retired backends to fall idle, then close them.

        Returns ``True`` when every retired connection drained inside
        the timeout; on ``False`` the stragglers are torn down anyway
        (their in-flight requests fail over through the normal path).
        """
        deadline = time.monotonic() + timeout
        drained = True
        while any(b.pending or b.waiting for b in self._retired):
            if time.monotonic() >= deadline:
                drained = False
                break
            time.sleep(0.01)

        def reap() -> None:
            retired, self._retired = self._retired, []
            for backend in retired:
                if backend.pending or backend.waiting:
                    self._backend_lost(
                        backend, "retired by partition swap"
                    )
                else:
                    self._close_backend(backend)

        self._reactor.run_sync(reap, timeout)
        return drained

    # -- downstream request handling (loop thread) ---------------------

    def _handle(self, conn: Conn, slot: Slot, kind: str, data: Any) -> None:
        if kind == "batch":
            codec = slot.batch_codec
            assert codec is not None
            plane = self._plane(codec.family)
            if plane is None:
                slot.fail(
                    f"{codec.family.name} batch frame cannot be answered "
                    f"by this {self._served_families()}-only cluster"
                )
                return
            if len(data) > MAX_BATCH:
                slot.fail(
                    f"batch of {len(data)} exceeds the "
                    f"{MAX_BATCH}-query limit"
                )
                return
            self._route_batch(slot, data, codec, *plane)
            return
        request = data
        if not isinstance(request, dict):
            slot.fail(
                f"request must be a JSON object, got "
                f"{type(request).__name__}"
            )
            return
        op = request.get("op")
        if op == "ping":
            slot.complete({"ok": True, "result": "pong"})
        elif op == "query":
            self._route_query(slot, request)
        elif op == "batch":
            family = self._json_family(request.get("queries"))
            plane = self._plane(family)
            if plane is None:
                slot.fail(
                    f"{family.name} queries cannot be answered by "
                    f"this {self._served_families()}-only cluster"
                )
                return
            try:
                pairs = parse_batch(request.get("queries"), family)
            except RequestError as exc:
                slot.fail(str(exc))
                return
            # A JSON-shaped batch on a binary connection is still
            # answered packed, in its family's reply frame type.
            codec = slot.batch_codec = CODECS[family]
            self._route_batch(slot, pairs, codec, *plane)
        elif op == "stats":
            self._route_stats(slot)
        elif op == "hello":
            self._route_hello(conn, slot, request)
        else:
            slot.fail(f"unknown op: {op!r}")

    def _json_family(self, queries: Any) -> AddressFamily:
        """The family a JSON request targets, judged by its first
        string literal — integer addresses are ambiguous and stay on
        the primary plane (mixed-family batches then fail parsing,
        which is the answer a mixed batch deserves)."""
        if isinstance(queries, list):
            for item in queries:
                ip = item.get("ip") if isinstance(item, dict) else None
                if isinstance(ip, str):
                    return family_of_ip(ip)
                break
        return self._family

    def _route_query(self, slot: Slot, request: Dict[str, Any]) -> None:
        raw_ip = request.get("ip")
        family = (
            family_of_ip(raw_ip)
            if isinstance(raw_ip, str)
            else self._family
        )
        plane = self._plane(family)
        if plane is None:
            slot.fail(
                f"{family.name} queries cannot be answered by this "
                f"{self._served_families()}-only cluster"
            )
            return
        partition, slots = plane
        try:
            ip = parse_ip(raw_ip, family)
            day = parse_day(request.get("day"))
        except RequestError as exc:
            slot.fail(str(exc))
            return
        self._counters["point"] += 1
        shard_slot = slots[partition.shard_of(ip)]
        shard_slot.hits += 1
        forward: Dict[str, Any] = {"op": "query", "ip": ip}
        if day is not None:
            forward["day"] = day

        def finish(status: str, value: Any) -> None:
            if status == "result":
                slot.complete({"ok": True, "result": value})
            elif status == "reject":
                # The shard rejected a request the router already
                # validated — our bug, surfaced like any other.
                slot.fail(f"internal error: {value}")
            else:
                self._counters["degraded"] += 1
                slot.fail(
                    str(ShardUnavailable(shard_slot.shard_id, str(value)))
                )

        self._submit(
            _Sub("msg", shard_slot, finish, request=forward)
        )

    def _route_batch(
        self,
        slot: Slot,
        pairs: List[Tuple[int, Optional[int]]],
        codec: BinaryCodec,
        partition: PartitionMap,
        slots: List["ShardSlot"],
    ) -> None:
        self._counters["batch"] += 1
        self._counters["batch_queries"] += len(pairs)
        total = len(pairs)
        by_shard: Dict[int, List[int]] = {}
        for position, (ip, _day) in enumerate(pairs):
            by_shard.setdefault(
                partition.shard_of(ip), []
            ).append(position)

        # Per-position reply: raw record bytes, a verdict dict, or the
        # shard id of a degraded position (int).
        entries: List[Any] = [None] * total
        if not by_shard:
            # Empty batch: zero shard fan-outs means shard_done would
            # never fire, so answer directly (an empty result is what
            # a single-process server returns).
            self._finish_batch(slot, pairs, entries, codec, partition)
            return
        remaining = [len(by_shard)]

        def shard_done(
            shard_id: int, positions: List[int], status: str, value: Any
        ) -> None:
            if status == "records" and len(value) == len(positions):
                for position, record in zip(positions, value):
                    entries[position] = record
            elif (
                status == "verdicts"
                and isinstance(value, list)
                and len(value) == len(positions)
            ):
                for position, verdict in zip(positions, value):
                    entries[position] = verdict
            else:
                # Unavailable shard, error reply, or a malformed batch
                # reply: degrade this shard's positions, keep the rest.
                self._counters["degraded"] += len(positions)
                for position in positions:
                    entries[position] = shard_id
            remaining[0] -= 1
            if remaining[0] == 0:
                self._finish_batch(slot, pairs, entries, codec, partition)

        for shard_id, positions in by_shard.items():
            slots[shard_id].hits += len(positions)
            shard_pairs = [pairs[position] for position in positions]
            self._submit(
                _Sub(
                    "batch",
                    slots[shard_id],
                    lambda status, value, s=shard_id, p=positions: (
                        shard_done(s, p, status, value)
                    ),
                    pairs=shard_pairs,
                    codec=codec,
                )
            )

    def _finish_batch(
        self,
        slot: Slot,
        pairs: List[Tuple[int, Optional[int]]],
        entries: List[Any],
        codec: BinaryCodec,
        partition: PartitionMap,
    ) -> None:
        if slot.codec == "binary":
            pack_miss = codec.pack_verdict_wire
            degrade = codec.pack_degraded
            try:
                records = []
                for (ip, day), entry in zip(pairs, entries):
                    if isinstance(entry, bytes):
                        records.append(entry)
                    elif isinstance(entry, int):
                        records.append(
                            degrade(ip, day, entry, SHARD_UNAVAILABLE)
                        )
                    else:
                        records.append(pack_miss(entry))
                slot.complete_records(records)
                return
            except WireError:
                pass  # a verdict escaped the packed layout: JSON reply
        decode = codec.decode_record
        result: List[Dict[str, Any]] = []
        for (ip, day), entry in zip(pairs, entries):
            if isinstance(entry, bytes):
                try:
                    entry = decode(entry)
                except WireError:
                    entry = None
            if isinstance(entry, dict):
                result.append(entry)
            else:
                shard_id = (
                    entry
                    if isinstance(entry, int)
                    else partition.shard_of(ip)
                )
                result.append(
                    {
                        "ip": codec.family.format(ip),
                        "day": day,
                        "error": SHARD_UNAVAILABLE,
                        "shard": shard_id,
                    }
                )
        slot.complete({"ok": True, "result": result})

    # -- fleet views ---------------------------------------------------

    def _gather(
        self,
        op: str,
        done: Callable[[List[Optional[Dict[str, Any]]]], None],
    ) -> None:
        """One ``op`` per shard on every plane (with failover);
        ``done`` receives the per-shard results aligned to
        :meth:`_all_slots` order, ``None`` where a shard is down."""
        slots = self._all_slots()
        replies: List[Optional[Dict[str, Any]]] = [None] * len(slots)
        remaining = [len(slots)]

        def make_finish(position: int) -> Callable[[str, Any], None]:
            def finish(status: str, value: Any) -> None:
                if status == "result" and isinstance(value, dict):
                    replies[position] = value
                remaining[0] -= 1
                if remaining[0] == 0:
                    done(replies)

            return finish

        for position, shard_slot in enumerate(slots):
            self._submit(
                _Sub(
                    "msg",
                    shard_slot,
                    make_finish(position),
                    request={"op": op},
                )
            )

    def _fleet_summary(
        self, states: List[Optional[Dict[str, Any]]]
    ) -> Dict[str, Any]:
        """The ``cluster`` block from one ``{"epoch", "seq", ...}``
        dict per shard (``None`` = down): a shard's ``hello`` result,
        or the ``epoch`` block of its ``stats`` payload."""
        slots = self._all_slots()
        epochs = [h["epoch"] for h in states if h is not None]
        seqs = [h["seq"] for h in states if h is not None]
        return {
            "shards": len(slots),
            "backends": sum(len(s.backends) for s in slots),
            "healthy_backends": sum(
                s.healthy_count() for s in slots
            ),
            "shards_up": sum(1 for h in states if h is not None),
            "epoch_min": min(epochs) if epochs else 0,
            "epoch_max": max(epochs) if epochs else 0,
            "seq_min": min(seqs) if seqs else 0,
            "seq_max": max(seqs) if seqs else 0,
        }

    def _route_hello(
        self, conn: Conn, slot: Slot, request: Dict[str, Any]
    ) -> None:
        """The merged handshake. Top-level ``epoch``/``seq`` report the
        fleet *minimum* — the only freshness a cross-shard consumer may
        assume — while the ``cluster`` block exposes the spread. Codec
        negotiation works exactly as on a single server."""

        def done(hellos: List[Optional[Dict[str, Any]]]) -> None:
            summary = self._fleet_summary(hellos)
            streaming = any(
                h.get("streaming", False)
                for h in hellos
                if h is not None
            )
            result = {
                "service": "repro-reputation",
                "protocol": PROTOCOL_VERSION,
                "streaming": streaming,
                "epoch": summary["epoch_min"],
                "seq": summary["seq_min"],
                "cluster": summary,
            }
            new_codec = negotiate_hello(request, result)
            slot.complete({"ok": True, "result": result})
            if new_codec is not None:
                conn.codec = new_codec

        self._gather("hello", done)

    def _route_stats(self, slot: Slot) -> None:
        """Merged fleet stats: per-shard payloads plus cluster rollup."""

        def done(shard_stats: List[Optional[Dict[str, Any]]]) -> None:
            slot.complete(
                {"ok": True, "result": self._build_stats(shard_stats)}
            )

        self._gather("stats", done)

    def _build_stats(
        self, shard_stats: List[Optional[Dict[str, Any]]]
    ) -> Dict[str, Any]:
        # Each shard's stats payload carries its (epoch, seq) in the
        # "epoch" block — no second gather for the fleet summary.
        summary = self._fleet_summary(
            [
                payload.get("epoch") if payload else None
                for payload in shard_stats
            ]
        )
        index_totals = {"ips": 0, "intervals": 0, "nated_ips": 0,
                        "dynamic_prefixes": 0, "ases": 0}
        lists = 0
        for payload in shard_stats:
            if not payload:
                continue
            sizes = payload.get("index", {})
            for key in index_totals:
                index_totals[key] += sizes.get(key, 0)
            lists = max(lists, sizes.get("lists", 0))
        index_totals["lists"] = lists
        router_counters = dict(self._counters)
        router_counters["failovers"] = sum(
            shard_slot.failovers for shard_slot in self._all_slots()
        )
        router_counters["partition_epoch"] = self._partition_epoch
        rows: List[Dict[str, Any]] = []
        payload = {
            "cluster": summary,
            "router": router_counters,
            "partition": self._planes[self._family][0].to_wire(),
            "index": index_totals,
            "shards": rows,
        }
        for family, (partition, slots) in self._planes.items():
            secondary = family is not self._family
            if secondary:
                # Wire shape: a secondary plane is always the ipv6 one.
                payload["partition6"] = partition.to_wire()
            for shard_slot in slots:
                position = len(rows)
                row = {
                    "shard": shard_slot.shard_id,
                    # The slot's own range, not partition.range_of: a
                    # partition swap while the gather was in flight
                    # must not mislabel (or over-index) rows.
                    "range": (
                        shard_slot.shard_range.to_wire()
                        if shard_slot.shard_range is not None
                        else partition.range_of(
                            shard_slot.shard_id
                        ).to_wire()
                    ),
                    "hits": shard_slot.hits,
                    "backends": [
                        {
                            "address": list(backend.address),
                            "healthy": backend.healthy,
                        }
                        for backend in shard_slot.backends
                    ],
                    "stats": (
                        shard_stats[position]
                        if position < len(shard_stats)
                        else None
                    ),
                }
                if secondary:
                    row["family"] = family.name
                rows.append(row)
        return payload

    # -- upstream connections (loop thread) ----------------------------

    def _submit(self, sub: _Sub, cause: str = "no backends") -> None:
        """Send ``sub`` to its first live candidate backend."""
        while sub.candidates:
            backend = sub.candidates.popleft()
            if self._send_sub(backend, sub):
                return
            sub.failed += 1
            cause = f"cannot reach {backend.address[0]}:{backend.address[1]}"
        sub.finish("unavailable", cause)

    def _start_connect(self, backend: Backend) -> bool:
        """Begin a non-blocking connect; the loop thread never blocks
        on an upstream, so an unreachable (SYN-dropping) shard cannot
        stall traffic to the rest of the fleet."""
        started = False
        err = -1
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            err = sock.connect_ex(backend.address)
            started = err in (0, errno.EINPROGRESS, errno.EWOULDBLOCK)
        except OSError:
            started = False
        finally:
            if not started:
                sock.close()
        if not started:
            backend.healthy = False
            return False
        backend.sock = sock
        backend.state = "connecting"
        backend.codec = "json"
        backend.inbuf.clear()
        backend.outbuf.clear()
        backend.pending.clear()
        backend.waiting.clear()
        backend.registered = False
        backend.events = 0
        backend.callback = (
            lambda mask, b=backend: self._on_backend_event(b, mask)
        )
        if err == 0:
            self._connect_done(backend)
        else:
            self._watch_backend(backend, _WRITE)
        return backend.sock is not None

    def _connect_done(self, backend: Backend) -> None:
        """The non-blocking connect resolved: fail, or start the codec
        handshake (pipelined — the hello is just the first frame)."""
        assert backend.sock is not None
        err = backend.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if err:
            self._backend_lost(
                backend, f"connect failed: {os.strerror(err)}"
            )
            return
        backend.healthy = True
        if self._backend_codec == "binary":
            backend.state = "hello"
            backend.outbuf += encode_frame(
                {"op": "hello", "accept_codecs": ["binary"]},
                max_size=MAX_FRAME_BYTES,
            )
        else:
            self._backend_ready(backend)
        self._flush_backend(backend)

    def _backend_ready(self, backend: Backend) -> None:
        """The codec settled: encode and send every waiting sub."""
        backend.state = "ready"
        while backend.waiting and backend.sock is not None:
            sub = backend.waiting.popleft()
            if not self._enqueue_sub(backend, sub):
                sub.failed += 1
                self._submit(sub, "unserialisable request")

    def _send_sub(self, backend: Backend, sub: _Sub) -> bool:
        if backend.sock is None and not self._start_connect(backend):
            return False
        sub.deadline = time.monotonic() + self._backend_timeout
        if backend.state != "ready":
            # Connect/handshake still in flight; the sub goes out the
            # moment the codec settles, and its deadline (swept on the
            # loop) bounds a backend that never becomes ready.
            backend.waiting.append(sub)
            return True
        return self._enqueue_sub(backend, sub)

    def _enqueue_sub(self, backend: Backend, sub: _Sub) -> bool:
        backend.rid = (backend.rid + 1) & 0xFFFFFFFF
        sub.rid = backend.rid
        try:
            backend.outbuf += self._encode_sub(sub, backend.codec)
        except WireError:
            # Unserialisable forward — nothing another backend could
            # do better; report the shard as the problem.
            return False
        backend.pending.append(sub)
        # If this write kills the connection, _backend_lost fails the
        # pending subs over (re-entering _submit with the remaining
        # candidates) — either way the sub is handled, so: done here.
        self._flush_backend(backend)
        return True

    def _encode_sub(self, sub: _Sub, codec: str) -> bytes:
        if sub.kind == "batch":
            assert sub.pairs is not None
            assert sub.codec is not None
            if codec == "binary":
                try:
                    return sub.codec.encode_batch_request(
                        sub.pairs, sub.rid, max_size=MAX_FRAME_BYTES
                    )
                except WireError:
                    pass  # day outside the packed layout: JSON shape
            request: Dict[str, Any] = {
                "op": "batch",
                "queries": [
                    {"ip": ip, "day": day} if day is not None else {"ip": ip}
                    for ip, day in sub.pairs
                ],
            }
        else:
            assert sub.request is not None
            request = sub.request
        if codec == "binary":
            return encode_msg_frame(
                request, sub.rid, max_size=MAX_FRAME_BYTES
            )
        return encode_frame(request, max_size=MAX_FRAME_BYTES)

    def _watch_backend(self, backend: Backend, events: int) -> None:
        if backend.sock is None:
            return
        if events == backend.events and backend.registered == bool(events):
            return
        if not events:
            if backend.registered:
                backend.registered = False
                try:
                    self._reactor.unregister(backend.sock)
                except (KeyError, ValueError, OSError):
                    pass
        elif backend.registered:
            self._reactor.modify(backend.sock, events, backend.callback)
        else:
            self._reactor.register(
                backend.sock, events, backend.callback
            )
            backend.registered = True
        backend.events = events

    def _close_backend(self, backend: Backend) -> None:
        sock, backend.sock = backend.sock, None
        backend.state = "idle"
        if sock is None:
            return
        if backend.registered:
            backend.registered = False
            try:
                self._reactor.unregister(sock)
            except (KeyError, ValueError, OSError):
                pass
        backend.events = 0
        try:
            sock.close()
        except OSError:
            pass
        backend.inbuf.clear()
        backend.outbuf.clear()

    def _backend_lost(
        self, backend: Backend, cause: str, *, idle_eof: bool = False
    ) -> None:
        """The pooled connection died: fail its in-flight requests over
        to the next candidates. A clean EOF with nothing in flight is
        just the backend recycling an idle connection — health stands,
        the next request reconnects."""
        pending = list(backend.pending) + list(backend.waiting)
        backend.pending.clear()
        backend.waiting.clear()
        self._close_backend(backend)
        if pending or not idle_eof:
            backend.healthy = False
        for sub in pending:
            sub.failed += 1
            self._submit(sub, cause)

    def _on_backend_event(self, backend: Backend, mask: int) -> None:
        try:
            if backend.state == "connecting":
                # Only _WRITE is watched while connecting; an error
                # also surfaces here (selectors maps it to readiness)
                # and _connect_done reads it from SO_ERROR.
                self._connect_done(backend)
                return
            if mask & _WRITE:
                self._flush_backend(backend)
            if mask & _READ and backend.sock is not None:
                self._backend_readable(backend)
        # Containment: a router bug on one upstream must not take the
        # loop (and the whole cluster's front door) down.
        except Exception as exc:
            self._backend_lost(backend, f"internal router error: {exc}")

    def _flush_backend(self, backend: Backend) -> None:
        if backend.sock is None:
            return
        out = backend.outbuf
        if out:
            try:
                sent = backend.sock.send(out)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError as exc:
                self._backend_lost(backend, f"send failed: {exc}")
                return
            if sent:
                del out[:sent]
        self._watch_backend(
            backend, _READ | (_WRITE if out else 0)
        )

    def _backend_readable(self, backend: Backend) -> None:
        assert backend.sock is not None
        try:
            data = backend.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._backend_lost(backend, f"recv failed: {exc}")
            return
        if not data:
            self._backend_lost(
                backend,
                "connection closed",
                idle_eof=not backend.pending and not backend.waiting,
            )
            return
        backend.inbuf += data
        try:
            self._parse_backend(backend)
        except WireError as exc:
            self._backend_lost(backend, f"garbled reply: {exc}")

    def _parse_backend(self, backend: Backend) -> None:
        while backend.sock is not None:
            if backend.state == "hello":
                # First frame on a negotiating connection is the hello
                # reply, always in JSON framing (the server switches
                # codecs only for frames after it).
                decoded = decode_frame(
                    backend.inbuf, max_size=MAX_FRAME_BYTES
                )
                if decoded is None:
                    return
                reply, consumed = decoded
                del backend.inbuf[:consumed]
                result = (
                    reply.get("result")
                    if isinstance(reply, dict)
                    else None
                )
                backend.codec = (
                    "binary"
                    if isinstance(result, dict)
                    and result.get("codec") == "binary"
                    else "json"
                )
                self._backend_ready(backend)
            elif backend.codec == "binary":
                decoded = decode_binary_frame(
                    backend.inbuf, max_size=MAX_FRAME_BYTES
                )
                if decoded is None:
                    return
                ftype, rid, payload, consumed = decoded
                del backend.inbuf[:consumed]
                if not backend.pending:
                    raise WireError("reply with nothing in flight")
                sub = backend.pending.popleft()
                # A garbled reply past this point must not orphan the
                # popped sub: put it back so _backend_lost (reached
                # via the caller's WireError handler) fails it over
                # with the rest of the pending queue.
                try:
                    if sub.rid != rid:
                        raise WireError(
                            f"reply for request {rid}, "
                            f"expected {sub.rid}"
                        )
                    # Only the reply type of the sub's own codec is a
                    # batch reply: another family's frame is as
                    # unexpected as an unknown type, never decoded.
                    if (
                        sub.codec is not None
                        and ftype == sub.codec.ft_reply
                    ):
                        self._sub_success(
                            sub,
                            "records",
                            sub.codec.split_batch_reply(payload),
                        )
                    elif ftype == FT_MSG:
                        self._deliver_reply(
                            sub,
                            decode_msg_payload(
                                payload, max_size=MAX_FRAME_BYTES
                            ),
                        )
                    else:
                        raise WireError(
                            f"unexpected frame type {ftype}"
                        )
                except WireError:
                    backend.pending.appendleft(sub)
                    raise
            else:
                decoded = decode_frame(
                    backend.inbuf, max_size=MAX_FRAME_BYTES
                )
                if decoded is None:
                    return
                reply, consumed = decoded
                del backend.inbuf[:consumed]
                if not backend.pending:
                    raise WireError("reply with nothing in flight")
                sub = backend.pending.popleft()
                try:
                    self._deliver_reply(sub, reply)
                except WireError:
                    backend.pending.appendleft(sub)
                    raise

    def _deliver_reply(self, sub: _Sub, reply: Any) -> None:
        if not isinstance(reply, dict):
            raise WireError(f"malformed reply: {reply!r}")
        if not reply.get("ok"):
            sub.finish(
                "reject", str(reply.get("error", "unknown error"))
            )
            return
        result = reply.get("result")
        if sub.kind == "batch":
            self._sub_success(sub, "verdicts", result)
        else:
            self._sub_success(sub, "result", result)

    def _sub_success(self, sub: _Sub, status: str, value: Any) -> None:
        if sub.failed:
            sub.shard_slot.failovers += 1
        sub.finish(status, value)

    # -- upstream deadlines --------------------------------------------

    def _arm_backend_sweep(self) -> None:
        if not self._reactor.is_running():
            return
        self._reactor.call_later(
            max(0.05, min(1.0, self._backend_timeout / 4.0)),
            self._backend_sweep,
        )

    def _backend_sweep(self) -> None:
        now = time.monotonic()
        live = [
            backend
            for shard_slot in self._all_slots()
            for backend in shard_slot.backends
        ]
        # Retired backends left the slot table but may still hold
        # in-flight requests; their deadlines are enforced the same.
        for backend in live + self._retired:
            # Waiting subs cover connections stuck in the connect
            # or hello phase — a backend that never becomes ready
            # times out exactly like one that never replies.
            queue = backend.pending or backend.waiting
            if queue and queue[0].deadline < now:
                self._backend_lost(backend, "backend timed out")
        self._arm_backend_sweep()
