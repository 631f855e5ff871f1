"""The cluster's front door: route, scatter-gather, fail over.

A :class:`Router` binds one TCP socket speaking the *existing* service
wire protocol — a client cannot tell a router from a single-process
server: both are a :class:`~repro.service.server.FrontDoor`, whose one
dispatcher answers ``ping``, unknown ops and the ``hello`` codec
negotiation for either — and fans requests out over the shard fleet:

* queries — a packed batch frame, a JSON ``batch`` op, or a JSON
  ``query`` op, which is a batch of one — are split by shard through
  the partition map, scattered to each owning shard's first admitted
  backend (below), and the per-shard replies
  merged back into request order. The split is one pass over the
  request records, none decoded: each one's shard is a ``bisect_right``
  of its bytes into the range starts, each shard's sub-batch is its
  records in request order, sent on as they came, and the gather
  takes, for each position in turn, the next record of that
  position's shard;
* ``stats``/``hello`` ask every shard and merge, reporting the
  fleet's ``min``/``max`` epoch and seq so cross-shard staleness is
  visible to the client; the ``router`` block is the router's own
  :class:`~repro.service.server.Counters`, which no partition swap
  resets, and its ``events`` its own record: backends' flips of
  health and a split's phases;
* one admission rule (DESIGN.md §7 "Links") says who answers for a
  shard: a backend whose link is healthy and whose last reported seq
  is at or above its slot's *mark*, the highest seq the slot has
  served; a served reply from below the mark fails over;
* a heartbeat timer sends every quiet backend a ``hello`` down the
  link its requests use, so its health and seq are what that link
  experienced (its ``stats`` row says why it is not admitted), a
  restarted shard rejoins by itself, and an idle link stays warm.

Everything rides one event loop: the router *is* the downstream
pipelined :class:`~repro.service.aio.WireServer`, and each shard
:class:`Backend` *is* a :class:`~repro.service.aio.Link` — one
persistent pipelined upstream connection on the same reactor, sharing
the inbound side's socket, buffer and framing code — no threads, no
per-request connects. Whatever one loop pass queues on a link leaves
in that pass's one write (the reactor's write pass), so a pipelined
window of batches reaches each shard as one write, and each shard
answers it as one. Upstream links speak the binary codec only, so
routing is plumbing: packed request records scatter out, packed reply
records merge back by position, and the front door's
:func:`~repro.service.server.assemble_reply` answers in the request's
framing. Every key is a request record: the front door packs a JSON
op's day outside i32 as its address's default-day record, so every
upstream batch is a packed frame.

Failure degrades, never cascades: when no backend of a shard is
admitted, its positions become ``SHARD_UNAVAILABLE`` records — per-IP
``{"error": "SHARD_UNAVAILABLE"}`` entries beside the other shards'
verdicts, or a point query's in-band error. A backend connection that
dies with requests in flight fails those requests over to the next
candidate backend; an idle EOF just closes the pooled connection (the
backend may simply have recycled it), leaving its health standing so
the next request or beat reconnects.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from collections import deque
from itertools import compress, repeat
from operator import eq
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..service.aio import PEER_EOF, Link
from ..service.server import (
    DEFAULT_CONNECTION_TIMEOUT,
    Answer,
    Counters,
    Fail,
    FrontDoor,
    Keys,
)
from ..service.wire import (
    CODECS,
    MAX_FRAME_BYTES,
    BinaryCodec,
    WireError,
    encode_frame,
    encode_msg_frame,
)
from .partition import PartitionMap, ShardRange

__all__ = ["Backend", "Router", "ShardSlot", "SHARD_UNAVAILABLE"]

#: Error tag clients see when a shard (and all its replicas) is down.
SHARD_UNAVAILABLE = "SHARD_UNAVAILABLE"

#: Seconds between heartbeat sweeps over the backend fleet.
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: Connect/IO timeout the router uses towards shard backends.
DEFAULT_BACKEND_TIMEOUT = 5.0


class _Sub:
    """One upstream request in flight (or queued for failover) to a
    ``target``: a served :class:`ShardSlot`'s ordered backends, judged
    by its admission rule, or a probed :class:`Backend`'s own link.

    ``finish(status, value)`` fires exactly once, in
    :meth:`Router._complete`, with one of:
    ``("records", [raw record bytes])`` — packed batch reply;
    ``("result", payload)`` — an ``ok`` message reply, judged by
    :func:`_seq_of` where it entered;
    ``("reject", error string)`` — the backend answered ``ok: false``;
    ``("unavailable", cause)`` — every candidate backend failed.
    ``fail`` fails the request the sub serves (``None`` for a probe).
    """

    __slots__ = ("kind", "request", "keys", "rid", "candidates",
                 "failed", "deadline", "finish", "fail", "codec", "slot")

    def __init__(
        self,
        kind: str,
        target: "ShardSlot | Backend",
        finish: Callable[[str, Any], None],
        fail: Optional[Fail],
        *,
        request: Optional[Dict[str, Any]] = None,
        keys: Optional[Keys] = None,
        codec: Optional[BinaryCodec] = None,
    ) -> None:
        self.kind = kind  # "batch" (request records) or "msg" (request)
        self.request = request
        self.keys = keys
        self.codec = codec  # batch subs: the records' family codec
        self.rid = 0
        self.slot = target if isinstance(target, ShardSlot) else None
        # Admitted backends first (primary before replicas), the rest as
        # the last resort: a restarted shard answers before the next beat.
        self.candidates: Deque["Backend"] = deque(
            sorted(target.backends, key=lambda b: not target.admits(b))
            if self.slot else [target]
        )
        self.failed = 0
        self.deadline = 0.0
        self.finish = finish
        self.fail = fail

    def encode(self) -> bytes:
        """The request frame (upstream links speak binary only)."""
        if self.kind == "batch":
            assert self.keys is not None
            assert self.codec is not None
            return self.codec.encode_request_frame(
                self.keys, self.rid, max_size=MAX_FRAME_BYTES
            )
        assert self.request is not None
        return encode_msg_frame(
            self.request, self.rid, max_size=MAX_FRAME_BYTES
        )


class Backend(Link):
    """One shard server address: its health flag plus the router's
    persistent pipelined :class:`~repro.service.aio.Link` to it.

    The link advances through ``state``: ``"idle"`` (no socket) →
    ``"connecting"`` (non-blocking connect in flight) → ``"hello"``
    (binary codec requested, awaiting the reply) → ``"ready"`` (subs
    flow, binary framing). The only other way out of ``"hello"`` is a
    close: a backend that does not grant the binary codec is down,
    and says so. Until ``"ready"`` submitted subs queue in
    ``waiting``; ``pending`` holds the subs on the wire, in reply
    order. Any close drops back to ``"idle"`` and fails both queues
    over to the subs' next candidates. Loop-thread owned, ``healthy``,
    ``cause`` and ``seq`` included: they are written only from what
    this link experienced. Each flip of ``healthy`` is a ``backend``
    event in the router's record — a flip, not a reply: every reply
    says the link is up, so only one that finds it down records."""

    def __init__(self, router: "Router", address: Tuple[str, int]) -> None:
        super().__init__()
        self._router = router
        self.address = (str(address[0]), int(address[1]))
        self.healthy = True  # optimistic until the link says otherwise
        #: Why the link last went unhealthy (its ``close`` cause);
        #: empty while ``healthy``.
        self.cause = ""
        #: The seq the backend's last reply reported.
        self.seq = 0
        self.state = "idle"
        self.pending: Deque[_Sub] = deque()
        self.waiting: Deque[_Sub] = deque()
        self.rid = 0

    def submit(self, sub: _Sub) -> bool:
        """Queue ``sub`` on this link, connecting first if it is idle;
        ``False`` when the backend could not even be tried."""
        if self.sock is None:
            self.state = "connecting"
            self.connect(self._router.reactor, self.address)
            if self.sock is None:
                return False
        # Swept on the loop, so the deadline also bounds a link that
        # never becomes ready: subs wait until the handshake settles.
        sub.deadline = time.monotonic() + self._router._backend_timeout
        self.waiting.append(sub)
        if self.state == "ready":
            self._pump()
        return True

    def expire(self, now: float) -> None:
        # Waiting subs cover a link stuck in its connect or hello: one
        # that never becomes ready times out like one that never replies.
        queue = self.pending or self.waiting
        if queue and queue[0].deadline < now:
            self.close("backend timed out")

    def _pump(self) -> None:
        """Encode every waiting sub for the write pass to send."""
        while self.waiting and self.sock is not None:
            sub = self.waiting.popleft()
            self.rid = (self.rid + 1) & 0xFFFFFFFF
            sub.rid = self.rid
            try:
                self.outbuf += sub.encode()
            except WireError:
                # Nothing another backend could do better, but the
                # sub must still end: let it run out of candidates.
                sub.failed += 1
                self._router._submit(sub, "unserialisable request")
                continue
            self.pending.append(sub)
        # If the write kills the link, on_close fails the pending subs
        # over (re-entering Router._submit with their remaining
        # candidates) — either way every sub is handled.
        self.mark()

    def _head(self, rid: int) -> _Sub:
        """The sub the next reply frame must answer. It stays queued
        until the reply has decoded, so a garbled one fails it over
        with the rest instead of orphaning it."""
        if not self.pending:
            raise WireError("reply with nothing in flight")
        sub = self.pending[0]
        if sub.rid != rid:
            raise WireError(
                f"reply for request {rid}, expected {sub.rid}"
            )
        return sub

    def _succeed(
        self, sub: _Sub, status: str, value: Any, seq: Optional[int]
    ) -> None:
        """Answer ``sub`` with a reply reporting ``seq`` (or none): if
        served, by its slot's admission rule, raising the mark or
        failing the sub over."""
        self.seq = self.seq if seq is None else seq
        slot = sub.slot
        if slot is not None:
            if not slot.admits(self):
                sub.failed += 1
                self._router._submit(sub, f"catching up to seq {slot.mark}")
                return
            if seq is not None:
                slot.mark = seq
        if sub.failed:
            self._router._counters.add("failovers")
        self._router._complete(sub.fail, sub.finish, status, value)

    # -- Link hooks ----------------------------------------------------

    def on_connected(self) -> None:
        """Start the codec handshake (pipelined — the hello is just
        the first frame)."""
        self.state = "hello"
        self.outbuf += encode_frame(
            {"op": "hello", "accept_codecs": ["binary"]},
            max_size=MAX_FRAME_BYTES,
        )

    def on_message(self, request_id: int, reply: Any) -> None:
        if self.state == "hello":
            # First frame on a link is the hello reply, always in
            # JSON framing (the server switches codecs only for frames
            # after it).
            result = reply.get("result") if isinstance(reply, dict) else None
            if not isinstance(result, dict) or result.get("codec") != "binary":
                raise WireError("backend refused the binary codec")
            self.codec = "binary"
            self.state = "ready"
            self._pump()
            return
        sub = self._head(request_id)
        if not isinstance(reply, dict):
            raise WireError(f"malformed reply: {reply!r}")
        ok, result = reply.get("ok"), reply.get("result")
        # Judged while the sub is still pending: a reply that does not
        # hold what its op promises is garbled, and the sub fails over.
        if ok and sub.request is None:
            raise WireError("message reply to a batch request")
        seq = _seq_of(sub.request, result)[1] if ok else 0
        self.pending.popleft()
        if not self.healthy:
            self._flip(True, "")
        if not ok:
            error = str(reply.get("error", "unknown error"))
            self._router._complete(sub.fail, sub.finish, "reject", error)
        else:
            self._succeed(sub, "result", result, seq)

    def on_packed(
        self, ftype: int, request_id: int, payload: bytes
    ) -> None:
        sub = self._head(request_id)
        # Only the reply type of the sub's own codec is a batch reply:
        # another family's frame is as unexpected as an unknown type,
        # never decoded.
        if sub.codec is None or ftype != sub.codec.ft_reply:
            raise WireError(f"unexpected frame type {ftype}")
        records = sub.codec.split_batch_reply(payload)
        self.pending.popleft()
        if not self.healthy:
            self._flip(True, "")
        self._succeed(sub, "records", records, sub.codec.reply_seq(records))

    def _flip(self, healthy: bool, cause: str) -> None:
        self.healthy, self.cause = healthy, cause
        host, port = self.address
        self._router.events.add(
            "backend", address=f"{host}:{port}", healthy=healthy, cause=cause
        )

    def on_close(self, cause: str) -> None:
        """The link died: fail its in-flight requests over to the next
        candidates. A clean EOF with nothing in flight is just the
        backend recycling an idle connection — health stands, the
        next request or beat reconnects."""
        subs = list(self.pending) + list(self.waiting)
        self.pending.clear()
        self.waiting.clear()
        self.state = "idle"
        if subs or cause != PEER_EOF:
            if self.healthy:
                self._flip(False, cause)
            self.cause = cause
        for sub in subs:
            sub.failed += 1
            self._router._submit(sub, cause)


#: The ``index`` sizes a ``stats`` gather adds up.
_SIZES = ("ips", "intervals", "nated_ips", "dynamic_prefixes", "ases", "lists")


def _seq_of(request: Dict[str, Any], result: Any) -> Tuple[int, int]:
    """The ``(epoch, seq)`` of a shard's ``result`` to ``request``, a
    ``hello`` or a ``stats`` (every message the router sends is one):
    the ``hello``'s own, or the ``stats``' ``epoch`` block's, beside
    ``index`` sizes that must be ints too. Else :class:`WireError`."""
    state, sizes = result, {}
    if request["op"] == "stats" and isinstance(result, dict):
        state, sizes = result.get("epoch"), result.get("index")
    if not isinstance(sizes, dict) or any(
        type(sizes.get(key, 0)) is not int for key in _SIZES
    ):
        raise WireError("stats reply without int index sizes")
    marks = (state.get("epoch"), state.get("seq")) if isinstance(state, dict) else ()
    if {type(mark) for mark in marks} != {int}:
        raise WireError(f"{request['op']} reply without an int epoch and seq")
    return marks


class ShardSlot:
    """One shard id's backend set, a primary plus optional replicas."""

    def __init__(
        self,
        router: "Router",
        shard_id: int,
        addresses: Sequence[Tuple[str, int]],
        shard_range: ShardRange,
    ) -> None:
        if not addresses:
            raise ValueError(f"shard {shard_id} has no backends")
        self.shard_id = shard_id
        self.shard_range = shard_range
        self.backends = [Backend(router, address) for address in addresses]
        #: Queries routed to this shard (points + batch positions);
        #: written on the loop thread only — the load signal the
        #: hot-range detector reads.
        self.hits = 0
        #: The highest seq this slot has served a client: no backend
        #: below it answers for the slot. Loop-thread owned.
        self.mark = 0

    def admits(self, backend: Backend) -> bool:
        """The one admission rule: ``backend``'s link is healthy and it
        last reported a seq at or above the mark."""
        return backend.healthy and backend.seq >= self.mark

    def stats_row(self, backend: Backend) -> Dict[str, Any]:
        """``backend``'s ``stats`` row: ``healthy`` when admitted, else
        the ``cause``, its link's or ``catching up to seq N`` (the mark)."""
        row = {"address": list(backend.address), "healthy": self.admits(backend)}
        if not row["healthy"]:
            row["cause"] = backend.cause or f"catching up to seq {self.mark}"
        return row


class Router(FrontDoor):
    """Scatter-gather front over a partitioned shard fleet.

    ``backends`` maps shard id (list position) to that shard's backend
    addresses, primary first. The partition map must be the one the
    shard indexes were restricted with — the router cannot check that,
    only the fidelity tests can. Upstream links speak the binary codec
    only: a backend whose ``hello`` does not grant it is unhealthy,
    with that as the ``cause`` its ``stats`` row states.

    A router is one ``(partition, slots)`` plane, and the partition's
    family is the one family it answers for: a query of the other
    family gets a clean in-band error. Serving both families takes two
    clusters on two ports — a client is single-family per connection
    anyway.
    """

    _plane = "cluster"

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
    ) -> None:
        self._family = partition.family
        #: The one batch codec, both downstream and upstream.
        self._codec = CODECS[self._family]
        self._backend_timeout = backend_timeout
        #: The routing plane: replaced together, in one callback on
        #: the loop thread — the only thread that reads both.
        self._partition = partition
        self._slots = self._make_slots(partition, backends)
        #: Bumped on every apply_partition, so a load observer can
        #: tell "counters reset because the layout changed" from
        #: "counters wrapped"; written on the loop thread only.
        self._partition_epoch = 0
        #: Backends dropped by a partition swap that may still carry
        #: in-flight requests; loop-thread owned, closed by
        #: :meth:`close_retired` once drained.
        self._retired: List[Backend] = []
        self._heartbeat_interval = heartbeat_interval
        #: The ``router`` block's counters, router-wide: a partition
        #: swap rebuilds the slots and leaves these standing.
        self._counters = Counters(
            "point", "batch", "batch_queries", "degraded", "failovers"
        )
        super().__init__(host, port, connection_timeout=connection_timeout)
        self._tightest = min(connection_timeout, backend_timeout)

    def _make_slots(
        self,
        partition: PartitionMap,
        backends: Sequence[Sequence[Tuple[str, int]]],
    ) -> List[ShardSlot]:
        if len(backends) != len(partition):
            raise ValueError(
                f"{len(partition)} shards need {len(partition)} backend "
                f"lists, got {len(backends)}"
            )
        return [
            ShardSlot(
                self, shard_id, list(addresses), partition.range_of(shard_id)
            )
            for shard_id, addresses in enumerate(backends)
        ]

    # -- lifecycle -----------------------------------------------------

    def serve_forever(self) -> None:
        """Serve on the calling thread — the CLI's, or :meth:`start`'s
        daemon thread — with the heartbeat armed. Every backend step,
        the cluster's split cutover and auto-splitter included, runs on
        ``reactor``."""
        self.reactor.call_later(self._heartbeat_interval, self._beat)
        super().serve_forever()

    def shutdown(self) -> None:
        """Stop serving and close every backend link."""
        super().shutdown()
        # The loop has exited; the upstream links (including any
        # retired-but-undrained ones) are ours to close directly.
        # Nobody is left to answer, so what they had in flight is
        # dropped, not failed over, and nobody to hear of it.
        self.events.echo = None
        for backend in self._backends() + self._retired:
            backend.pending.clear()
            backend.waiting.clear()
            backend.close("router shutdown")
        self._retired = []

    # -- health --------------------------------------------------------

    def _backends(self) -> List[Backend]:
        return [backend for slot in self._slots for backend in slot.backends]

    def _links(self) -> List[Link]:
        # Retired backends may still hold requests: their deadlines hold.
        return [*super()._links(), *self._backends(), *self._retired]

    def _beat(self) -> None:
        self.probe(self._backends())
        self.reactor.call_later(self._heartbeat_interval, self._beat)

    def probe(
        self, backends: Sequence[Backend], done: Callable[[], Any] = lambda: None
    ) -> None:
        """One ``hello`` down each quiet backend's own link, connecting
        first where it is idle; ``done`` fires when all are answered
        or lost. A link with requests in flight is skipped: their
        replies and deadlines already judge it. The reply records the
        backend's health and ``seq``, and raises no mark."""
        self.ask_each(
            [b for b in backends if not (b.pending or b.waiting)],
            {"op": "hello"},
            lambda _results: done(),
        )

    def ask_each(
        self,
        targets: Sequence["ShardSlot | Backend"],
        request: Dict[str, Any],
        done: Callable[[List[Optional[Dict[str, Any]]]], None],
        fail: Optional[Fail] = None,
    ) -> None:
        """``request``, a ``hello`` or a ``stats``, once per target — a
        slot, served, or a backend, probed (:class:`_Sub`) — then
        ``done`` with each target's result, in order, once all are
        answered or lost (``None`` where it was refused or every
        candidate failed); what ``done`` raises goes to ``fail``. Loop
        thread only."""
        results: List[Optional[Dict[str, Any]]] = [None] * len(targets)
        outstanding = [len(targets) + 1]  # the round's own hold

        def finish(position: int, status: str, value: Any) -> None:
            if status == "result":
                results[position] = value
            outstanding[0] -= 1
            if outstanding[0] == 0:
                done(results)

        for position, target in enumerate(targets):
            self._submit(
                _Sub(
                    "msg",
                    target,
                    lambda status, value, p=position: finish(p, status, value),
                    fail,
                    request=request,
                )
            )
        self._complete(fail, finish, -1, "", None)  # releases the hold

    def shard_slot(self, shard_id: int) -> ShardSlot:
        """The live slot of ``shard_id`` (loop thread only)."""
        return self._slots[shard_id]

    def wait_healthy(self, timeout: float = 10.0) -> bool:
        """Block until a probe round finds every backend admitted
        (bootstrap/tests); rounds repeat 50 ms apart until then."""
        deadline = time.monotonic() + timeout
        while True:
            answered = threading.Event()
            self.reactor.call_soon(
                lambda: self.probe(self._backends(), answered.set)
            )
            if not answered.wait(max(0.0, deadline - time.monotonic())):
                return False
            if all(all(map(s.admits, s.backends)) for s in self._slots):
                return True
            time.sleep(0.05)

    # -- elasticity (partition swap + load accounting) -----------------

    def load_snapshot(self) -> Dict[str, Any]:
        """Per-shard routed-query counters, callable from any thread.

        The slot list reference is read once, so the rows are
        internally consistent; ``partition_epoch`` bumps on every
        layout swap, telling an observer to reset its delta baseline
        rather than misread the fresh counters as a traffic collapse.
        """
        return {
            "partition_epoch": self._partition_epoch,
            "shards": [
                {
                    "shard": slot.shard_id,
                    "range": slot.shard_range.to_wire(),
                    "hits": slot.hits,
                }
                for slot in self._slots
            ],
        }

    def apply_partition(
        self,
        partition: PartitionMap,
        backends: Sequence[Sequence[Tuple[str, int]]],
        adopt: Sequence[Backend] = (),
    ) -> None:
        """Cut routing over to a new layout, atomically, online.

        Loop thread only (or before the loop runs): the swap is one
        callback, so no request ever observes a partition/slot
        mismatch. A new slot starts at the highest mark of the old slots
        its range overlaps, so a split's halves keep their old slot's.
        Backends whose address survives into the new layout
        keep their live pipelined connection (and health), and so do
        the already-dialled ``adopt`` links; backends that drop out are
        *retired*, not closed — requests already in flight on them
        complete normally (during a split the old shard's index covers
        both halves, so its verdicts stay correct), and
        :meth:`close_retired` closes them once quiet.
        """
        if partition.family is not self._family:
            raise ValueError(
                f"cannot swap a {partition.family.name} partition into "
                f"a {self._family.name} routing plane"
            )
        old = self._backends()
        live = {backend.address: backend for backend in [*adopt, *old]}
        new_slots = self._make_slots(partition, backends)
        kept = set()
        for slot in new_slots:
            lo, hi = slot.shard_range.lo, slot.shard_range.hi
            slot.mark = max(o.mark for o in self._slots
                            if o.shard_range.lo <= hi and lo <= o.shard_range.hi)
            for position, backend in enumerate(slot.backends):
                link = live.get(backend.address)
                if link is not None:
                    slot.backends[position] = link
                    kept.add(id(link))
        self._retired.extend(b for b in old if id(b) not in kept)
        self._partition, self._slots = partition, new_slots
        self._partition_epoch += 1

    def close_retired(self, force: bool = False) -> bool:
        """Close the links a partition swap retired once none has a
        request in flight — or at once, given ``force`` (what they
        still carry fails over through the normal path). ``True`` when
        they were idle. Loop thread only."""
        idle = not any(b.pending or b.waiting for b in self._retired)
        if idle or force:
            retired, self._retired = self._retired, []
            for backend in retired:
                backend.close("retired by partition swap")
        return idle

    # -- queries: the front door's records hook (loop thread) ----------

    def _records(
        self, keys: Keys, op: Optional[str], answer: Answer, fail: Fail
    ) -> None:
        """Scatter ``keys`` by shard and gather the records back into
        request order; a JSON ``query`` op is a batch of one."""
        codec = self._codec
        if op is None:
            # A shard would refuse its own part of a bad frame, and
            # this door would degrade that part: refuse all of it.
            codec.check_requests(keys)
        if op == "query":
            self._counters.add("point")
        else:
            self._counters.add("batch")
            self._counters.add("batch_queries", len(keys))
        partition, slots = self._partition, self._slots
        # A record opens with its address, big-endian, so byte order is
        # address order.
        width = self._family.bits // 8
        starts = [start.to_bytes(width, "big") for start in partition.splits]
        shard_ids = list(map(bisect_right, repeat(starts), keys))
        # Per shard, an iterator over its records (degraded where its
        # shard is down). The gather takes each position's next one from
        # its shard's.
        feeds: List[Any] = [None] * len(slots)
        shards = set(shard_ids)
        if not shards:
            # Empty batch: zero shard fan-outs means shard_done would
            # never fire, so answer directly (an empty result is what
            # a single-process server returns).
            answer([])
            return
        remaining = [len(shards)]

        def shard_done(
            shard_id: int, shard_keys: Keys, status: str, value: Any
        ) -> None:
            if (
                status == "records"
                and isinstance(value, list)
                and len(value) == len(shard_keys)
            ):
                feeds[shard_id] = iter(value)
            else:
                # Unavailable shard, error reply, or a malformed batch
                # reply: degrade this shard's positions, keep the rest.
                self._counters.add("degraded", len(shard_keys))
                feeds[shard_id] = iter([
                    self._degraded(key, shard_id) for key in shard_keys
                ])
            remaining[0] -= 1
            if remaining[0] == 0:
                answer(list(map(next, map(feeds.__getitem__, shard_ids))))

        for shard_id in shards:
            shard_keys = keys if len(shards) == 1 else list(
                compress(keys, map(eq, shard_ids, repeat(shard_id)))
            )
            slots[shard_id].hits += len(shard_keys)
            self._submit(
                _Sub(
                    "batch",
                    slots[shard_id],
                    lambda status, value, s=shard_id, k=shard_keys: (
                        shard_done(s, k, status, value)
                    ),
                    fail,
                    keys=shard_keys,
                    codec=codec,
                )
            )

    def _degraded(self, key: bytes, shard_id: int) -> bytes:
        """The record of a position whose shard is down."""
        ((ip, day),) = self._codec.decode_requests([key])
        return self._codec.pack_degraded(ip, day, shard_id, SHARD_UNAVAILABLE)

    # -- fleet views: the hello and stats hooks ------------------------

    def _fleet_summary(
        self,
        request: Dict[str, Any],
        results: List[Optional[Dict[str, Any]]],
        slots: List[ShardSlot],
    ) -> Dict[str, Any]:
        """The ``cluster`` block from each slot of ``slots``' result to
        ``request`` (``None`` = down), read by :func:`_seq_of`, which
        judged it where it entered. The minima count a down shard at its
        slot's mark, which the router never serves it below — a
        follower's epoch number is its seq — so they do not step back
        when it rejoins behind the others."""
        up = [_seq_of(request, h) for h in results if h is not None]
        marks = [s.mark for h, s in zip(results, slots) if h is None]
        epochs = [epoch for epoch, _ in up]
        seqs = [seq for _, seq in up]
        return {
            "shards": len(slots),
            "backends": sum(len(s.backends) for s in slots),
            "healthy_backends": sum(
                sum(map(s.admits, s.backends)) for s in slots
            ),
            "shards_up": len(up),
            "epoch_min": min(epochs + marks, default=0),
            "epoch_max": max(epochs, default=0),
            "seq_min": min(seqs + marks, default=0),
            "seq_max": max(seqs, default=0),
        }

    def _hello(self, answer: Answer, fail: Fail) -> None:
        """The merged handshake fields. ``epoch``/``seq`` report the
        fleet *minimum* — the only freshness a cross-shard consumer may
        assume — while the ``cluster`` block exposes the spread."""

        slots, request = self._slots, {"op": "hello"}

        def done(hellos: List[Optional[Dict[str, Any]]]) -> None:
            summary = self._fleet_summary(request, hellos, slots)
            answer({
                "streaming": any(
                    h.get("streaming", False) for h in hellos if h is not None
                ),
                "epoch": summary["epoch_min"],
                "seq": summary["seq_min"],
                "cluster": summary,
            })

        self.ask_each(slots, request, done, fail)

    def _stats(self, answer: Answer, fail: Fail) -> None:
        """Merged fleet stats: per-shard payloads plus cluster rollup."""
        slots = self._slots
        self.ask_each(
            slots,
            {"op": "stats"},
            lambda shard_stats: answer(self._build_stats(shard_stats, slots)),
            fail,
        )

    def _build_stats(
        self,
        shard_stats: List[Optional[Dict[str, Any]]],
        slots: List[ShardSlot],
    ) -> Dict[str, Any]:
        # Each shard's stats payload carries its (epoch, seq) in the
        # "epoch" block — no second gather for the fleet summary.
        summary = self._fleet_summary({"op": "stats"}, shard_stats, slots)
        # Shards hold disjoint slices, so sizes add up — but every shard
        # keeps the run-wide ``lists`` and ``ases`` whole.
        index_totals = dict.fromkeys(_SIZES, 0)
        for sizes in (payload["index"] for payload in shard_stats if payload):
            for key, total in index_totals.items():
                value = sizes.get(key, 0)
                index_totals[key] = (
                    max(total, value) if key in ("ases", "lists") else total + value
                )
        # The rows are the load snapshot's, of the live slots — not
        # partition.range_of: a swap while the gather was in flight
        # must not mislabel (or over-index) them.
        rows = self.load_snapshot()["shards"]
        for position, (row, shard_slot) in enumerate(zip(rows, self._slots)):
            row["backends"] = [
                shard_slot.stats_row(backend) for backend in shard_slot.backends
            ]
            row["stats"] = (
                shard_stats[position] if position < len(shard_stats) else None
            )
        return {
            "cluster": summary,
            "router": {
                **self._counters.read(""),
                "partition_epoch": self._partition_epoch,
            },
            "partition": self._partition.to_wire(),
            "index": index_totals,
            "shards": rows,
        }

    # -- upstream (loop thread) ----------------------------------------

    def _submit(self, sub: _Sub, cause: str = "no backends") -> None:
        """Send ``sub`` to its first live candidate backend."""
        while sub.candidates:
            backend = sub.candidates.popleft()
            if backend.submit(sub):
                return
            sub.failed += 1
            cause = f"cannot reach {backend.address[0]}:{backend.address[1]}"
        self._complete(sub.fail, sub.finish, "unavailable", cause)

    def _complete(
        self, fail: Optional[Fail], finish: Callable[..., None], *args: Any
    ) -> None:
        """``finish(*args)``: a sub's, or a gather's own hold, the one
        place either completes. What that raises is the gather's fault,
        not the backend's whose reply surfaced it: the loop counts it,
        and ``fail`` fails the request the gather serves."""
        try:
            finish(*args)
        except Exception as exc:
            cause = self.reactor.caught(exc)
            if fail is not None:
                fail(cause)
