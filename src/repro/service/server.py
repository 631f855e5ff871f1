"""The op protocol, and the event-loop TCP server for the reputation
service.

One connection carries any number of request frames
(:mod:`repro.service.wire`), *pipelined* — a client may keep many
requests in flight; replies come back in request order. Two codecs
share the port: every connection starts on length-prefixed JSON, and a
``hello`` carrying ``accept_codecs`` may negotiate the binary framing
(old clients never send the key and keep speaking JSON byte-for-byte).

The JSON request surface is unchanged:

``{"op": "query", "ip": "1.2.3.4", "day": 17}``
    → ``{"ok": true, "result": {<verdict>}}`` — ``ip`` may also be an
    integer; ``day`` is optional (defaults to the index's last window
    day).
``{"op": "batch", "queries": [{"ip": ..., "day": ...}, ...]}``
    → ``{"ok": true, "result": [<verdict>, ...]}`` (at most
    :data:`MAX_BATCH` queries per frame).
``{"op": "stats"}``
    → the ``queries`` this server handed the engine (per kind: calls,
    queries, seconds), index sizes, the live epoch/sequence state and
    the packed-record ``cache`` block (entries, capacity, hits,
    misses).
``{"op": "hello"}``
    → the handshake: service name, protocol version, whether the
    server follows an update log, and the current index ``epoch`` +
    last-applied ``seq``; with ``"accept_codecs": ["binary"]`` the
    reply adds ``codecs``/``codec`` and the connection switches to the
    binary framing for every later frame — from the one right behind
    the ``hello``, already in the same read.
``{"op": "ping"}``
    → ``"pong"``.

Binary connections may additionally send packed ``FT_BATCH_REQ``
frames (a binary client's point query is one of a single pair).

:class:`FrontDoor` writes that protocol once, for both doors: a
:class:`ReputationServer` and the cluster's
:class:`~repro.cluster.router.Router` are each a
:class:`~repro.service.aio.WireServer` subclass through it, and supply
only its three hooks — the records answering a batch of pairs, the
``hello`` fields, the ``stats`` payload.

Every answer is a packed record, whatever the codec or op: ``probe →
decode the misses → record loop``. :func:`parse_request` hands on a
packed frame's request records as they came and packs a JSON ``query``
/ ``batch`` op's pairs into the same records. A server answers from
one :class:`~repro.stream.epoch.EpochIndex` (its engine's
:attr:`~repro.service.engine.QueryEngine.epochs`; a static server's is
fed by no log) and reads its current :class:`~repro.stream.epoch.Epoch`
once per request. Each record is looked up as it stands in the
packed-record cache's table for that epoch: a hit copies pre-encoded
record bytes, and the misses are decoded and go to that epoch's
index's one loop from key search to record bytes
(:meth:`~repro.service.index.ReputationIndex.records`; no verdict
object is built), and are stored in its table. So every record of a
reply reports the same ``(epoch, seq)`` whatever a hot swap does
meanwhile, and nothing is ever cached under an epoch it is not that
epoch's answer for: a new epoch starts a new table. When the new epoch
is the very next one, the old table is *carried* into it: the records
of addresses its batch did not rewrite
(:attr:`~repro.stream.epoch.Epoch.changed`) differ only in their
``(epoch, seq)`` stamp, so
:meth:`~repro.service.wire.BinaryCodec.carry` restamps them in builtins
alone, :data:`CARRY_SLICE` records at the head of each request, until
the old table is through; after any other epoch change (a skipped
epoch) the table starts empty. :func:`assemble_reply`
(the router's too) puts the records in the request's framing. A JSON
op's day outside i32, which no record can carry, is asked as its
address's default-day record, and :func:`assemble_reply` answers it
with :func:`~repro.service.wire.unlisted_on`, so no door ever sees
such a day. The cache is the only verdict cache in the serving stack
(the engine keeps no state); only the loop thread touches
it; it is a plain ``dict`` bounded at :data:`PACKED_CACHE_SIZE`
records: past that, one rebuild keeps its newest three quarters (an
entry is never re-ranked on a hit). ``day=None`` and the explicit
default day are two keys holding byte-identical records.

The loop thread also counts, in one :class:`Counters` table: the
cache's hits and misses and, once the record loop has returned, what
reached the index. ``stats`` reads it beside the epoch's views, and
ends in the ``loop`` block and the ``events`` the door's
:class:`~repro.stream.epoch.Events` record kept, newest first (a
server's is its epoch index's, so a follower's swaps are in it).

Robustness contract: a malformed frame or request gets an error reply
(``{"ok": false, "error": ...}``), never a crash; a broken frame
*boundary* (oversized length, bad magic) is answered so and then
closes the connection, because there is no way to resynchronise the
stream. Every peer that will not finish ends in a declared state,
judged by the loop's one sweep (``WireServer._sweep``), which visits
every link the loop owns at a quarter of the tightest timeout on it,
through a drain too. It has four outcomes:

* ``idle timeout`` — a connection quiet for ``connection_timeout``
  with no request in flight is closed. Progress is a read that starts
  or finishes a frame, or a send that moves bytes; a read that only
  extends an unfinished frame is not.
* ``slow frame`` — such a connection that holds an unfinished frame,
  and is still being read (not paused for backpressure), is answered
  ``slow frame`` in band and closed once the reply drained.
* ``backend timed out`` — a router's upstream link whose oldest
  request is past the backend timeout is closed, and what it carried
  fails over.
* accept paused — an accept that finds no descriptor or memory left
  unwatches the listener, so the loop does not spin on its backlog,
  and counts in ``stats``' ``loop`` block as ``accept_errors``; the
  next sweep watches it again. Both are events.

Every connection's close is counted in the ``loop`` block's
``closes``, by its cause's fixed phrase.

Shutdown is graceful — queued replies drain, the listener stops
accepting.
"""

from __future__ import annotations

import signal
from contextlib import nullcontext
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..net.family import V4, AddressFamily, family_of_ip
from ..stream.delta import DeltaBatch
from ..stream.epoch import Epoch, EpochIndex, Event
from ..stream.follower import LogFollower
from .aio import Conn, Slot, WireServer
from .engine import QueryEngine
from .index import ReputationIndex
from .wire import (
    CODECS, BinaryCodec, WireError, check_batch_size, point_error, unlisted_on,
)

__all__ = [
    "Counters",
    "FrontDoor",
    "MAX_BATCH",
    "PROTOCOL_VERSION",
    "ReputationServer",
    "RequestError",
    "ServingNode",
    "assemble_reply",
    "parse_ip",
    "parse_day",
    "parse_request",
]

#: Per query its request record.
Keys = List[bytes]

#: Per position of a JSON op's day outside i32, the day asked.
Wide = Dict[int, int]

#: How a door hands over its answer: at once, or later from the loop.
Answer = Callable[[Any], None]

#: How a door that answers later fails the request instead, in band.
Fail = Callable[[str], None]

#: Upper bound on queries in one batch frame.
MAX_BATCH = 10_000

#: Wire protocol version reported by the ``hello`` handshake. The
#: binary codec is a framing negotiation, not a new request surface,
#: so it does not bump the version.
PROTOCOL_VERSION = 1

#: Seconds a connection may sit idle before the server drops it.
DEFAULT_CONNECTION_TIMEOUT = 30.0

#: Packed-verdict cache capacity (records, not bytes).
PACKED_CACHE_SIZE = 1 << 15

#: Records a request carries from the previous epoch's table before it
#: is answered: a full table crosses in 32 requests, none of which pays
#: much more than a millisecond for it.
CARRY_SLICE = 1 << 10

#: How often a following node polls its update log.
_FOLLOW_POLL_S = 0.05


class RequestError(ValueError):
    """A structurally valid frame asking something unanswerable."""


class Counters:
    """One serving process's counters: dotted names in a flat table
    that only its loop thread writes, so it takes no lock. ``names``
    read as 0 before their first :meth:`add`."""

    def __init__(self, *names: str) -> None:
        self._values: Dict[str, float] = dict.fromkeys(names, 0)

    def add(self, name: str, n: float = 1) -> None:
        values = self._values
        values[name] = values.get(name, 0) + n

    def read(self, prefix: str) -> Dict[str, Any]:
        """The counters under ``prefix`` (all of them for ``""``) as
        nested dicts, in the order each name was first counted; a
        float is rounded to the microsecond."""
        head = prefix + "." if prefix else ""
        tree: Dict[str, Any] = {}
        for name, value in self._values.items():
            if not name.startswith(head):
                continue
            *path, leaf = name[len(head):].split(".")
            node = tree
            for part in path:
                node = node.setdefault(part, {})
            node[leaf] = round(value, 6) if isinstance(value, float) else value
        return tree


def parse_ip(value: Any, family: AddressFamily = V4) -> int:
    if isinstance(value, bool):
        raise RequestError(f"bad ip: {value!r}")
    if isinstance(value, int):
        if not family.valid_ip(value):
            raise RequestError(f"ip integer out of range: {value!r}")
        return value
    if isinstance(value, str):
        literal = family_of_ip(value)
        if literal is not family:
            # The common operator slip — a v6 literal at a v4 index —
            # gets a diagnosis, not a parse stack trace.
            raise RequestError(
                f"{literal.name} literal {value!r} cannot be answered "
                f"by this {family.name}-only index"
            )
        try:
            return family.parse(value)
        except ValueError as exc:
            raise RequestError(str(exc)) from None
    raise RequestError(f"bad ip: {value!r}")


def parse_day(value: Any) -> Optional[int]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"bad day: {value!r}")
    return value


def parse_request(
    slot: Slot, kind: str, data: Any, codec: BinaryCodec, plane: str
) -> Tuple[Any, Optional[Keys], Wide]:
    """What one request asks, as ``(op, keys, wide)``: a packed batch
    frame is ``(None, its records, {})``, a JSON ``query`` or ``batch``
    op is ``(op, its pairs packed, wide)``, any other op ``(op, None,
    {})``. A day outside i32 is packed as its address's default-day
    record, and ``wide`` maps its position to the day asked. Raises the
    request's in-band error for a batch frame of another family than
    ``codec``'s (``plane`` names what cannot answer it) or that does
    not split, an oversized batch, a request that is not a JSON
    object, or a query value that does not parse."""
    family = codec.family
    if kind == "batch":
        batch_codec = slot.batch_codec
        assert batch_codec is not None
        if batch_codec is not codec:
            raise RequestError(
                f"{batch_codec.family.name} batch frame cannot be answered "
                f"by this {family.name}-only {plane}"
            )
        return None, codec.split_batch_request(data, MAX_BATCH), {}
    if not isinstance(data, dict):
        raise RequestError(
            f"request must be a JSON object, got {type(data).__name__}"
        )
    op, queries = data.get("op"), [data]
    if op == "batch":
        queries = data.get("queries")
        if not isinstance(queries, list):
            raise RequestError("batch needs a 'queries' array")
    elif op != "query":
        return op, None, {}
    check_batch_size(len(queries), MAX_BATCH)
    pack = codec.pack_request
    keys: Keys = []
    wide: Wide = {}
    for item in queries:
        if not isinstance(item, dict):
            raise RequestError("each batch query must be an object")
        ip, day = parse_ip(item.get("ip"), family), parse_day(item.get("day"))
        try:
            keys.append(pack(ip, day))
        except WireError:  # a day outside i32
            wide[len(keys)] = day
            keys.append(pack(ip, None))
    return op, keys, wide


def assemble_reply(
    slot: Slot,
    op: Optional[str],
    records: List[bytes],
    codec: BinaryCodec,
    wide: Wide,
) -> None:
    """Answer ``slot`` with its request's records, packed ``bytes`` of
    ``codec``, in the request's own framing: a packed frame for a
    packed request (``op`` ``None``), else the JSON op's result, a list
    of wire dicts (``batch``) or one (``query``), where a degraded
    point answer is the request's in-band error. The answer at each
    position in ``wide`` is replaced by what
    :func:`~repro.service.wire.unlisted_on` makes of it and the day
    asked there."""
    if op is None:
        slot.complete_records(records)
        return
    decode = codec.decode_record
    try:
        answers = [decode(record).to_wire() for record in records]
    except WireError as exc:
        slot.fail(f"internal error: undecodable record: {exc}")
        return
    for at, day in wide.items():
        answers[at] = unlisted_on(answers[at], day)
    if op == "batch":
        slot.complete({"ok": True, "result": answers})
        return
    (answer,) = answers
    if "error" in answer:
        slot.fail(point_error(answer))
    else:
        slot.complete({"ok": True, "result": answer})


class FrontDoor(WireServer):
    """The op protocol, written once: :meth:`handle` answers every
    request frame for either door. Queries go to the door's
    :meth:`_records` and out through :func:`assemble_reply`; ``ping``
    is answered ``pong``; ``hello`` switches the connection's codec at
    once, so the next frame is parsed in it, and answers ``{service,
    protocol, **fields}`` plus the negotiation keys, the door's
    :meth:`_hello` supplying the fields; ``stats`` is the door's
    :meth:`_stats` payload plus the ``loop`` block (what the reactor's
    guards caught, the accepts the fd limit failed, the closes by
    cause) and the door's ``events``; any other op is unknown. A hook
    hands its answer to the callback it is given — at once (a server)
    or later from the loop (a router, which hands a failing gather's
    cause to ``fail``).
    A door sets ``_codec``, the one batch codec (hence family) it
    answers, and ``_plane``, what a batch frame of another family is
    told cannot answer it."""

    _codec: BinaryCodec
    _plane: str

    def handle(self, conn: Conn, slot: Slot, kind: str, data: Any) -> None:
        codec = self._codec
        try:
            op, keys, wide = parse_request(
                slot, kind, data, codec, self._plane
            )
            if keys is not None:
                self._records(
                    keys,
                    op,
                    lambda records: assemble_reply(
                        slot, op, records, codec, wide
                    ),
                    slot.fail,
                )
            elif op == "ping":
                slot.complete({"ok": True, "result": "pong"})
            elif op == "hello":
                # No ``accept_codecs``, no codec keys: the reply a
                # client older than the negotiation expects.
                accepts = data.get("accept_codecs")
                offer: Dict[str, Any] = {}
                if isinstance(accepts, list):
                    offer = {"codecs": ["binary", "json"], "codec": "json"}
                    if "binary" in accepts:
                        # From the next frame on; this slot keeps the
                        # framing the hello came in.
                        offer["codec"] = conn.codec = "binary"

                def refused(cause: str) -> None:
                    conn.codec = slot.codec  # a failed hello grants nothing
                    slot.fail(cause)

                self._hello(
                    lambda fields: slot.complete({"ok": True, "result": {
                        "service": "repro-reputation",
                        "protocol": PROTOCOL_VERSION,
                        **fields,
                        **offer,
                    }}),
                    refused,
                )
            elif op == "stats":
                loop = self.reactor
                self._stats(
                    lambda payload: slot.complete({"ok": True, "result": {
                        **payload,
                        "loop": {"callback_errors": loop.callback_errors,
                                 "callback_error": loop.callback_error,
                                 "accept_errors": self.accept_errors,
                                 "closes": dict(self.closes)},
                        "events": self.events.recent(),
                    }}),
                    slot.fail,
                )
            else:
                raise RequestError(f"unknown op: {op!r}")
        except ValueError as exc:  # a RequestError, or the engine's
            slot.fail(str(exc))

    def _records(
        self, keys: Keys, op: Optional[str], answer: Answer, fail: Fail
    ) -> None:
        """``answer`` the records for ``keys``, in order, packed
        ``bytes`` of ``_codec`` (``op`` is ``None`` for a packed
        frame)."""
        raise NotImplementedError

    def _hello(self, answer: Answer, fail: Fail) -> None:
        """``answer`` the door's ``hello`` fields (``streaming``,
        ``epoch``, ``seq``, …)."""
        raise NotImplementedError

    def _stats(self, answer: Answer, fail: Fail) -> None:
        """``answer`` the door's ``stats`` payload."""
        raise NotImplementedError


class ReputationServer(FrontDoor):
    """One process's index behind the op protocol; binds on
    construction.

    Use ``port=0`` to bind an ephemeral port (tests);
    :attr:`address` reports the bound ``(host, port)``. Either call
    :meth:`serve_forever` on the current thread, or :meth:`start` to
    serve from a daemon thread, and :meth:`shutdown` (also via the
    context manager) to stop accepting and release the socket.
    """

    _plane = "index"

    def __init__(
        self,
        engine: QueryEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        connection_timeout: float = DEFAULT_CONNECTION_TIMEOUT,
        streaming: bool = False,
    ) -> None:
        self._epochs = engine.epochs
        self._codec = CODECS[engine.family]
        self._follows = streaming
        # Epoch ``_epoch``'s packed records by request record, and what
        # is still to carry into it from the epoch before; the loop
        # thread is the only toucher of them and the counters.
        self._epoch: Optional[int] = None
        self._packed: Dict[bytes, bytes] = {}
        self._carrying: Optional[Iterator[Tuple[bytes, bytes]]] = None
        self._counters = Counters("cache.hits", "cache.misses")
        super().__init__(host, port, connection_timeout=connection_timeout)
        self.events = self._epochs.events

    def _hello(self, answer: Answer, fail: Fail) -> None:
        epoch = self._epochs.current
        answer({"streaming": self._follows, "epoch": epoch.number,
                "seq": epoch.seq})

    def _stats(self, answer: Answer, fail: Fail) -> None:
        epochs, counters = self._epochs, self._counters
        epoch = epochs.current
        answer({
            "queries": counters.read("queries"),
            "index": epoch.index.stats(),
            # A static server's epoch never moves: it reports only the
            # stamp its records carry.
            "epoch": epochs.stats() if self._follows else {
                "epoch": epoch.number, "seq": epoch.seq},
            "cache": {
                "entries": len(self._packed),
                "capacity": PACKED_CACHE_SIZE,
                **counters.read("cache"),
            },
        })

    def _turn(self, epoch: Epoch) -> None:
        """Start the table of ``epoch``, which no later request can ask
        a superseded epoch's record of: carried from the old table when
        it is the very next epoch, else empty."""
        old, self._packed, self._carrying = self._packed, {}, None
        if self._epoch is not None and epoch.number == self._epoch + 1:
            self._carrying = self._codec.carry(
                old, epoch.changed, epoch.number, epoch.seq
            )
        self._epoch = epoch.number

    def _records(
        self, keys: Keys, op: Optional[str], answer: Answer, fail: Fail
    ) -> None:
        """The records answering ``keys``, in order, answered at once:
        each key is looked up, undecoded, in the table of the epoch
        current when the request came, once the next slice of the old
        table is carried into it; only the misses are decoded and
        handed to that epoch's index."""
        counters = self._counters
        epoch = self._epochs.current
        if epoch.number != self._epoch:
            self._turn(epoch)
        cache = self._packed
        if self._carrying is not None:
            carried = list(islice(self._carrying, CARRY_SLICE))
            cache.update(carried)
            if len(carried) < CARRY_SLICE:
                self._carrying = None
        records: List[Any] = list(map(cache.get, keys))
        missed: List[int] = []
        if None in records:
            missed = [at for at, got in enumerate(records) if got is None]
            # Stored keys were decoded, so checked: a hit needs none, and
            # a bad has_day refuses the request before anything counts.
            pairs = self._codec.decode_requests([keys[at] for at in missed])
            started = perf_counter()
            fresh = epoch.index.records(
                pairs, epoch.number, epoch.seq, self._codec
            )
            prefix = f"queries.{'point' if op == 'query' else 'batch'}."
            counters.add(prefix + "calls")
            counters.add(prefix + "queries", len(fresh))
            # Always 0, and kept only because the frozen
            # benchmarks/serving/run.py indexes it; it goes when that
            # benchmark drops ``engine.lru_hit_rate``.
            counters.add(prefix + "cache_hits", 0)
            counters.add(prefix + "seconds", perf_counter() - started)
            for at, record in zip(missed, fresh):
                records[at] = cache[keys[at]] = record
        if len(cache) > PACKED_CACHE_SIZE:
            # One rebuild keeps the newest three quarters.
            drop = len(cache) - PACKED_CACHE_SIZE * 3 // 4
            self._packed = dict(islice(cache.items(), drop, None))
        counters.add("cache.hits", len(keys) - len(missed))
        counters.add("cache.misses", len(missed))
        answer(records)


class ServingNode:
    """What one serving process runs — ``repro serve`` and every shard
    worker alike: index → epochs [+ log] → engine → server [+ follower].

    ``base`` is served as it stands, as epoch 0 of an
    :class:`~repro.stream.epoch.EpochIndex` on ``start_day`` (``None``:
    the index's default day), which only the ``follow`` log advances:
    a shard's is already restricted to its range, and one that will
    ``follow`` an update log is already rolled back to the log's
    ``start_day``. Following happens on the
    ``repro-log-follower`` thread, and so does ``batch_filter``, which
    rewrites a batch before it is applied (a shard keeps its range's
    deltas). ``echo`` is handed each event of the node's record as it
    is added (:class:`~repro.stream.epoch.Events`). Binds on
    construction; runs one way, :meth:`serve_forever` on the calling
    thread.
    """

    def __init__(
        self,
        base: ReputationIndex,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        follow: "Path | str | None" = None,
        start_day: Optional[int] = None,
        batch_filter: Optional[Callable[[DeltaBatch], DeltaBatch]] = None,
        echo: Optional[Callable[[Event], None]] = None,
        connection_timeout: float = DEFAULT_CONNECTION_TIMEOUT,
    ) -> None:
        epochs = EpochIndex(base, day=start_day)
        epochs.events.echo = echo
        self._following: Any = nullcontext()  # or a follower's start…stop
        if follow is not None:
            self._following = LogFollower(
                follow,
                epochs,
                poll_interval=_FOLLOW_POLL_S,
                batch_filter=batch_filter,
            )
        self._server = ReputationServer(
            QueryEngine(epochs),
            host,
            port,
            connection_timeout=connection_timeout,
            streaming=follow is not None,
        )
        #: The bound ``(host, port)``.
        self.address = self._server.address

    def serve_forever(self) -> None:
        """Follow and serve until :meth:`request_stop`; the follower
        is stopped and joined before this returns."""
        with self._following:
            self._server.serve_forever()

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to drain and return: no new
        connection, every request already sent answered, every reply
        flushed. Returns at once — callable from any thread, from a
        signal handler on the serving thread, and before the loop runs
        (which then stops as soon as it starts)."""
        self._server.request_shutdown()

    def stop_on_signals(self) -> None:
        """SIGTERM and SIGINT (Ctrl-C) both become :meth:`request_stop`:
        the process drains and leaves with exit code 0. Main thread
        only — where a serving process runs its node."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: self.request_stop())
