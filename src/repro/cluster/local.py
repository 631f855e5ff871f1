"""Boot a whole sharded cluster on one machine.

:class:`LocalCluster` wires the pieces together: partition the space,
restrict the full index per shard, fork one worker process per
backend (each shard's primary and its replicas — see
:class:`~repro.cluster.shard.ShardProcess`), then put a
:class:`~repro.cluster.router.Router` in front. There is no in-process
shard host: the tests, the benches and ``repro cluster`` all run the
same forked workers, so each shard genuinely holds only its slice in
its own interpreter and a failure injected here is injected into the
system that ships.

Kill/restart hooks (:meth:`kill_primary` / :meth:`restart_primary`)
exist because the acceptance bar requires serving *through* a shard
outage, not just before and after one; the kill is a real SIGKILL.
An online split (:class:`_Split`) runs on the router's event loop. What
its halves, a restarted primary or a lagging replica may answer is the
router's one admission rule: none of them waits for a seq of its own.
"""

from __future__ import annotations

import selectors
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..service.index import ReputationIndex
from ..service.server import DEFAULT_CONNECTION_TIMEOUT
from ..stream.epoch import Event
from .partition import PartitionMap, ShardRange
from .router import (
    DEFAULT_BACKEND_TIMEOUT,
    DEFAULT_HEARTBEAT_INTERVAL,
    Router,
    ShardSlot,
)
from .shard import _DRAIN_S, ShardProcess

__all__ = ["LocalCluster"]

#: Seconds between the cutover's checks: catch-up probes, drain, reaping.
_TICK_S = 0.05

#: How long the half-range workers have to boot and catch up.
_READY_S = 30.0

#: ``done(info, error)``, how a split ends: one of the two is ``None``.
SplitDone = Callable[[Optional[Dict[str, Any]], Optional[Exception]], None]


class LocalCluster:
    """N shards × (1 + R) backends plus a router, on localhost.

    ``full_index`` is the unrestricted compiled index, served as it
    stands: each backend gets ``full_index.restrict(...)`` of its
    shard's range. One that will ``follow`` an update log is already
    rolled back to the log's ``start_day``, as ``serve --follow``'s
    is, so a following shard replays exactly what a single-process
    ``serve --follow`` would. Replicas are independent backends over the same
    slice — in streaming mode each follows the shared log on its own,
    so a failover target is as fresh as its own tail.

    The partition inherits ``full_index.family``, so handing a
    compiled IPv6 index here boots a v6 cluster with no other knobs.
    A cluster serves that one family; for both, run two. ``echo`` is
    handed each event of the router's record as it is added.

    ``mode`` selects nothing: it is accepted (as ``"process"`` only)
    because the frozen ``benchmarks/serving/sut.py`` still passes it,
    and goes with the next benchmark PR.
    """

    def __init__(
        self,
        full_index: ReputationIndex,
        *,
        shards: int = 3,
        replicas: int = 0,
        follow: "Path | str | None" = None,
        start_day: Optional[int] = None,
        mode: str = "process",
        host: str = "127.0.0.1",
        router_port: int = 0,
        connection_timeout: float = DEFAULT_CONNECTION_TIMEOUT,
        backend_timeout: float = DEFAULT_BACKEND_TIMEOUT,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        echo: Optional[Callable[[Event], None]] = None,
    ) -> None:
        if mode != "process":
            raise ValueError(
                f"cluster mode {mode!r} was removed: every shard is a "
                f"forked worker process"
            )
        if replicas < 0:
            raise ValueError(f"negative replica count: {replicas}")
        self.partition = PartitionMap(shards, family=full_index.family)
        self._follow = follow
        self._start_day = start_day
        self._host = host
        self._replicas = replicas
        self._connection_timeout = connection_timeout
        self._echo = echo
        # Kept beyond __init__: a restarted primary and an online
        # split restrict fresh slices from it, so a follower replays
        # the log from its start, not from whatever epoch a dead worker
        # had reached.
        self._base = full_index
        #: The split in flight — loop-owned, so one at a time.
        self._split: Optional[_Split] = None
        # backends[shard_id][0] is the primary, the rest replicas.
        self._backends: List[List[ShardProcess]] = []
        for shard_id, shard_range in enumerate(self.partition.ranges):
            restricted = full_index.restrict(shard_range.lo, shard_range.hi)
            self._backends.append(
                [
                    self._make_backend(restricted, shard_id, shard_range)
                    for _ in range(1 + replicas)
                ]
            )
        self._router_args = dict(
            host=host,
            port=router_port,
            connection_timeout=connection_timeout,
            backend_timeout=backend_timeout,
            heartbeat_interval=heartbeat_interval,
        )
        self.router: Optional[Router] = None

    def _make_backend(
        self,
        restricted: ReputationIndex,
        shard_id: int,
        shard_range: ShardRange,
        port: int = 0,
    ) -> ShardProcess:
        return ShardProcess(
            restricted,
            shard_id,
            shard_range,
            follow=self._follow,
            start_day=self._start_day,
            host=self._host,
            port=port,
            connection_timeout=self._connection_timeout,
        )

    # -- lifecycle -----------------------------------------------------

    def start_backends(self) -> List[List[Tuple[str, int]]]:
        """Start every backend; returns their bound addresses."""
        return [
            [backend.start() for backend in slot]
            for slot in self._backends
        ]

    def build_router(
        self, addresses: List[List[Tuple[str, int]]]
    ) -> Router:
        """Construct (but don't start) the router over ``addresses``;
        registered on ``self.router`` so :meth:`close` tears it down."""
        self.router = Router(self.partition, addresses, **self._router_args)
        self.router.events.echo = self._echo
        return self.router

    def start(self) -> Tuple[str, int]:
        """Start every backend, then the router; returns its address."""
        return self.build_router(self.start_backends()).start()

    def close(self) -> None:
        """Shut the router and every backend down (idempotent).

        The router's loop stops first, so a split in flight stops with
        it; then every worker goes — the cluster's, and whatever that
        split had forked or was retiring."""
        router, self.router = self.router, None
        if router is not None:
            router.shutdown()
        split, self._split = self._split, None
        workers = split.abort() if split is not None else []
        for slot in self._backends:
            workers.extend(slot)
        for backend in workers:
            try:
                backend.stop()
            # Teardown must not mask the real failure; every
            # backend still gets its stop attempt.
            # reprolint: disable=EXC
            except Exception:
                pass

    def __enter__(self) -> "LocalCluster":
        self.start()
        return self

    def __exit__(self, *_: Any) -> None:
        self.close()

    # -- observability / chaos hooks -----------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        if self.router is None:
            raise RuntimeError("cluster not started")
        return self.router.address

    def backend(self, shard_id: int, replica: int = 0) -> ShardProcess:
        """One backend host (0 = primary)."""
        return self._backends[shard_id][replica]

    def shard_pids(self) -> List[List[Optional[int]]]:
        """Per-shard worker pids (``None`` for a stopped or killed
        backend)."""
        return [[backend.pid for backend in slot] for slot in self._backends]

    def kill_primary(self, shard_id: int) -> None:
        """Crash shard ``shard_id``'s primary: SIGKILL, no drain."""
        self._backends[shard_id][0].kill()

    def restart_primary(self, shard_id: int) -> Tuple[str, int]:
        """Bring a killed primary back on its original port: a fresh
        backend over its range of the pristine base, so a follower
        replays the log from the start. The router admits it again
        once it reports its slot's mark; until then its ``stats`` row
        reads ``catching up to seq N``."""
        old = self._backends[shard_id][0]
        old.stop()
        shard_range = self.partition.range_of(shard_id)
        replacement = self._make_backend(
            self._base.restrict(shard_range.lo, shard_range.hi),
            shard_id,
            shard_range,
            port=old.address[1],
        )
        self._backends[shard_id][0] = replacement
        return replacement.start()

    # -- elasticity ----------------------------------------------------

    @property
    def splitting(self) -> bool:
        """A split is in flight (read it on the router's loop)."""
        return self._split is not None

    def begin_split(self, shard_id: int, done: SplitDone) -> None:
        """Split one shard's range in half, online, zero lost queries:
        :class:`_Split` runs the cutover on the router's loop, and
        ``done(info, None)`` or ``done(None, error)`` fires there when
        it is over — at once with a :class:`ValueError` (from
        ``PartitionMap.split``) for a shard that covers a single /24,
        or a :class:`RuntimeError` while another split is in flight,
        each also a ``split`` event of phase ``skip`` with its reason.
        Loop thread only."""
        assert self.router is not None
        try:
            if self._split is not None:
                raise RuntimeError(
                    f"shard {self._split.shard_id} is already splitting"
                )
            self._split = _Split(self, shard_id, done)
        # Refused before it began: the old layout stands, and the
        # caller hears why as from any other failed split.
        except Exception as exc:
            self.router.events.add(
                "split", shard=shard_id, phase="skip", reason=str(exc)
            )
            done(None, exc)
            return
        self._split.boot()

    def split_shard(self, shard_id: int) -> Dict[str, Any]:
        """:meth:`begin_split`, waited for — the blocking entry for
        callers off the router's loop (tests). Returns the split's info
        dict (the auto-splitter's event payload); raises what ended it
        (the old shard then still serves)."""
        router = self.router
        if router is None:
            raise RuntimeError("cluster not started")
        finished, outcome = threading.Event(), []

        def done(info: Any, error: Optional[Exception]) -> None:
            outcome[:] = [info, error]
            finished.set()

        router.reactor.call_soon(lambda: self.begin_split(shard_id, done))
        # Every phase has a deadline; this one bounds only a loop that
        # never got to the request.
        if not finished.wait(_READY_S + 2 * _DRAIN_S + 5.0):
            raise RuntimeError(f"split of shard {shard_id} never ended")
        info, error = outcome
        if error is not None:
            raise error
        return info


class _Split:
    """One online split of ``shard_id``: a phase machine on the
    router's loop, each step a callback that never waits (DESIGN.md §7
    "Online partition cutover"). **Boot** forks the two half-range
    backends and watches their start pipes. **Catch up** probes the
    halves every tick until the old slot's mark admits each of them.
    **Cut over** is :meth:`Router.apply_partition`, adopting the
    halves' links, whose slots start at that mark.
    **Drain** closes the retired links once idle (or overdue);
    **retire** SIGTERMs the old backends and reaps them off a timer. A
    boot or catch-up failure retires the halves instead, and the old
    shard serves on. ``done`` fires after the retire. Each phase it
    enters is a ``split`` event in the router's record; ``done``
    carries the split's info dict, or its ``error``.
    """

    def __init__(
        self, cluster: LocalCluster, shard_id: int, done: SplitDone
    ) -> None:
        assert cluster.router is not None
        self.cluster, self.router = cluster, cluster.router
        self.reactor = cluster.router.reactor
        self.shard_id, self.done = shard_id, done
        self.partition = cluster.partition.split(shard_id)
        self.halves = [self.partition.range_of(shard_id + i) for i in (0, 1)]
        bases = [cluster._base.restrict(half.lo, half.hi) for half in self.halves]
        self.slots = [
            [
                cluster._make_backend(base, shard_id + i, half)
                for _ in range(1 + cluster._replicas)
            ]
            for i, (base, half) in enumerate(zip(bases, self.halves))
        ]
        self.old = cluster._backends[shard_id]
        self._enter("boot")
        #: Start pipes of the half-range workers yet to report.
        self.pipes: Dict[ShardProcess, Any] = {}
        #: The router's links to the halves, dialled by the catch-up.
        self.links: List[ShardSlot] = []
        self.retiring: List[ShardProcess] = []
        self.drained = False
        self.error: Optional[Exception] = None

    def _enter(self, phase: str, **fields: Any) -> None:
        self.phase = phase
        self.router.events.add(
            "split", **{"shard": self.shard_id, "phase": phase, **fields}
        )

    def _new(self) -> List[ShardProcess]:
        return [backend for slot in self.slots for backend in slot]

    def boot(self) -> None:
        self.reactor.call_later(_READY_S, self._overdue)
        for backend in self._new():
            try:
                pipe = self.pipes[backend] = backend.spawn()
                self.reactor.register(
                    pipe,
                    selectors.EVENT_READ,
                    lambda _mask, b=backend: self._reported(b),
                )
            # A fork that failed is the split's failure: it retires
            # what did boot, and the old shard serves on.
            except Exception as exc:
                self.fail(exc)
                return

    def _reported(self, backend: ShardProcess) -> None:
        pipe = self.pipes.pop(backend)
        self.reactor.unregister(pipe)
        try:
            backend.started(pipe)
        # Whatever went wrong is the split's failure, not the loop's:
        # this runs straight off the selector.
        except Exception as exc:
            self.fail(exc)
            return
        if self.pipes:
            return
        self._enter("catchup")
        self.links = [
            ShardSlot(
                self.router, self.shard_id + i, [b.address for b in s], h
            )
            for i, (s, h) in enumerate(zip(self.slots, self.halves))
        ]
        self._catch_up()

    def _catch_up(self) -> None:
        """Cut over once the old slot's mark admits every half-range
        backend; else probe them and look again a tick later."""
        if self.phase != "catchup":
            return
        mark = self.router.shard_slot(self.shard_id).mark
        for slot in self.links:
            slot.mark = mark
        if all(all(map(slot.admits, slot.backends)) for slot in self.links):
            self.cut_over()
            return
        self.router.probe(
            [link for slot in self.links for link in slot.backends],
            lambda: self.reactor.call_later(_TICK_S, self._catch_up),
        )

    def _overdue(self) -> None:
        if self.phase in ("boot", "catchup"):
            mark = self.router.shard_slot(self.shard_id).mark
            self.fail(RuntimeError(
                f"split of shard {self.shard_id} still in {self.phase} "
                f"after {_READY_S:g}s (catching up to seq {mark})"
            ))

    def cut_over(self) -> None:
        self._enter("drain")
        cluster, shard_id = self.cluster, self.shard_id
        addresses = [[b.address for b in slot] for slot in cluster._backends]
        addresses[shard_id:shard_id + 1] = [
            [b.address for b in slot] for slot in self.slots
        ]
        self.router.apply_partition(
            self.partition,
            addresses,
            adopt=[link for slot in self.links for link in slot.backends],
        )
        cluster.partition = self.partition
        cluster._backends[shard_id:shard_id + 1] = self.slots
        self.drain_until = time.monotonic() + _DRAIN_S
        self._drain()

    def _drain(self) -> None:
        overdue = time.monotonic() >= self.drain_until
        self.drained = self.router.close_retired(force=overdue)
        if self.drained or overdue:
            self.retire(self.old)
        else:
            self.reactor.call_later(_TICK_S, self._drain)

    def retire(self, backends: List[ShardProcess]) -> None:
        if self.phase != "retire":
            self._enter("retire")
        self.retiring = list(backends)
        for backend in backends:
            self._retire(backend)

    def _retire(self, backend: ShardProcess) -> None:
        backend.terminate()

        def reap() -> None:
            if not backend.collect():
                self.reactor.call_later(_TICK_S, reap)
                return
            self.retiring.remove(backend)
            if not self.retiring:
                self._finish()

        self.reactor.call_later(_TICK_S, reap)

    def _finish(self) -> None:
        self.cluster._split = None
        if self.error is not None:
            self._enter("done", error=str(self.error))
            self.done(None, self.error)
            return
        info = {
            "shard": self.shard_id,
            "new_shards": [self.shard_id, self.shard_id + 1],
            "ranges": [str(half) for half in self.halves],
            "shards": len(self.partition),
            "drained": self.drained,
        }
        self._enter("done", **info)
        self.done(info, None)

    def fail(self, error: Exception) -> None:
        """Boot or catch-up failed: the old shard serves on; close what
        the split opened and retire the half-built replacements."""
        self.error = error
        self._enter("retire", error=str(error))
        self._close(f"split abandoned: {error}")
        self.retire(self._new())

    def abort(self) -> List[ShardProcess]:
        """The router's loop stopped mid-split (cluster teardown): close
        what the split opened, tell whoever waits on it, and hand back
        every worker it forked or was retiring, to be stopped."""
        self._enter("done", error="cluster closed")
        self._close("cluster closed")
        self.done(None, RuntimeError("cluster closed during the split"))
        return [*self._new(), *self.old]

    def _close(self, cause: str) -> None:
        for pipe in self.pipes.values():
            try:
                self.reactor.unregister(pipe)
            except (KeyError, ValueError, OSError):
                pass  # the loop is already gone
            pipe.close()
        self.pipes.clear()
        for slot in self.links:
            for link in slot.backends:
                # What the link still carries is this split's own
                # probes: dropped, not failed over.
                link.pending.clear()
                link.waiting.clear()
                link.close(cause)
