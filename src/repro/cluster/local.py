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
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..service.index import ReputationIndex
from ..service.server import DEFAULT_CONNECTION_TIMEOUT
from ..stream.epoch import index_as_of
from .partition import PartitionMap, ShardRange
from .router import (
    DEFAULT_BACKEND_TIMEOUT,
    DEFAULT_HEARTBEAT_INTERVAL,
    Router,
)
from .shard import ShardProcess

__all__ = ["LocalCluster"]


class LocalCluster:
    """N shards × (1 + R) backends plus a router, on localhost.

    ``full_index`` is the unrestricted compiled index; each backend
    gets ``full_index.restrict(...)`` of its shard's range (rolled
    back to the log's start day first when ``follow`` is given, so a
    following shard replays exactly what a single-process
    ``serve --follow`` would). Replicas are independent backends over
    the same slice — in streaming mode each follows the shared log on
    its own, so a failover target is as fresh as its own tail.

    The partition inherits ``full_index.family``, so handing a
    compiled IPv6 index here boots a v6 cluster with no other knobs.
    A cluster serves that one family; for both, run two.

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
        base = full_index
        if follow is not None and start_day is not None:
            base = index_as_of(full_index, start_day)
        # The unrestricted (day-rolled) base is kept beyond __init__:
        # an online split restricts fresh half-range slices from it.
        self._base = base
        # One split at a time; the router swap itself is atomic, this
        # lock just serialises controller decisions.
        self._split_lock = threading.Lock()
        # backends[shard_id][0] is the primary, the rest replicas.
        # The pristine restricted bases are kept: a restarted follower
        # shard must replay the log from this state, not from whatever
        # epoch the dead worker had reached.
        self._bases: List[ReputationIndex] = []
        self._backends: List[List[ShardProcess]] = []
        for shard_id, shard_range in enumerate(self.partition.ranges):
            restricted = base.restrict(shard_range.lo, shard_range.hi)
            self._bases.append(restricted)
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
        with self._split_lock:
            self.router = Router(
                self.partition, addresses, **self._router_args
            )
            return self.router

    def start(self) -> Tuple[str, int]:
        """Start every backend, then the router; returns its address."""
        return self.build_router(self.start_backends()).start()

    def close(self) -> None:
        """Shut the router and every backend down (idempotent).

        Takes the split lock first, so teardown waits for any
        in-progress :meth:`split_shard` rather than racing it."""
        with self._split_lock:
            router, self.router = self.router, None
        if router is not None:
            router.shutdown()
        for slot in self._backends:
            for backend in slot:
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
        backend over the pristine restricted base, so a follower
        replays the log from the start."""
        old = self._backends[shard_id][0]
        old.stop()
        replacement = self._make_backend(
            self._bases[shard_id],
            shard_id,
            self.partition.range_of(shard_id),
            port=old.address[1],
        )
        self._backends[shard_id][0] = replacement
        return replacement.start()

    def wait_for_seq(self, seq: int, timeout: float = 60.0) -> bool:
        """Block until every backend has applied ``seq`` (a stopped
        one never does: ``False`` after ``timeout``)."""
        return all(
            backend.wait_for_seq(seq, timeout=timeout)
            for slot in self._backends
            for backend in slot
        )

    # -- elasticity ----------------------------------------------------

    def split_shard(
        self,
        shard_id: int,
        *,
        catchup_timeout: float = 30.0,
        drain_timeout: float = 10.0,
    ) -> Dict[str, Any]:
        """Split one shard's range in half, online, zero lost queries.

        The sequence keeps every in-flight and future query answerable
        at all times:

        1. restrict two half-range slices from the kept base index and
           boot their backends (old shard still serving everything);
        2. in follow mode, wait for the new backends to replay the log
           to at least the highest seq a reachable backend of the old
           slot has applied (the primary may be dead and its replica
           serving — the halves must not answer staler than it does);
        3. :meth:`Router.apply_partition` — new traffic routes to the
           halves; requests already in flight complete against the old
           backends, whose index covers both halves (``restrict`` is
           verdict-preserving in range, so those answers are correct);
        4. drain the retired connections, then stop the old backends.

        Raises :class:`ValueError` (from ``PartitionMap.split``) when
        the shard covers a single /24 and cannot split, and
        :class:`RuntimeError` when, in follow mode, no backend of the
        old slot answers to give a catch-up target. Returns a summary
        dict (the auto-splitter's event payload).
        """
        with self._split_lock:
            if self.router is None:
                raise RuntimeError("cluster not started")
            new_partition = self.partition.split(shard_id)
            old_slot = self._backends[shard_id]
            halves = (
                new_partition.range_of(shard_id),
                new_partition.range_of(shard_id + 1),
            )
            new_bases: List[ReputationIndex] = []
            new_slots: List[List[ShardProcess]] = []
            for offset, shard_range in enumerate(halves):
                restricted = self._base.restrict(
                    shard_range.lo, shard_range.hi
                )
                new_bases.append(restricted)
                new_slots.append(
                    [
                        self._make_backend(
                            restricted, shard_id + offset, shard_range
                        )
                        for _ in range(1 + self._replicas)
                    ]
                )
            try:
                for slot in new_slots:
                    for backend in slot:
                        backend.start()
                if self._follow is not None:
                    # applied_seq() reads 0 both for a dead backend and
                    # for a live one with nothing applied yet; a
                    # zero-wait for seq 0 tells the two apart.
                    reachable = [
                        backend
                        for backend in old_slot
                        if backend.wait_for_seq(0, timeout=0.0)
                    ]
                    if not reachable:
                        raise RuntimeError(
                            f"shard {shard_id} has no reachable backend "
                            f"to take the catch-up seq from"
                        )
                    target = max(
                        backend.applied_seq() for backend in reachable
                    )
                    for slot in new_slots:
                        for backend in slot:
                            if not backend.wait_for_seq(
                                target, timeout=catchup_timeout
                            ):
                                raise RuntimeError(
                                    f"half-range shard did not reach "
                                    f"seq {target} within "
                                    f"{catchup_timeout:g}s"
                                )
            except BaseException:
                # Boot/catch-up failed: the old shard keeps serving;
                # tear the half-built replacements down and report.
                for slot in new_slots:
                    for backend in slot:
                        try:
                            backend.stop()
                        except (OSError, RuntimeError):
                            pass
                raise
            addresses = [
                [tuple(backend.address) for backend in slot]
                for slot in self._backends
            ]
            addresses[shard_id:shard_id + 1] = [
                [tuple(backend.address) for backend in slot]
                for slot in new_slots
            ]
            self.router.apply_partition(new_partition, addresses)
            drained = self.router.drain_retired(drain_timeout)
            for backend in old_slot:
                try:
                    backend.stop()
                except (OSError, RuntimeError):
                    pass
            self.partition = new_partition
            self._backends[shard_id:shard_id + 1] = new_slots
            self._bases[shard_id:shard_id + 1] = new_bases
            return {
                "shard": shard_id,
                "new_shards": [shard_id, shard_id + 1],
                "ranges": [str(r) for r in halves],
                "shards": len(new_partition),
                "drained": drained,
            }
