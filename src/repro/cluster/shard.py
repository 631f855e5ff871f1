"""One cluster shard: a reputation server over a slice of the index.

A shard is the existing service stack, restricted:
:meth:`~repro.service.index.ReputationIndex.restrict` projects the
full index onto the shard's range, and (in streaming mode) a
:class:`~repro.stream.follower.LogFollower` tails the *shared* update
log with a range filter — every shard sees every batch (keeping epoch
numbers in lockstep across the cluster) but applies only the deltas it
owns, so epochs roll shard-by-shard without any global pause.

Two hosting modes:

* :class:`ShardServer` runs the shard in-process on daemon threads —
  what the tests, benchmarks and replicas-in-one-process use;
* :class:`ShardProcess` forks a worker process around a
  :class:`ShardServer` (one index slice per process, the CLI's mode),
  reporting its bound address back through a pipe.
"""

from __future__ import annotations

import multiprocessing
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any, Optional, Tuple

from ..service.engine import QueryEngine
from ..service.index import ReputationIndex
from ..service.server import DEFAULT_CONNECTION_TIMEOUT, ReputationServer
from ..stream.delta import DeltaBatch
from ..stream.epoch import EpochIndex
from ..stream.follower import LogFollower
from .partition import ShardRange

__all__ = ["ShardProcess", "ShardServer", "filter_batch"]


def filter_batch(batch: DeltaBatch, shard_range: ShardRange) -> DeltaBatch:
    """The shard's view of one log batch: same seq/day, only the
    deltas whose address falls inside the range. An all-filtered batch
    still advances the shard's epoch — lockstep is the point."""
    kept = tuple(
        delta for delta in batch.deltas if shard_range.contains(delta.ip)
    )
    if len(kept) == len(batch.deltas):
        return batch
    return DeltaBatch(batch.seq, batch.day, kept)


class ShardServer:
    """One shard served from the current process.

    ``base`` must already be the shard's restricted index (and, when
    ``follow`` is given, rolled back to the log's start day — the same
    state a single-process ``serve --follow`` starts from, projected).
    """

    #: No worker process of its own (:attr:`ShardProcess.pid`'s twin).
    pid: Optional[int] = None

    def __init__(
        self,
        base: ReputationIndex,
        shard_id: int,
        shard_range: ShardRange,
        *,
        follow: "Path | str | None" = None,
        start_day: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        connection_timeout: float = DEFAULT_CONNECTION_TIMEOUT,
        poll_interval: float = 0.05,
    ) -> None:
        self.shard_id = shard_id
        self.shard_range = shard_range
        self._follower: Optional[LogFollower] = None
        if follow is not None:
            epochs = EpochIndex(base, day=start_day or 0)
            self._follower = LogFollower(
                follow,
                epochs,
                poll_interval=poll_interval,
                batch_filter=lambda batch: filter_batch(
                    batch, shard_range
                ),
            )
            engine_source: Any = epochs
        else:
            engine_source = base
        self.engine = QueryEngine(engine_source)
        self._server = ReputationServer(
            self.engine,
            host,
            port,
            connection_timeout=connection_timeout,
            streaming=follow is not None,
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return self._server.address

    def start(self) -> Tuple[str, int]:
        """Serve (and follow, in streaming mode) on daemon threads."""
        address = self._server.start()
        if self._follower is not None:
            self._follower.start()
        return address

    def stop(self) -> None:
        """Stop following and serving; severs live connections so the
        router sees the shard die, as a killed process would."""
        if self._follower is not None:
            self._follower.stop()
        self._server.shutdown()
        self._server.close_connections()

    def wait_for_seq(self, seq: int, timeout: float = 30.0) -> bool:
        """Block until the shard's applied seq reaches ``seq``."""
        if self._follower is None:
            return True
        return self._follower.wait_for_seq(seq, timeout=timeout)

    def applied_seq(self) -> int:
        """Last log sequence applied (0 when not following) — the
        catch-up target a freshly booted half-range shard must reach
        before a split cuts traffic over to it."""
        if self._follower is None:
            return 0
        return self._follower.epochs.current.seq

    def __enter__(self) -> "ShardServer":
        self.start()
        return self

    def __exit__(self, *_: Any) -> None:
        self.stop()


def _shard_process_main(
    pipe,
    base: ReputationIndex,
    shard_id: int,
    shard_range: ShardRange,
    follow: Optional[str],
    start_day: Optional[int],
    host: str,
    port: int,
    connection_timeout: float,
) -> None:
    """Entry point of a forked shard worker: serve until terminated."""
    # The parent terminates workers with SIGTERM; translate it into a
    # clean interpreter exit so daemon threads die with the process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    shard = ShardServer(
        base,
        shard_id,
        shard_range,
        follow=follow,
        start_day=start_day,
        host=host,
        port=port,
        connection_timeout=connection_timeout,
    )
    shard.start()
    pipe.send(shard.address)
    pipe.close()
    stop = threading.Event()
    try:
        while not stop.is_set():
            stop.wait(3600.0)
    except KeyboardInterrupt:
        pass
    finally:
        shard.stop()


class ShardProcess:
    """A shard hosted in its own worker process (fork start method).

    The restricted index transfers to the child through fork's
    copy-on-write memory — no snapshot file, no pickling. ``start``
    blocks until the child reports its bound address, so the caller
    can hand a complete backend list to the router. ``stop`` is
    deliberately unceremonious (the failover path exists to absorb
    it). Both shard hosts present one ``start / stop / address / pid /
    applied_seq / wait_for_seq`` surface, so :class:`LocalCluster`
    never asks which one it holds; a restart is a fresh host on the
    old one's port.
    """

    def __init__(
        self,
        base: ReputationIndex,
        shard_id: int,
        shard_range: ShardRange,
        *,
        follow: "Path | str | None" = None,
        start_day: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        connection_timeout: float = DEFAULT_CONNECTION_TIMEOUT,
    ) -> None:
        self.shard_id = shard_id
        self.shard_range = shard_range
        self._base = base
        self._follow = str(follow) if follow is not None else None
        self._start_day = start_day
        self._host = host
        self._port = port
        self._connection_timeout = connection_timeout
        self._process: Optional[multiprocessing.process.BaseProcess] = None
        self._address: Optional[Tuple[str, int]] = None

    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise RuntimeError("shard process not started")
        return self._address

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    def start(self, timeout: float = 30.0) -> Tuple[str, int]:
        """Fork the worker; returns its bound address."""
        if self._process is not None and self._process.is_alive():
            raise RuntimeError("shard process already running")
        context = multiprocessing.get_context("fork")
        parent_pipe, child_pipe = context.Pipe(duplex=False)
        # Single-controller lifecycle: start/kill/restart are driven
        # by one thread (LocalCluster / the CLI), never concurrently.
        self._process = context.Process(
            target=_shard_process_main,
            args=(
                child_pipe,
                self._base,
                self.shard_id,
                self.shard_range,
                self._follow,
                self._start_day,
                self._host,
                self._port,
                self._connection_timeout,
            ),
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        self._process.start()
        child_pipe.close()
        if not parent_pipe.poll(timeout):
            self.stop()
            raise RuntimeError(
                f"shard {self.shard_id} did not report an address "
                f"within {timeout}s"
            )
        self._address = tuple(parent_pipe.recv())
        parent_pipe.close()
        return self._address

    def stop(self) -> None:
        """Terminate the worker immediately (idempotent)."""
        if self._process is not None:
            self._process.terminate()
            self._process.join(timeout=10.0)
            self._process = None

    def _hello_seq(self) -> Optional[int]:
        """The worker's applied seq via its own wire protocol, or
        ``None`` when it cannot be reached — the only view the parent
        has into a forked shard's streaming progress."""
        from ..service.client import ReputationClient, TransportError

        try:
            with ReputationClient(
                *self.address, timeout=self._connection_timeout
            ) as client:
                seq = client.hello().get("seq", 0)
                return seq if isinstance(seq, int) else 0
        except (TransportError, OSError):
            return None

    def applied_seq(self) -> int:
        """Last log sequence the worker applied (0 when unreachable
        or not following)."""
        return self._hello_seq() or 0

    def wait_for_seq(self, seq: int, timeout: float = 30.0) -> bool:
        """Poll the worker until its applied seq reaches ``seq``."""
        if self._follow is None:
            return True
        deadline = time.monotonic() + timeout
        while True:
            applied = self._hello_seq()
            if applied is not None and applied >= seq:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.05)

    def __enter__(self) -> "ShardProcess":
        self.start()
        return self

    def __exit__(self, *_: Any) -> None:
        self.stop()
