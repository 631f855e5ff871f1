"""One cluster shard: a reputation server over a slice of the index.

A shard is the existing service stack, restricted:
:meth:`~repro.service.index.ReputationIndex.restrict` projects the
full index onto the shard's range, and (in streaming mode) a
:class:`~repro.stream.follower.LogFollower` tails the *shared* update
log with a range filter — every shard sees every batch (keeping epoch
numbers in lockstep across the cluster) but applies only the deltas it
owns, so epochs roll shard-by-shard without any global pause.

There is one shard host: :class:`ShardProcess` forks a worker process
per backend (one index slice per interpreter), learns its bound
address through a pipe and from then on watches it only through the
shard's own wire protocol. What runs *inside* that worker, on its main
thread, is :class:`~repro.service.server.ServingNode` — the assembly
``repro serve`` runs too — with :func:`filter_batch` as batch filter.
"""

from __future__ import annotations

import multiprocessing
import signal
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..service.index import ReputationIndex
from ..service.server import DEFAULT_CONNECTION_TIMEOUT, ServingNode
from ..stream.delta import DeltaBatch
from .partition import ShardRange

__all__ = ["ShardProcess", "filter_batch"]

#: How long a worker asked to stop may drain before it is killed.
_DRAIN_S = 10.0


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


def _shard_process_main(
    pipe: Any,
    base: ReputationIndex,
    shard_range: ShardRange,
    settings: Dict[str, Any],
) -> None:
    """Entry point of a forked shard worker: report the bound address
    — or why there is none — then serve on this, the worker's main
    thread, until signalled. ``ShardProcess.stop`` sends SIGTERM, which
    the node takes as "drain and return" (exit code 0);
    ``ShardProcess.kill`` sends SIGKILL, which nothing here sees."""
    # Not the handler ``repro cluster`` forked us under (stop *its*
    # loop): until the node has its own, SIGTERM just ends the worker.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    with pipe:
        try:
            node = ServingNode(
                base,
                batch_filter=lambda batch: filter_batch(batch, shard_range),
                **settings,
            )
            node.stop_on_signals()
        # Assembly or bind failed: stderr is nobody's view of a
        # worker, so the reason travels to the parent's ``start``.
        except Exception as exc:
            pipe.send(("error", f"{type(exc).__name__}: {exc}"))
            sys.exit(1)
        pipe.send(("ok", node.address))
    node.serve_forever()


class ShardProcess:
    """A shard hosted in its own worker process (fork start method).

    The restricted index transfers to the child through fork's
    copy-on-write memory — no snapshot file, no pickling. ``start``
    blocks until the child reports its bound address, so the caller
    can hand a complete backend list to the router, and raises with
    the child's reason when it reports a failure instead. The worker
    has two exits: :meth:`stop` asks it to drain (SIGTERM — cluster
    teardown) and :meth:`kill` is the crash (SIGKILL — what the
    failover path exists to absorb). Its progress is observed one way,
    over its own wire protocol. A restart is a fresh host on the old
    one's port.

    An event loop drives the same lifecycle without waiting:
    :meth:`spawn` forks and hands back the start pipe to watch,
    :meth:`started` reads the report once it is readable, and
    :meth:`terminate` + :meth:`collect` stand in for :meth:`stop`.
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
        # The worker's ``ServingNode`` keyword arguments, handed
        # through whole.
        self._settings: Dict[str, Any] = dict(
            follow=str(follow) if follow is not None else None,
            start_day=start_day,
            host=host,
            port=port,
            connection_timeout=connection_timeout,
        )
        self._process: Optional[multiprocessing.process.BaseProcess] = None
        self._address: Optional[Tuple[str, int]] = None
        #: When :meth:`collect` stops waiting for a drain and kills.
        self._kill_at = float("inf")
        #: How the last worker ended (``-9`` after :meth:`kill`, ``0``
        #: after a drained :meth:`stop`); ``None`` before the first end.
        self.exitcode: Optional[int] = None

    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise RuntimeError("shard process not started")
        return self._address

    @property
    def pid(self) -> Optional[int]:
        """The live worker's pid; ``None`` before ``start`` and after
        ``stop``/``kill``."""
        return self._process.pid if self._process is not None else None

    def start(self, timeout: float = 30.0) -> Tuple[str, int]:
        """Fork the worker; returns its bound address."""
        pipe = self.spawn()
        try:
            return self.started(pipe, None if pipe.poll(timeout) else timeout)
        except RuntimeError:
            # One that reported is on its way out; let it leave with
            # its own exit code.
            self._reap(1.0)
            raise

    def spawn(self) -> Any:
        """Fork the worker without waiting for it; returns the read end
        of its start pipe, which turns readable once the worker has
        reported (or died). Hand it to :meth:`started`."""
        if self._process is not None and self._process.is_alive():
            raise RuntimeError("shard process already running")
        context = multiprocessing.get_context("fork")
        parent_pipe, child_pipe = context.Pipe(duplex=False)
        # Single-controller lifecycle: one thread drives
        # spawn/start/stop/kill (the cluster's loop, or the caller's
        # thread before it runs), never two concurrently.
        try:
            process = context.Process(
                target=_shard_process_main,
                args=(
                    child_pipe,
                    self._base,
                    self.shard_range,
                    self._settings,
                ),
                name=f"repro-shard-{self.shard_id}",
                daemon=True,
            )
            process.start()
        except BaseException:
            parent_pipe.close()
            raise
        finally:
            child_pipe.close()
        self._process = process
        self._kill_at = float("inf")
        return parent_pipe

    def started(
        self, pipe: Any, silent: Optional[float] = None
    ) -> Tuple[str, int]:
        """Read the worker's report off its start pipe, which is
        readable — or, given ``silent``, stayed quiet that many
        seconds — and close the pipe. Returns the bound address; raises
        with the worker's reason when it reported a failure, died first
        or said nothing, and leaves it to :meth:`stop` or
        :meth:`collect`."""
        with pipe:
            if silent is not None:
                status, value = "error", f"no address within {silent:g}s"
            else:
                try:
                    status, value = pipe.recv()
                except EOFError:
                    status, value = "error", "worker died before reporting"
        if status != "ok":
            raise RuntimeError(
                f"shard {self.shard_id} failed to start: {value}"
            )
        self._address = (str(value[0]), int(value[1]))
        return self._address

    def stop(self) -> None:
        """Ask the worker to drain and exit (SIGTERM); idempotent. One
        still alive after the drain allowance is killed, not orphaned."""
        if self._process is not None:
            self._process.terminate()
            self._reap(_DRAIN_S)

    def terminate(self) -> None:
        """:meth:`stop` without the wait: SIGTERM, and :meth:`collect`
        reaps the worker once it has drained."""
        if self._process is not None:
            self._process.terminate()
            self._kill_at = time.monotonic() + _DRAIN_S

    def collect(self) -> bool:
        """Reap the worker if it has ended, never waiting
        (``waitpid(WNOHANG)``); ``True`` once none is left. One still
        running the drain allowance after :meth:`terminate` is
        SIGKILLed, for a later call to reap."""
        process = self._process
        if process is None:
            return True
        if process.exitcode is None:
            if time.monotonic() >= self._kill_at:
                process.kill()
            return False
        self._process = None
        self.exitcode = process.exitcode
        process.close()
        return True

    def kill(self) -> None:
        """End the worker at once (SIGKILL) — a crash, as its peers see
        it: no drain, no goodbye, sockets reset by the kernel."""
        self._reap(0.0)

    def _reap(self, grace: float) -> None:
        """Give the worker ``grace`` seconds to end by itself, SIGKILL
        it if it has not, and collect it either way."""
        process, self._process = self._process, None
        if process is not None:
            process.join(timeout=grace)
            process.kill()  # no-op on one already collected
            process.join()
            self.exitcode = process.exitcode
            process.close()
