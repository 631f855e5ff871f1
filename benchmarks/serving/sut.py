"""The system under test, booted in child processes.

Run as a script this file *is* the SUT: it loads a snapshot written by
the bench with the commit's own code and serves it in one of three
shapes, composing the same public constructors ``repro serve`` and
``repro cluster`` do:

``direct``
    ``ReputationIndex.load`` → ``QueryEngine`` → ``ReputationServer``.
``routed``
    ``LocalCluster(mode="process", shards=3)``: a router in this
    process in front of three forked shard workers.
``follow``
    snapshot → ``EpochIndex`` → ``LogFollower`` on a bench-written
    update log → ``ReputationServer(streaming=True)``.

The third argument pins the child (and every worker it forks) to a
set of CPUs: the one CPU the load generator runs on, so that its
reference kernel sees the speed the SUT sees (README.md). Once
serving it prints one JSON line (address, pids, how long each
boot step took) and then waits for its stdin to close, which is the
order to shut down. Imported, the module gives the bench the
:class:`Sut` handle that spawns, watches and stops such a child, so
the load generator and the SUT never share an interpreter.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = ["SHAPES", "SHARDS", "Sut", "SutDied"]

SHAPES = ("direct", "routed", "follow")

#: Shard processes behind the router in the ``routed`` shape.
SHARDS = 3

_SRC = Path(__file__).resolve().parents[2] / "src"
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class SutDied(RuntimeError):
    """A SUT child exited, or never reported ready."""


class Sut:
    """One SUT child, from ``Popen`` to reaped."""

    def __init__(
        self,
        shape: str,
        snapshot: Path,
        log: Optional[Path] = None,
        cpus: Optional[Set[int]] = None,
    ) -> None:
        if shape not in SHAPES:
            raise ValueError(f"unknown SUT shape {shape!r}")
        command = [
            sys.executable, str(Path(__file__).resolve()), shape,
            str(snapshot), ",".join(map(str, sorted(cpus or ()))) or "-",
        ]
        if log is not None:
            command.append(str(log))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_SRC)
        # Same str hashes, so same dict and set layouts, on every boot.
        env["PYTHONHASHSEED"] = "0"
        self.shape = shape
        self.spawned_at = time.perf_counter()
        # Own session: stop() can then reap the shard workers through
        # the process group even if the child itself is wedged.
        self._proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            start_new_session=True,
        )
        self.ready: Dict[str, Any] = {}

    def wait_ready(self, timeout: float = 120.0) -> Dict[str, Any]:
        """Block until the child reports it is serving."""
        stdout = self._proc.stdout
        readable, _, _ = select.select([stdout], [], [], timeout)
        line = stdout.readline() if readable else b""
        if not line:
            self.stop()
            raise SutDied(f"{self.shape} SUT never reported ready")
        self.ready = json.loads(line)
        return self.ready

    @property
    def address(self) -> Tuple[str, int]:
        return self.ready["host"], self.ready["port"]

    @property
    def pids(self) -> Dict[str, List[int]]:
        """SUT process ids by role (``server`` / ``router`` / ``shard``)."""
        return self.ready["pids"]

    def alive(self) -> bool:
        """Every SUT process (shard workers too) is still running."""
        if self._proc.poll() is not None:
            return False
        return all(
            os.path.exists(f"/proc/{pid}/stat")
            for pids in self.pids.values()
            for pid in pids
        )

    def pss_mb(self) -> float:
        """Σ proportional set size over every SUT process."""
        total_kb = 0
        for pids in self.pids.values():
            for pid in pids:
                with open(f"/proc/{pid}/smaps_rollup") as handle:
                    for line in handle:
                        if line.startswith("Pss:"):
                            total_kb += int(line.split()[1])
                            break
        return total_kb / 1024.0

    def cpu_seconds(self) -> Dict[str, float]:
        """User + system CPU seconds consumed so far, by role."""
        usage: Dict[str, float] = {}
        for role, pids in self.pids.items():
            ticks = 0
            for pid in pids:
                with open(f"/proc/{pid}/stat") as handle:
                    # Fields after the parenthesised command name.
                    fields = handle.read().rsplit(")", 1)[1].split()
                ticks += int(fields[11]) + int(fields[12])
            usage[role] = ticks / _CLK_TCK
        return usage

    def stop(self) -> None:
        """Shut the child down and wait until it and its workers are
        gone (idempotent)."""
        proc = self._proc
        if proc.stdin is not None and not proc.stdin.closed:
            proc.stdin.close()
        try:
            proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()

    def __enter__(self) -> "Sut":
        return self

    def __exit__(self, *_: Any) -> None:
        self.stop()


# -- the child ---------------------------------------------------------


def _serve(shape: str, snapshot: str, cpus: str, log: Optional[str]) -> None:
    if cpus != "-":
        # Before any thread or worker exists, so all of them inherit it.
        os.sched_setaffinity(0, {int(cpu) for cpu in cpus.split(",")})
    from repro.cluster import LocalCluster
    from repro.service.engine import QueryEngine
    from repro.service.index import ReputationIndex
    from repro.service.server import ReputationServer
    from repro.stream import EpochIndex, LogFollower

    steps: Dict[str, float] = {}

    def timed(name: str, started: float) -> float:
        now = time.perf_counter()
        steps[name] = now - started
        return now

    mark = time.perf_counter()
    index = ReputationIndex.load(snapshot)
    mark = timed("load_s", mark)
    pid = os.getpid()
    closers = []
    if shape == "routed":
        cluster = LocalCluster(index, shards=SHARDS, mode="process")
        mark = timed("restrict_s", mark)
        closers.append(cluster.close)
        host, port = cluster.start()
        mark = timed("shard_boot_s", mark)
        if cluster.router is None or not cluster.router.wait_healthy(30.0):
            raise SystemExit("shards never became healthy")
        timed("wait_healthy_s", mark)
        pids = {
            "router": [pid],
            "shard": [row[0] for row in cluster.shard_pids()],
        }
    else:
        if shape == "follow":
            epochs = EpochIndex(index, day=index.default_day())
            follower = LogFollower(log, epochs)
            engine = QueryEngine(epochs)
        else:
            engine = QueryEngine(index)
        server = ReputationServer(engine, streaming=shape == "follow")
        closers.append(server.shutdown)
        host, port = server.start()
        if shape == "follow":
            closers.append(follower.stop)
            follower.start()
        timed("server_boot_s", mark)
        pids = {"server": [pid]}
    try:
        print(
            json.dumps(
                {"host": host, "port": port, "pids": pids, "steps": steps}
            ),
            flush=True,
        )
        sys.stdin.buffer.read()  # EOF is the order to stop
    finally:
        for close in reversed(closers):
            close()


if __name__ == "__main__":
    _serve(*sys.argv[1:4], sys.argv[4] if len(sys.argv) > 4 else None)
