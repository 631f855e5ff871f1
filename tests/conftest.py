"""Shared fixtures for the test suite.

The service-layer tests all need one real small-scale run to compile
into an index; building it once per session keeps them fast without
sharing mutable state (the run's products are read-only).
"""

import time

import pytest

from repro.cluster import LocalCluster
from repro.experiments.runner import FullRun, RunConfig, run_full
from repro.service.client import ReputationClient, TransportError


@pytest.fixture(scope="session")
def small_full_run() -> FullRun:
    """One seeded test-scale run shared by the service tests."""
    return run_full(RunConfig.small(2020))


def wait_for_seq(backends, seq, timeout=30.0):
    """Poll ``hello()["seq"]`` on each backend until every one has
    applied ``seq``; ``False`` when ``timeout`` runs out first.
    ``backends`` is a list of addresses, or a :class:`LocalCluster` for
    all of its backends — a stopped or killed one never gets there."""
    if isinstance(backends, LocalCluster):
        backends = [
            backends.backend(shard, replica).address
            for shard, slot in enumerate(backends.shard_pids())
            for replica in range(len(slot))
        ]
    deadline = time.monotonic() + timeout
    while True:
        behind = []
        for address in backends:
            try:
                with ReputationClient(*address, codec="json") as client:
                    if client.hello()["seq"] >= seq:
                        continue
            except (TransportError, OSError):
                pass
            behind.append(address)
        backends = behind
        if not backends:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.05)
