"""Shared fixtures for the test suite.

The service-layer tests all need one real small-scale run to compile
into an index; building both once per session keeps them fast without
sharing mutable state (the run's products and the index are
read-only).
"""

import time

import pytest
from hypothesis import Phase, settings

from repro.cluster import LocalCluster
from repro.experiments.runner import FullRun, RunConfig, run_full
from repro.service.client import ReputationClient, TransportError

# The fault check's asserts report their operands, as a test's do.
pytest.register_assert_rewrite("tests.faults")

# What ``scripts/seed_defects.py`` runs its tests with: a seeded
# defect's failure is reported as it is found, never shrunk (shrinking
# took the fold-shift seed to 630 s). Tier-1 runs keep the default.
settings.register_profile(
    "seeded", phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target)
)


@pytest.fixture(scope="session")
def small_full_run() -> FullRun:
    """One seeded test-scale run shared by the service tests."""
    return run_full(RunConfig.small(2020))


@pytest.fixture(scope="session")
def world(small_full_run):
    """That run compiled once: its index, listed addresses, update
    stream and reference model (``tests/faults.py``)."""
    from tests.faults import World  # it imports this module

    return World(small_full_run)


@pytest.fixture(scope="session")
def full_index(world):
    return world.index


@pytest.fixture(scope="session")
def index(world):
    return world.index


@pytest.fixture(scope="session")
def base_index(world):
    """The index rolled back to the update stream's start day."""
    return world.base


@pytest.fixture(scope="session")
def listed_ips(world):
    return world.listed


@pytest.fixture(scope="session")
def start_day(world):
    return world.start_day


@pytest.fixture(scope="session")
def replay_batches(world):
    return world.batches


@pytest.fixture(scope="session")
def analysis(small_full_run):
    return small_full_run.analysis


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
