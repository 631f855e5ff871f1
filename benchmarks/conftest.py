"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one table or figure of the paper. The
expensive part — building the world and running the crawl, pipeline and
census — happens once per session via ``cached_run``; the benchmarks
time the *analysis* that produces each figure and write the rendered
output to ``results/<experiment>.txt`` so the artefacts survive the
run (pytest captures stdout).

Set ``REPRO_BENCH_PRESET=small`` to iterate quickly at test scale.
"""

import gc
import os
from pathlib import Path

import pytest

from repro.experiments.runner import cached_run

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture()
def gc_frozen():
    """Park the heap the rest of the suite accumulated (session-cached
    runs, rendered artefacts) in the GC's permanent generation for the
    duration of one throughput bench.

    The pipelined serving benches allocate enough per round to trigger
    repeated full collections, and each of those scans every live
    object in the process — so without this, a bench run after the
    figure benches times the test process's heap size, not the
    serving plane (observed 4-5x swings on the same code)."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


@pytest.fixture(scope="session")
def preset() -> str:
    return os.environ.get("REPRO_BENCH_PRESET", "default")


@pytest.fixture(scope="session")
def full_run(preset):
    """The one full reproduction run all benches share."""
    return cached_run(preset)


@pytest.fixture(scope="session")
def strict(preset):
    """True at the calibrated default scale; scale-sensitive
    assertions are skipped for quick small-preset runs."""
    return preset == "default"


@pytest.fixture(scope="session")
def record_result():
    """Write a rendered experiment artefact to results/ and stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n===== {name} =====")
        print(text)

    return _record
