"""Deterministic load generation against the serving plane.

The subsystem is three layers, composable from tests, benches and the
``repro load`` CLI alike:

* :mod:`~repro.loadgen.mixes` — named traffic shapes (zipf skew,
  hot-/24 concentration, point-vs-batch ratio, bursts, churn storms);
* :mod:`~repro.loadgen.generator` — a seeded mix + address population
  expanded into a complete open-loop schedule of timed events;
* :mod:`~repro.loadgen.harness` — schedule replay over pipelined
  client connections, emitting a JSON-ready SLO report.

:mod:`~repro.loadgen.stats` underneath is the repo's one definition of
latency percentiles, shared with the benchmark suite.
"""

from .generator import (
    Event,
    TrafficGenerator,
    population_from_analysis,
    population_from_hitlist,
)
from .harness import (
    LoadHarness,
    LoadReport,
    render_report,
    storm_hook,
)
from .mixes import MIXES, MixSpec, get_mix, mix_names
from .stats import percentile, summarize, window_day_workload

__all__ = [
    "Event",
    "LoadHarness",
    "LoadReport",
    "MIXES",
    "MixSpec",
    "TrafficGenerator",
    "get_mix",
    "mix_names",
    "percentile",
    "population_from_analysis",
    "population_from_hitlist",
    "render_report",
    "storm_hook",
    "summarize",
    "window_day_workload",
]
