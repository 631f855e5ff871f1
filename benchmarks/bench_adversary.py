"""Performance of the adversary lab.

Two timings keep the lab usable as a routine check rather than an
overnight job (no serving probe touches the lab):

* **scenario build** — simulating a full 60-day evasion campaign
  (world churn, event emission, ledger bookkeeping), so adding world
  detail can't silently turn ``repro scenarios run`` into a
  minutes-long command;
* **end-to-end scoring** — feed sampling over the 151-list catalog,
  index compilation and the full verdict sweep for one scenario. The
  timed round is exactly what the CLI does per scenario (minus the
  streaming fidelity check, whose log and epoch costs are the serving
  ledger's ``log.*`` and ``epoch.apply_ms`` probes).

Both assert counts only — an absolute events/sec floor passes or
fails by host, not by code; the timings are pytest-benchmark's table.
"""

from repro.adversary import get_adversary, score_scenario


def test_perf_adversary_scenario_build(benchmark):
    """Events/sec of deterministic scenario construction."""
    model = get_adversary("campaign-hop")

    scenario = benchmark.pedantic(
        lambda: model.build(2020), rounds=3, iterations=1
    )
    assert scenario.events


def test_perf_adversary_scoring(benchmark):
    """One full scoring pass: listings, index, verdict sweep, metrics."""
    scenario = get_adversary("fast-flux").build(2020)
    eval_points = len(scenario.ledger.eval_points())

    score = benchmark.pedantic(
        lambda: score_scenario(scenario), rounds=3, iterations=1
    )
    assert len(score.verdicts) == eval_points
