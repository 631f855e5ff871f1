#!/usr/bin/env bash
# One-command verify: everything a PR must pass, in the order the
# failures are cheapest to hit. Every step holds the tree against a
# fixed rule — none compares it with a recorded past, so there is no
# baseline file to refresh and no host the gate belongs to. Perf
# regressions are judged by the serving ledger (BENCHMARK.json,
# benchmarks/serving/README.md) in parent/change pairs, not here.
#
#   scripts/check.sh                      # full gate
#   REPRO_CHECK_SKIP_PERF=1 scripts/check.sh   # skip the (slow) step 4
#
# Steps:
#   1. tier-1 pytest suite
#   2. reprolint (repro lint --strict-waivers): per-module rules plus
#      the whole-program flow pass; fails on any unwaived finding and
#      on any stale waiver, and the full sweep must finish inside a
#      10 s wall-clock budget
#   3. mypy --strict over the tracked module list in pyproject.toml
#      (skipped with a notice when mypy isn't installed — it is a
#      dev-only extra: pip install -e '.[dev]')
#   4. the serving-benchmark smoke (benchmarks/serving, ~55 s): every
#      workload runs and no per-layer probe reports -1, so a refactor
#      that breaks a probe's import fails here instead of silently
#      thinning the ledger; then the benches the ledger does not
#      cover (batch-pipeline primitives and runner, adversary lab, v6
#      survey/trie/routing, failover tail) — they assert counts and
#      bounds between timings taken in the same test, never an
#      absolute time or rate
#   5. adversary-lab smoke (scripts/scenarios_smoke.sh): every
#      scenario end to end through the CLI, fidelity check included
#   6. IPv6 serving smoke (scripts/v6_smoke.sh): hitlist-v6 scenario
#      compiled to a snapshot, served by `repro serve` and queried
#      over the CLI, plus the v6-hitlist load mix
#   7. cluster smoke (scripts/cluster_smoke.sh): `repro cluster` with
#      replicas, one primary SIGKILLed per wire codec, every query
#      still answered
#   8. load + elasticity smoke (scripts/load_smoke.sh): auto-split
#      grows a 3-shard cluster online under the hot-range mix with
#      zero failed queries
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== [1/8] tier-1 tests =="
python -m pytest -x -q

echo "== [2/8] reprolint =="
# The budget keeps the flow pass honest: whole-program analysis over
# src/repro must stay interactive (< 10 s) or it gets skipped locally.
timeout 10 python -m repro.cli lint --strict-waivers

echo "== [3/8] mypy --strict (tracked modules) =="
if python -c "import mypy" >/dev/null 2>&1; then
    # Module list and strictness live in [tool.mypy] in pyproject.toml.
    python -m mypy
else
    echo "mypy not installed — skipped (pip install -e '.[dev]')"
fi

echo "== [4/8] serving-benchmark smoke + uncovered benches =="
if [ "${REPRO_CHECK_SKIP_PERF:-0}" = "1" ]; then
    echo "skipped (REPRO_CHECK_SKIP_PERF=1)"
else
    python -m pytest benchmarks/serving -q
    python -m pytest \
        benchmarks/bench_perf_primitives.py \
        benchmarks/bench_perf_runner.py \
        benchmarks/bench_cluster.py \
        benchmarks/bench_adversary.py \
        benchmarks/bench_v6.py \
        -q
fi

echo "== [5/8] adversary scenarios smoke =="
bash scripts/scenarios_smoke.sh

echo "== [6/8] IPv6 serving smoke =="
bash scripts/v6_smoke.sh

echo "== [7/8] cluster smoke =="
bash scripts/cluster_smoke.sh

echo "== [8/8] load + elasticity smoke =="
bash scripts/load_smoke.sh

echo "check.sh: all gates passed"
