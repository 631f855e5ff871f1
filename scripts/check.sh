#!/usr/bin/env bash
# One-command verify: everything a PR must pass, in the order the
# failures are cheapest to hit. Every step holds the tree against a
# fixed rule — none compares it with a recorded past, so there is no
# baseline file to refresh and no host the gate belongs to. Perf
# regressions are judged by the serving ledger (BENCHMARK.json,
# benchmarks/serving/README.md) in parent/change pairs, not here.
#
#   scripts/check.sh                      # full gate
#   REPRO_CHECK_SKIP_PERF=1 scripts/check.sh   # skip the (slow) step 3
#
# Steps:
#   1. tier-1 pytest suite, with every fault in tests/faults.py (the
#      `repro cluster` ones: a primary SIGKILLed per codec, auto-split),
#      every adversary scenario end to end through the CLI, and the
#      IPv6 served path (hitlist-v6 snapshot queried over the CLI, the
#      v6-hitlist load mix)
#   2. reprolint (repro lint): the three per-module rules plus the
#      whole-program FLOW-BLOCK pass; fails on any unwaived finding
#      and on any stale or unknown waiver, and the full sweep must
#      finish inside a 10 s wall-clock budget
#   3. the serving-benchmark smoke (benchmarks/serving, ~55 s): every
#      workload runs and no per-layer probe reports -1, so a refactor
#      that breaks a probe's import fails here instead of silently
#      thinning the ledger; then the benches the ledger does not
#      cover (batch-pipeline primitives and runner, adversary lab, v6
#      survey/trie/routing, failover tail) — they assert counts and
#      bounds between timings taken in the same test, never an
#      absolute time or rate
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== [1/3] tier-1 tests =="
python -m pytest -x -q

echo "== [2/3] reprolint =="
# The budget keeps the flow pass honest: whole-program analysis over
# src/repro must stay interactive (< 10 s) or nobody runs it locally.
timeout 10 python -m repro.cli lint

echo "== [3/3] serving-benchmark smoke + uncovered benches =="
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

echo "check.sh: all gates passed"
