"""Smoke test of the serving benchmark at 1/1000 of the paper's scale.

    python -m pytest benchmarks/serving -q

Not part of the repo's tier-1 suite (``testpaths`` is ``tests``): it
boots real SUT children and takes about half a minute.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import pytest

import run
import driver
import synth

DIVISOR = 1000
SECONDS = 2.0

CONTRACT = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def _assert_reported(result, rows):
    assert set(result["metrics"]) == {row["name"] for row in rows}
    for row in rows:
        got = result["metrics"][row["name"]]
        assert got["unit"] == row["unit"], row["name"]
        assert math.isfinite(got["value"]), row["name"]
        assert got["value"] != -1.0, f"{row['name']} probe unavailable"


def test_contract_names_the_benchmarks_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/serving"]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_reports_every_end_to_end_metric(name):
    result = run.run_one(name, 7, SECONDS, False, DIVISOR)
    assert result["failed"] == 0
    assert result["attempted"] > 0
    _assert_reported(result, CONTRACT["end_to_end"])
    for row in CONTRACT["end_to_end"]:
        assert result["metrics"][row["name"]]["value"] > 0, row["name"]


def test_traced_run_reports_every_per_layer_metric():
    result = run.run_one("routed-slo", 7, SECONDS, True, DIVISOR)
    assert result["failed"] == 0
    _assert_reported(result, CONTRACT["per_layer"])
    trace = json.loads((run.HERE / ".work" / "trace-routed-slo.json").read_text())
    names = {span[1] for span in trace["spans"]}
    assert {"client.query", "client.query_batch",
            "client.query_batch_pipelined"} <= names


def test_same_seed_same_tables_and_schedules():
    def fingerprint(seed):
        tables = synth.generate(seed, DIVISOR)
        rng = random.Random(f"load-{seed}")
        keys = synth.query_keys(tables, rng, 1000)
        schedules = driver.open_schedules(
            driver.ZipfKeys(keys).draw, rng,
            driver.Timeline.rounds(SECONDS).open,
        )
        churn = driver.make_churn(
            tables, run.Oracle(tables), rng, 2, [ip for ip, _ in keys]
        )
        blob = repr((keys, schedules, churn)).encode()
        return synth.digest(tables), hashlib.sha256(blob).hexdigest()

    assert fingerprint(3) == fingerprint(3)
    assert fingerprint(3) != fingerprint(4)


def test_wrong_oracle_row_is_counted_as_failed(tmp_path):
    prep = run.prepare(7, tmp_path, DIVISOR)
    # Every listing now ends before it starts: the oracle calls every
    # listed address clean, so checked replies about them must fail.
    for row in range(len(prep.tables.lasts)):
        prep.tables.lasts[row] = 0
    prep.boot_key = (1, None)  # 0.0.0.1: outside the corpus's space
    outcome = run.run_workload("bulk-hot", prep, 3.0, driver.Tracer(False))
    assert outcome["ledger"].mismatched > 0
    assert outcome["metrics"]["failed_share"][0] > 0
