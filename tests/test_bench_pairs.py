"""``scripts/bench_pairs.py``: the verdict it prints is the rule a
performance claim has to meet, so the rule is pinned here on series
small enough to check by hand."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


class TestJudge:
    def test_nine_of_ten_and_beyond_the_parents_quartiles_is_a_gain(
        self, bench_pairs
    ):
        change = [value + 10 for value in PARENT]
        change[3] = PARENT[3] - 1  # one lost pair is allowed
        won, relative, verdict = bench_pairs.judge(
            PARENT, change, True, 0.25
        )
        assert (won, verdict) == (9, "gain")
        assert relative == pytest.approx(0.10, abs=0.01)

    def test_fewer_than_ten_pairs_is_not_yet_a_claim(self, bench_pairs):
        change = [value + 10 for value in PARENT[:9]]
        won, _, verdict = bench_pairs.judge(PARENT[:9], change, True, 0.25)
        assert (won, verdict) == (9, "ahead")

    def test_eight_of_ten_is_not(self, bench_pairs):
        change = [value + 10 for value in PARENT]
        change[3] = change[4] = 90.0
        assert bench_pairs.judge(PARENT, change, True, 0.25)[2] == "level"

    def test_inside_the_parents_own_spread_is_not(self, bench_pairs):
        change = [value + 0.5 for value in PARENT]  # wins 10/10, by noise
        won, _, verdict = bench_pairs.judge(PARENT, change, True, 0.25)
        assert (won, verdict) == (10, "level")

    def test_a_tie_counts_for_neither(self, bench_pairs):
        assert bench_pairs.judge(PARENT, list(PARENT), True, 0.25)[0] == 0
        assert bench_pairs.judge(PARENT, list(PARENT), False, 0.25)[0] == 0

    def test_lower_is_better_flips_the_sign(self, bench_pairs):
        change = [value - 10 for value in PARENT]
        assert bench_pairs.judge(PARENT, change, False, 0.25)[2] == "gain"
        assert bench_pairs.judge(PARENT, change, True, 0.05)[2] == (
            "REGRESSION"
        )

    def test_bound_is_read_against_the_parents_median(self, bench_pairs):
        worse = [value * 1.2 for value in PARENT]
        assert bench_pairs.judge(PARENT, worse, False, 0.25)[2] == "level"
        assert bench_pairs.judge(PARENT, worse, False, 0.15)[2] == (
            "REGRESSION"
        )

    def test_spread_wider_than_the_bound_is_unresolved(self, bench_pairs):
        noisy = [60.0, 140.0] * 5
        assert bench_pairs.judge(noisy, noisy[::-1], True, 0.25)[2] == (
            "unresolved"
        )

    def test_a_worse_median_over_a_noisy_parent_is_unresolved(
        self, bench_pairs
    ):
        """Only a change whose every run is worse than every run of a
        parent that noisy reads ``REGRESSION``."""
        noisy = [60.0, 140.0] * 5
        worse = [value * 1.4 for value in noisy]  # median +40 %, overlapping
        assert bench_pairs.judge(noisy, worse, False, 0.25)[2] == "unresolved"
        apart = [value + 100.0 for value in noisy]  # every run above 140
        assert bench_pairs.judge(noisy, apart, False, 0.25)[2] == "REGRESSION"


def test_reads_the_contract_and_refuses_an_unknown_workload(
    bench_pairs, capsys
):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--workload", "no-such", "--pairs", "1"])
    assert "bulk-cold" in capsys.readouterr().err


def test_exit_status_tells_a_regression_from_a_bad_run(bench_pairs):
    rows = [{"metric": "setup_s", "verdict": "level"},
            {"metric": "throughput_qps", "verdict": "gain"}]
    assert bench_pairs.exit_status(rows, True) == 0
    rows[0]["verdict"] = "REGRESSION"
    assert bench_pairs.exit_status(rows, True) == 2
    assert bench_pairs.exit_status(rows, False) == 1


def _runs(contract, scale, slowdown):
    """Ten runs whose every end-to-end metric reads ``PARENT * scale``."""
    return [
        {
            "seed": 20 + at, "failed": 0, "attempted": 1000,
            "host_slowdown": slowdown,
            "metrics": {
                row["name"]: {"value": value * scale, "unit": row["unit"]}
                for row in contract["end_to_end"]
            },
        }
        for at, value in enumerate(PARENT)
    ]


def test_record_holds_what_the_table_prints(bench_pairs, tmp_path, capsys):
    contract = json.loads(
        (SCRIPT.parents[1] / "BENCHMARK.json").read_text()
    )
    runs = {
        "parent": _runs(contract, 1.0, 1.25),
        "change": _runs(contract, 2.0, 1.5),
    }
    rows, notes = bench_pairs.summarise(contract, runs), (
        bench_pairs.side_notes(runs)
    )
    bench_pairs.report(rows, notes, 10)
    table = capsys.readouterr().out
    by_name = {row["metric"]: row for row in rows}
    throughput = by_name["throughput_qps"]
    assert throughput["parent"] == [99.25, 100.0, 101.0]
    assert throughput["change"] == [198.5, 200.0, 202.0]
    assert (throughput["won"], throughput["verdict"]) == (10, "gain")
    assert throughput["delta"] == pytest.approx(1.0)
    assert throughput["runs"]["parent"] == PARENT
    assert by_name["setup_s"]["verdict"] == "REGRESSION"  # lower is better
    assert "throughput_qps" in table and "+100.0%" in table
    assert "parent: failed 0 of 10000 operations" in table
    assert "host slowdown (median) 1.25x" in table
    assert notes["change"]["host_slowdown"] == 1.5
    # A run that printed no slowdown row leaves the side's unknown.
    runs["change"][3]["host_slowdown"] = None
    assert bench_pairs.side_notes(runs)["change"]["host_slowdown"] is None

    book = tmp_path / "BENCH.json"
    bench_pairs.record(book, "bulk-hot", {"metrics": rows, "sides": notes})
    bench_pairs.record(book, "bulk-cold", {"pairs": 2})
    bench_pairs.record(book, "bulk-hot", {"metrics": rows, "pairs": 10})
    text = book.read_text()
    assert text.count("\n") == 1 and ", " not in text  # compact, unindented
    written = json.loads(text)["workloads"]
    assert written["bulk-cold"] == {"pairs": 2}
    assert written["bulk-hot"]["pairs"] == 10
    assert written["bulk-hot"]["metrics"] == json.loads(json.dumps(rows))


#: The tail of a run's output: its metric table, then its result line.
_PRINTED = """-- churn-follow seed=3 seconds=15 trace=0 samples={'windows': 5}
throughput_qps                                 514291 1/s
host.slowdown                                 1.98314 x
point_p99_ms                                  18.9684 ms
server.packed_hit_rate                       0.870369 share
staleness_p50_ms                              118.459 ms
boot.load_s                                0.00752596 s
calibration ok=True ledger=Ledger(sent=1, ok=1)
{"correct": true}""".splitlines()


def test_per_layer_rows_are_parsed_by_the_contracts_names(bench_pairs):
    contract = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text())
    names = [row["name"] for row in contract["per_layer"]]
    assert bench_pairs.layer_values(_PRINTED, names) == {
        "host.slowdown": 1.98314,
        "point_p99_ms": 18.9684,
        "server.packed_hit_rate": 0.870369,
        "staleness_p50_ms": 118.459,
    }


def test_per_layer_rows_are_judged_and_a_missing_one_is_named(
    bench_pairs, capsys
):
    contract = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text())
    runs = {"parent": _runs(contract, 1.0, 1.0), "change": _runs(contract, 1.0, 1.0)}
    for side, scale in (("parent", 1.0), ("change", 0.5)):
        for run, value in zip(runs[side], PARENT):
            run["layers"] = {"point_p99_ms": value * scale,
                             "staleness_p50_ms": value}
    del runs["change"][4]["layers"]["staleness_p50_ms"]
    rows, missing = bench_pairs.summarise_layers(contract, runs)
    assert [row["metric"] for row in rows] == ["point_p99_ms"]
    assert (rows[0]["won"], rows[0]["verdict"]) == (10, "gain")
    assert rows[0]["bound"] == max(r["bound"] for r in contract["end_to_end"])
    assert missing == {"staleness_p50_ms": 1}
    end_to_end = bench_pairs.summarise(contract, runs)
    bench_pairs.report(end_to_end, bench_pairs.side_notes(runs), 10,
                       (rows, missing))
    table = capsys.readouterr().out.splitlines()
    gated = table.index("per-layer rows (reported, not gated):")
    assert table[gated - 1].startswith(contract["end_to_end"][-1]["name"])
    assert table[gated + 1].startswith("point_p99_ms") and "gain" in table[gated + 1]
    assert table[gated + 2].split() == [
        "staleness_p50_ms", "missing", "from", "1", "of", "20", "runs"]
    # Only the gated rows decide the exit status.
    rows[0]["verdict"] = "REGRESSION"
    assert bench_pairs.exit_status(end_to_end, True) == 0
