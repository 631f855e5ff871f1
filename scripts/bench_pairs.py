#!/usr/bin/env python3
"""Alternating parent/change runs of the serving benchmark, judged by
the rule a performance claim has to meet.

    scripts/bench_pairs.py --workload bulk-cold --pairs 10
    scripts/bench_pairs.py --workload bulk-hot --pairs 10 --parent HEAD --first-seed 20

The *change* is this checkout as it stands (tracked files with their
uncommitted edits, plus untracked files git does not ignore); the
*parent* is ``--parent`` (default ``HEAD~1``). Both are exported into
sibling directories of one temporary directory, removed on exit:
neither side runs where stale ``__pycache__`` or a shorter path could
favour it (the benchmark boots its servers from source, so a tree with
cached bytecode reads 0.3 MB lighter and boots faster), and nothing is
written into the repository or its ``.git``. Pair ``i`` runs
``BENCHMARK.json``'s ``command`` with seed ``first-seed + i`` on both
trees, one after the other on the one CPU the benchmark pins itself
to, parent first on even ``i``.

Per end-to-end metric (name, direction and bound read from
``BENCHMARK.json``) it prints each side's median and quartiles, the
pairs the change won (a tie counts for neither), and a verdict:

``gain``        the change won at least nine tenths of the pairs and the
                medians lie further apart than the parent's own
                quartiles do — what may be claimed (``ahead`` while
                fewer than ten pairs have run: not yet a claim);
``REGRESSION``  the change's median is worse than the parent's by more
                than the metric's bound;
``unresolved``  the parent's quartile distance is itself wider than the
                bound, and not every change run beats every parent run;
``level``       none of the above.

Under that table, the rows a run prints whose names ``BENCHMARK.json``
lists as ``per_layer`` (``point_p99_ms``, ``batch_p99_ms``,
``staleness_p50_ms``, ``server.packed_hit_rate``, …) are judged by the
same rule, with the widest end-to-end bound standing in for the bound
they do not have. A row that only some runs printed is named with the
count of runs it is missing from, and not judged. These rows are
reported, never gated.

Exit status: 1 when a run was invalid, incorrect or failed an
operation (the table is still printed over the runs that did finish);
else 2 when any end-to-end row reads ``REGRESSION``; else 0.

``--record FILE`` also writes what was printed — per metric, gated or
per-layer, the two sides' quartiles, the delta, pairs won and verdict,
and the per-layer rows some runs lacked; the seeds, the
parent commit, operations failed and each side's median host slowdown
— into FILE under the workload's name, so a PR commits one
``BENCH_<pr>.json`` and its prose points at it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]

SIDES = ("parent", "change")

#: Pairs below which nothing may be claimed (choosing-metrics, §8).
MIN_PAIRS = 10


def export_parent(rev: str, target: Path) -> str:
    """Unpack ``rev``'s committed files into ``target``; returns the
    commit's abbreviated hash."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.Popen(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
        stdout=subprocess.PIPE,
    )
    assert archive.stdout is not None
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(target, filter="data")
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return commit


def export_change(target: Path) -> None:
    """Copy the checkout as it stands into ``target``: every tracked
    or untracked-and-not-ignored file that exists."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        check=True, capture_output=True,
    ).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file may be deleted, unstaged
            copy = target / name
            copy.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, copy)


def layer_values(lines: List[str], names: List[str]) -> Dict[str, float]:
    """The printed ``name value unit`` rows among ``lines`` whose name
    is one of ``names``, by name."""
    wanted, values = set(names), {}
    for line in lines:
        fields = line.split()
        if len(fields) >= 2 and fields[0] in wanted:
            try:
                values[fields[0]] = float(fields[1])
            except ValueError:
                continue
    return values


def run_once(
    tree: Path,
    command: List[str],
    workload: str,
    seed: int,
    seconds: float,
    layers: List[str],
) -> Optional[Dict[str, Any]]:
    """One benchmark run in ``tree``: its result object (the last line
    it prints), with the printed rows named in ``layers`` under
    ``layers``, or ``None`` when the run was invalid."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict):
        return None
    # The result object carries the contract's metrics only; how slow
    # the host ran, and every per-layer number, is a row of the table
    # printed above it.
    result["seed"] = seed
    result["layers"] = layer_values(lines, layers)
    result["host_slowdown"] = result["layers"].get("host.slowdown")
    return result


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(
    parent: List[float], change: List[float], higher: bool, bound: float
) -> Tuple[int, float, str]:
    """``(pairs won, relative change of the median, verdict)`` for one
    metric over paired runs."""
    sign = 1.0 if higher else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = sign * (c_med - p_med)
    relative = (c_med - p_med) / p_med if p_med else 0.0
    spread = p_q3 - p_q1
    # Over a parent whose own spread exceeds the bound, a median past
    # it either way is noise unless every run of one side beats every
    # run of the other.
    noisy = bool(p_med) and spread / abs(p_med) > bound
    every_run_better = (
        min(change) > max(parent) if higher else max(change) < min(parent)
    )
    every_run_worse = (
        max(change) < min(parent) if higher else min(change) > max(parent)
    )
    if p_med and -gain / abs(p_med) > bound and (every_run_worse or not noisy):
        verdict = "REGRESSION"
    elif won >= 0.9 * len(parent) and gain > spread:
        verdict = "gain" if len(parent) >= MIN_PAIRS else "ahead"
    elif noisy and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "level"
    return won, relative, verdict


def _row(
    name: str, better: str, bound: float, series: Dict[str, List[float]]
) -> Dict[str, Any]:
    """One judged row: each side's ``[q1, median, q3]``, the relative
    change of the median, the pairs the change won, the verdict, and
    the runs' values in pair order."""
    won, relative, verdict = judge(
        series["parent"], series["change"], better == "higher", bound
    )
    return {
        "metric": name, "better": better, "bound": bound,
        **{side: list(quartiles(series[side])) for side in SIDES},
        "delta": relative, "won": won, "verdict": verdict,
        "runs": series,
    }


def summarise(
    contract: Dict[str, Any], runs: Dict[str, List[Dict[str, Any]]]
) -> List[Dict[str, Any]]:
    """One row per end-to-end metric over the whole pairs."""
    return [
        _row(row["name"], row["better"], float(row["bound"]), {
            side: [float(run["metrics"][row["name"]]["value"])
                   for run in runs[side]]
            for side in SIDES
        })
        for row in contract["end_to_end"]
    ]


def summarise_layers(
    contract: Dict[str, Any], runs: Dict[str, List[Dict[str, Any]]]
) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
    """One row per ``per_layer`` metric every run printed, judged with
    the widest end-to-end bound; and, by name, how many runs lack a
    row that others printed."""
    bound = max(float(row["bound"]) for row in contract["end_to_end"])
    every = [run for side in SIDES for run in runs[side]]
    rows, missing = [], {}
    for row in contract["per_layer"]:
        name = row["name"]
        lacking = sum(name not in run["layers"] for run in every)
        if lacking == len(every):
            continue
        if lacking:
            missing[name] = lacking
            continue
        rows.append(_row(name, row["better"], bound, {
            side: [run["layers"][name] for run in runs[side]]
            for side in SIDES
        }))
    return rows, missing


def side_notes(
    runs: Dict[str, List[Dict[str, Any]]]
) -> Dict[str, Dict[str, Any]]:
    """Per side, beside the metrics: operations failed and attempted,
    and the median of the runs' ``host.slowdown`` — how slow the host
    ran while that side was measured, which the metrics are corrected
    for (``None`` when a run did not print it)."""
    notes = {}
    for side in SIDES:
        slowdowns = [run["host_slowdown"] for run in runs[side]]
        notes[side] = {
            "failed": sum(run["failed"] for run in runs[side]),
            "attempted": sum(run["attempted"] for run in runs[side]),
            "host_slowdown": (
                None if None in slowdowns else statistics.median(slowdowns)
            ),
        }
    return notes


def _print_rows(rows: List[Dict[str, Any]], pairs: int) -> None:
    for row in rows:
        cells = [
            f"{median:.6g} [{q1:.6g}, {q3:.6g}]"
            for q1, median, q3 in (row[side] for side in SIDES)
        ]
        print(
            f"{row['metric']:22s} {row['better']:6s} {row['bound']:>5.0%}  "
            f"{cells[0]:>34s}  {cells[1]:>34s}  {row['delta']:>+7.1%}  "
            f"{row['won']:>2d}/{pairs:<2d}  {row['verdict']}"
        )


def report(
    rows: List[Dict[str, Any]],
    notes: Dict[str, Dict[str, float]],
    pairs: int,
    layers: Tuple[List[Dict[str, Any]], Dict[str, int]] = ([], {}),
) -> None:
    print(
        f"{'metric':22s} {'better':6s} {'bound':>5s}  "
        f"{'parent median [q1, q3]':>34s}  {'change median [q1, q3]':>34s}  "
        f"{'delta':>7s}  {'won':>5s}  verdict"
    )
    _print_rows(rows, pairs)
    layer_rows, missing = layers
    if layer_rows or missing:
        print("per-layer rows (reported, not gated):")
        _print_rows(layer_rows, pairs)
        for name, lacking in missing.items():
            print(f"{name:22s} missing from {lacking} of {2 * pairs} runs")
    if pairs < MIN_PAIRS:
        print(f"{pairs} pairs: a claim needs at least {MIN_PAIRS}")
    for side, note in notes.items():
        slowdown = note["host_slowdown"]
        print(
            f"{side}: failed {note['failed']} of {note['attempted']} "
            "operations; host slowdown (median) "
            + ("not printed" if slowdown is None else f"{slowdown:.2f}x")
        )


def record(path: Path, workload: str, entry: Dict[str, Any]) -> None:
    """Put ``entry`` under ``workload`` in the JSON record at ``path``,
    keeping what other workloads' rounds wrote there."""
    book = json.loads(path.read_text()) if path.exists() else {}
    book.setdefault("workloads", {})[workload] = entry
    path.write_text(
        json.dumps(book, separators=(",", ":"), sort_keys=True) + "\n"
    )


def exit_status(rows: List[Dict[str, Any]], clean: bool) -> int:
    """1 for an invalid or incorrect run, 2 for a regression, else 0."""
    if not clean:
        return 1
    return 2 if any(row["verdict"] == "REGRESSION" for row in rows) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
    )
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument(
        "--workload", required=True,
        choices=[row["name"] for row in contract["workloads"]],
    )
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--parent", default="HEAD~1", metavar="REV")
    parser.add_argument("--first-seed", type=int, default=0, metavar="S")
    parser.add_argument(
        "--record", type=Path, metavar="FILE",
        help="also write the table (medians, quartiles, pairs won, "
        "seeds, host slowdown) under this workload's name in FILE, "
        "a JSON record other workloads' rounds add to",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    command = list(contract["command"])
    seconds = float(contract["run_seconds"])
    layer_names = [row["name"] for row in contract["per_layer"]]
    runs: Dict[str, List[Dict[str, Any]]] = {side: [] for side in SIDES}
    clean = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {side: Path(scratch, side) for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        commit = export_parent(args.parent, trees["parent"])
        export_change(trees["change"])
        print(
            f"{args.workload}: {args.pairs} pairs, seeds "
            f"{args.first_seed}..{args.first_seed + args.pairs - 1}, "
            f"{seconds:g} s a run; parent = {commit}, "
            f"change = {ROOT} as it stands"
        )
        for at in range(args.pairs):
            seed = args.first_seed + at
            order = SIDES if at % 2 == 0 else SIDES[::-1]
            pair: Dict[str, Dict[str, Any]] = {}
            for side in order:
                result = run_once(
                    trees[side], command, args.workload, seed, seconds,
                    layer_names,
                )
                if result is None:
                    print(f"seed {seed} {side}: INVALID RUN")
                    clean = False
                    continue
                if not result["correct"] or result["failed"]:
                    clean = False
                pair[side] = result
                values = "  ".join(
                    f"{row['name']}={result['metrics'][row['name']]['value']:.6g}"
                    for row in contract["end_to_end"]
                )
                print(
                    f"seed {seed} {side:6s} correct={result['correct']} "
                    f"failed={result['failed']}  {values}",
                    flush=True,
                )
            if len(pair) == len(SIDES):  # only whole pairs are compared
                for side in SIDES:
                    runs[side].append(pair[side])
    pairs = len(runs["parent"])
    if not pairs:
        print("(no complete pair)")
        return 1
    rows, notes = summarise(contract, runs), side_notes(runs)
    layers = summarise_layers(contract, runs)
    report(rows, notes, pairs, layers)
    if args.record:
        record(args.record, args.workload, {
            "parent_commit": commit,
            "seeds": [run["seed"] for run in runs["parent"]],
            "run_seconds": seconds,
            "pairs": pairs,
            "clean": clean,
            "metrics": rows,
            "layers": layers[0],
            "layers_missing": layers[1],
            "sides": notes,
        })
        print(f"record -> {args.record}")
    return exit_status(rows, clean)


if __name__ == "__main__":
    sys.exit(main())
