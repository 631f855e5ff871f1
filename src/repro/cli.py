"""Command-line entry point: ``repro-blocklist-reuse`` / ``python -m repro``.

Subcommands:

* ``run``      — full reproduction; prints the headline table and
  optionally writes the greylist and crawl/Atlas logs.
* ``figures``  — regenerate every figure/table artefact into a
  directory (what the benchmark suite does, without pytest).
* ``survey``   — print Table 1 and Figure 9.
* ``catalog``  — print Table 2 (the 151-blocklist catalog).
* ``cache``    — inspect or empty the persistent run cache.
* ``serve``    — compile a run into a reputation index and answer
  online queries over TCP; with ``--follow`` the server tails an
  update log and hot-swaps index epochs with zero downtime.
* ``cluster``  — the same service sharded: N worker processes each
  holding one slice of the index behind a scatter-gather router that
  speaks the identical wire protocol (``--replicas`` adds failover
  backends per shard; ``--follow`` has every shard tail the shared
  update log independently).
* ``query``    — ask a running server (or cluster router — the
  protocol is the same) for per-address verdicts.
* ``load``     — replay a named, seeded traffic mix against a running
  server or cluster (open-loop pacing, pipelined batches) and report
  the measured SLO (p50/p99 latency, error ledger) as text or JSON.
* ``stream``   — emit a run's listing churn as an append-only update
  log (whole-window, or paced with ``--replay-days``).
* ``scenarios`` — the adversary lab: list the registered evasive-abuse
  models, or run them end to end (events → feeds → index → verdicts →
  effectiveness scores), writing versioned JSON artefacts plus each
  scenario's churn log and verifying that a live log follower scores
  field-for-field identically to the static index.
* ``lint``     — run ``reprolint``, the AST-based invariant linter
  (determinism in simulation paths, bounded wire reads, no silent
  ``except``, nothing blocking on the reactor); with no flags it is
  the gate ``scripts/check.sh`` runs.

Failures exit non-zero with one ``error:`` line on stderr — a bad
preset, port, snapshot or an unreachable server never escapes as a
traceback.
"""

from __future__ import annotations

import argparse
import inspect
import json
import signal
import sys
from pathlib import Path
from typing import List, Optional

from .blocklists.catalog import catalog_by_maintainer
from .service import (
    ReputationClient,
    ReputationIndex,
    ServiceError,
    ServingNode,
    SnapshotError,
)
from .loadgen.mixes import mix_names
from .service.server import DEFAULT_CONNECTION_TIMEOUT
from .stream import UpdateLogError

__all__ = ["main"]

#: Default TCP port of the reputation service (unassigned range).
DEFAULT_SERVICE_PORT = 7339


class CliError(Exception):
    """A user-facing failure: printed as one line, exits non-zero."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-blocklist-reuse",
        description=(
            "Reproduction of 'Quantifying the Impact of Blocklisting in "
            "the Age of Address Reuse' (IMC 2020)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags several subcommands take are said once, on a parent parser
    # each of those subcommands inherits.
    def shared() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False)

    preset = shared()
    preset.add_argument(
        "--preset",
        choices=("small", "default", "large"),
        default="small",
        help=(
            "scenario scale of the run (small: ~1 s; default: ~15 s; "
            "large: ~1 min), loaded via the run cache; a client's must "
            "match what its server was built with"
        ),
    )
    seed = shared()
    seed.add_argument(
        "--seed", type=int, default=2020, help="scenario seed (default 2020)"
    )
    workers = shared()
    workers.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "shard the pipeline run (on a run-cache miss) across this "
            "many processes; 0 uses every core. Results are identical "
            "for any value."
        ),
    )
    endpoint = shared()
    endpoint.add_argument("--host", default="127.0.0.1")
    endpoint.add_argument(
        "--port",
        type=int,
        default=DEFAULT_SERVICE_PORT,
        help=(
            f"TCP port of the server or cluster router (default "
            f"{DEFAULT_SERVICE_PORT}; 0 = ephemeral when serving; "
            "shards always bind ephemeral ports)"
        ),
    )
    codec = shared()
    codec.add_argument(
        "--codec",
        choices=("auto", "json", "binary"),
        default="auto",
        help=(
            "wire framing: auto negotiates binary and falls back to "
            "JSON, json forces the legacy framing, binary fails the "
            "handshake loudly if the server cannot speak it"
        ),
    )
    index_source = shared()
    index_source.add_argument(
        "--snapshot",
        metavar="PATH",
        help=(
            "index snapshot: loaded when the file exists, otherwise "
            "written after the index is built"
        ),
    )
    index_source.add_argument(
        "--follow",
        metavar="LOG",
        help=(
            "tail this update log (see 'repro stream'): start from the "
            "log's start-day index state and hot-swap epochs as "
            "batches arrive; in a cluster every shard tails it "
            "independently, filtered to its range"
        ),
    )
    index_source.add_argument(
        "--conn-timeout",
        type=float,
        default=DEFAULT_CONNECTION_TIMEOUT,
        metavar="SECONDS",
        help=(
            "per-connection idle timeout before the server (router and "
            "every shard) hangs up "
            f"(default {DEFAULT_CONNECTION_TIMEOUT:g}s)"
        ),
    )

    run_p = sub.add_parser(
        "run",
        parents=[preset, seed, workers],
        help="run the full measurement study",
    )
    run_p.add_argument(
        "--greylist",
        metavar="PATH",
        help="write the reused-address greylist here",
    )
    run_p.add_argument(
        "--export-dir",
        metavar="DIR",
        help=(
            "write the full artefact bundle (greylist, AS/window "
            "reports, crawl + Atlas logs, serialized world) here"
        ),
    )

    sub.add_parser(
        "figures",
        parents=[preset, seed],
        help="regenerate every table/figure artefact",
    )
    sub.add_parser(
        "survey", parents=[seed], help="print Table 1 and Figure 9"
    )
    sub.add_parser("catalog", help="print Table 2")

    cache_p = sub.add_parser(
        "cache", help="inspect or empty the persistent run cache"
    )
    cache_p.add_argument(
        "action",
        choices=("stats", "clear"),
        help="stats: show entries/size/hit counters; clear: delete all",
    )

    sub.add_parser(
        "serve",
        parents=[preset, seed, workers, endpoint, index_source],
        help="serve reuse-aware blocklist verdicts over TCP",
    )

    cluster_p = sub.add_parser(
        "cluster",
        parents=[preset, seed, workers, endpoint, index_source],
        help="serve verdicts from a sharded cluster behind a router",
    )
    cluster_p.add_argument(
        "--shards",
        type=int,
        default=3,
        metavar="N",
        help="number of address-space partitions (default 3)",
    )
    cluster_p.add_argument(
        "--replicas",
        type=int,
        default=0,
        metavar="R",
        help="extra failover backends per shard (default 0)",
    )
    cluster_p.add_argument(
        "--auto-split",
        action="store_true",
        help=(
            "watch per-shard load and split a sustained hot range "
            "online (new half-range shards boot, traffic cuts over, "
            "no in-flight query fails)"
        ),
    )
    cluster_p.add_argument(
        "--split-factor",
        type=float,
        default=2.0,
        metavar="X",
        help=(
            "a shard is hot when it takes X times its fair share of "
            "a poll window's traffic (default 2.0)"
        ),
    )
    cluster_p.add_argument(
        "--split-sustain",
        type=int,
        default=3,
        metavar="N",
        help="consecutive hot windows before splitting (default 3)",
    )
    cluster_p.add_argument(
        "--split-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between load polls (default 1.0)",
    )
    cluster_p.add_argument(
        "--split-min-hits",
        type=int,
        default=100,
        metavar="N",
        help=(
            "ignore poll windows with fewer than N routed queries "
            "(default 100)"
        ),
    )
    cluster_p.add_argument(
        "--max-shards",
        type=int,
        default=64,
        metavar="N",
        help="stop auto-splitting at N shards (default 64)",
    )

    load_p = sub.add_parser(
        "load",
        parents=[preset, seed, workers, endpoint, codec],
        help=(
            "replay a deterministic traffic mix against a running "
            "server/cluster and report the SLO"
        ),
    )
    load_p.add_argument(
        "--mix",
        choices=mix_names(),
        default="steady",
        help="named query mix (default steady)",
    )
    load_p.add_argument(
        "--queries",
        type=int,
        default=20_000,
        metavar="N",
        help="total queries to offer (default 20000)",
    )
    load_p.add_argument(
        "--target-qps",
        type=float,
        default=5_000.0,
        metavar="QPS",
        help="open-loop offered rate (default 5000)",
    )
    load_p.add_argument(
        "--load-seed",
        type=int,
        default=0,
        metavar="N",
        help=(
            "traffic-schedule seed (same mix + population + seed "
            "replays the identical query stream; default 0)"
        ),
    )
    load_p.add_argument(
        "--conns",
        type=int,
        default=4,
        metavar="N",
        help="client connections driving the schedule (default 4)",
    )
    load_p.add_argument(
        "--window",
        type=int,
        default=16,
        metavar="N",
        help="pipelined batches in flight per connection (default 16)",
    )
    load_p.add_argument(
        "--churn-log",
        metavar="PATH",
        help=(
            "update log to append churn-storm day batches to (mixes "
            "with storms need the target cluster following this log)"
        ),
    )
    load_p.add_argument(
        "--churn-source",
        metavar="LOG",
        help=(
            "take the storm day batches from this pre-generated "
            "update log (e.g. an adversary scenario's churn log from "
            "'repro scenarios run') instead of deriving them from the "
            "preset run; requires --churn-log"
        ),
    )
    load_p.add_argument(
        "--out",
        metavar="PATH",
        help="also write the report as JSON here",
    )

    stream_p = sub.add_parser(
        "stream",
        parents=[preset, seed, workers],
        help="emit a run's listing churn as an update log",
    )
    stream_p.add_argument(
        "--out",
        metavar="PATH",
        required=True,
        help="update log to write (existing file is replaced)",
    )
    stream_p.add_argument(
        "--start-day",
        type=int,
        default=None,
        help=(
            "day the consumer's base index corresponds to (default: "
            "first collection-window day)"
        ),
    )
    stream_p.add_argument(
        "--replay-days",
        type=float,
        default=None,
        metavar="N",
        help=(
            "pace emission at N simulated days per second so a "
            "--follow server ingests live (default: whole stream at "
            "once)"
        ),
    )

    scen_p = sub.add_parser(
        "scenarios",
        help=(
            "adversary lab: run evasive-abuse scenarios and score "
            "blocklist effectiveness"
        ),
    )
    scen_sub = scen_p.add_subparsers(dest="scenarios_command", required=True)
    scen_sub.add_parser(
        "list", help="print the registered adversary scenarios"
    )
    scen_run_p = scen_sub.add_parser(
        "run",
        parents=[seed],
        help=(
            "build, score and verify scenarios; write JSON artefacts "
            "and churn logs"
        ),
    )
    scen_run_p.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help=(
            "scenario to run (repeatable; default: every registered "
            "scenario — see 'repro scenarios list')"
        ),
    )
    scen_run_p.add_argument(
        "--out",
        metavar="DIR",
        default="results/scenarios",
        help=(
            "directory for the per-scenario result JSON and churn "
            "logs (default results/scenarios)"
        ),
    )
    scen_run_p.add_argument(
        "--skip-fidelity",
        action="store_true",
        help=(
            "skip the stream fidelity check (it folds every churn "
            "log into the served epoch index; scoring output is "
            "unchanged)"
        ),
    )

    lint_p = sub.add_parser(
        "lint",
        help="run the AST-based invariant linter (reprolint)",
    )
    lint_p.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or trees to lint (default: the repo's src/repro)",
    )
    lint_p.add_argument(
        "--root",
        metavar="DIR",
        help=(
            "directory violation paths are reported relative to "
            "(default: the repo checkout root)"
        ),
    )
    lint_p.add_argument(
        "--explain",
        metavar="CODE",
        help=(
            "print one rule's full description, an example finding, "
            "and the waiver syntax, then exit"
        ),
    )

    query_p = sub.add_parser(
        "query",
        parents=[endpoint, codec],
        help="query a running reputation server",
    )
    query_p.add_argument(
        "ip", nargs="*", help="address(es) to look up (dotted quad)"
    )
    query_p.add_argument(
        "--day",
        type=int,
        default=None,
        help="day index to evaluate (default: last collection day)",
    )
    query_p.add_argument(
        "--json",
        action="store_true",
        help="print raw JSON verdicts instead of one-line summaries",
    )
    query_p.add_argument(
        "--stats",
        action="store_true",
        help="print server-side engine/index stats and exit",
    )
    query_p.add_argument(
        "--hello",
        action="store_true",
        help=(
            "print the server handshake (protocol/epoch; for a "
            "cluster router also the fleet min/max epoch) and exit"
        ),
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from .core.asreport import render_as_report
    from .core.greylist import build_greylist, render_greylist
    from .experiments.runner import preset_config, run_full

    try:
        run = run_full(
            preset_config(args.preset, args.seed),
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(run.report.render())
    print()
    print(render_as_report(run.analysis, top=5))
    stats = run.crawl.crawler.stats
    print()
    print(
        f"crawler: {stats.get_nodes_sent} get_nodes / {stats.pings_sent} "
        f"bt_pings, ping response rate "
        f"{stats.ping_response_rate():.1%}"
    )
    if args.greylist:
        entries = build_greylist(run.analysis)
        Path(args.greylist).write_text(
            render_greylist(entries), encoding="utf-8"
        )
        print(f"greylist: {len(entries)} addresses -> {args.greylist}")
    if args.export_dir:
        _export_bundle(run, Path(args.export_dir))
    return 0


def _export_bundle(run, out: Path) -> None:
    """Write the study's complete artefact bundle — the reproduction's
    counterpart of the address lists the paper publishes."""
    from .bittorrent.crawllog import write_jsonl as write_crawl
    from .core.asreport import render_as_report
    from .core.greylist import build_greylist, render_greylist
    from .core.windows import render_window_report
    from .internet.serialize import save_listings, save_truth
    from .ripe.connlog import write_jsonl as write_atlas

    out.mkdir(parents=True, exist_ok=True)
    entries = build_greylist(run.analysis)
    (out / "greylist.txt").write_text(
        render_greylist(entries), encoding="utf-8"
    )
    (out / "as_report.txt").write_text(
        render_as_report(run.analysis, top=10) + "\n", encoding="utf-8"
    )
    (out / "window_report.txt").write_text(
        render_window_report(run.analysis) + "\n", encoding="utf-8"
    )
    (out / "headline.txt").write_text(
        run.report.render() + "\n", encoding="utf-8"
    )
    write_crawl(run.crawl.merged_log(), out / "crawl_log.jsonl")
    write_atlas(run.scenario.atlas_log, out / "atlas_log.jsonl")
    save_truth(run.scenario.truth, out / "world.json")
    save_listings(run.scenario.listings, out / "listings.jsonl")
    print(f"artefact bundle -> {out} ({len(list(out.iterdir()))} files)")


def _cmd_figures(args: argparse.Namespace) -> int:
    # The benchmark modules are the single source of truth for figure
    # rendering; reuse their compute/render logic via pytest.
    import pytest

    bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
    if not bench_dir.exists():
        print(
            "benchmarks/ directory not found (installed without sources); "
            "run from a source checkout",
            file=sys.stderr,
        )
        return 2
    import os

    os.environ["REPRO_BENCH_PRESET"] = args.preset
    code = pytest.main(
        ["-q", "--benchmark-disable", str(bench_dir)]
    )
    # The bench conftest writes next to the benchmarks directory.
    print(f"artefacts in {bench_dir.parent / 'results'}")
    return int(code)


def _cmd_survey(args: argparse.Namespace) -> int:
    import random

    from .analysis.tables import render_table
    from .survey.analyze import figure9_usage, render_table1, summarize
    from .survey.generate import generate_responses

    responses = generate_responses(random.Random(args.seed))
    print(render_table1(summarize(responses)))
    print()
    rows = [
        (name, f"{pct:.0f}%") for name, pct in figure9_usage(responses)
    ]
    print(
        render_table(
            ["blocklist type", "% of reuse-affected operators"],
            rows,
            title="Figure 9",
        )
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .experiments import cache

    if args.action == "clear":
        directory = cache.cache_dir()
        if not directory.is_dir():
            print(f"cache dir {directory} does not exist — nothing to clear")
            return 0
        removed = cache.clear()
        if removed:
            print(f"removed {removed} cached run(s) from {directory}")
        else:
            print(f"cache at {directory} was already empty")
        return 0
    stats = cache.cache_stats()
    if not stats["exists"]:
        print(
            f"cache dir : {stats['dir']} (not created yet — no runs cached)"
        )
        return 0
    print(f"cache dir : {stats['dir']}")
    print(f"entries   : {stats['entries']}")
    print(f"size      : {stats['bytes'] / 1024:.1f} KiB")
    print(f"hits      : {stats['hits']}")
    print(f"misses    : {stats['misses']}")
    return 0


def _checked_port(port: int) -> int:
    if not 0 <= port <= 65535:
        raise CliError(f"port out of range 0-65535: {port}")
    return port


def _cached_preset_run(preset: str, seed: int, workers: int):
    """One full run for a preset, through the persistent run cache."""
    from .experiments import cache as results_cache
    from .experiments.runner import preset_config, run_full

    config = preset_config(preset, seed)
    was_cached = results_cache.has(config)
    run = results_cache.fetch(
        config, lambda: run_full(config, workers=workers)
    )
    source = "run cache" if was_cached else "fresh run (now cached)"
    print(f"run <- {source} [preset={preset} seed={seed}]")
    return run


def _build_service_index(args: argparse.Namespace) -> ReputationIndex:
    """The index ``repro serve`` binds: snapshot if present, else the
    run cache (computing and caching the run on a first start)."""
    snapshot = Path(args.snapshot) if args.snapshot else None
    if snapshot is not None and snapshot.exists():
        index = ReputationIndex.load(snapshot)
        print(f"index <- snapshot {snapshot}")
        return index
    run = _cached_preset_run(args.preset, args.seed, args.workers)
    index = ReputationIndex.from_run(run)
    if snapshot is not None:
        index.save(snapshot)
        print(f"snapshot -> {snapshot}")
    return index


def _serving_base(args: argparse.Namespace):
    """What ``serve`` and ``cluster`` serve, as ``(index, follow,
    start_day)``: the snapshot or cached-run index — or, behind
    ``--follow``, the full index rolled back to the log's start day
    and validated against the log header."""
    from .stream import UpdateLogReader, index_as_of

    if not args.follow:
        return _build_service_index(args), None, None
    if args.snapshot:
        raise CliError("--follow and --snapshot are mutually exclusive")
    log_path = Path(args.follow)
    header = UpdateLogReader(log_path).header
    start_day = header.get("start_day")
    if not isinstance(start_day, int):
        raise CliError(f"update log {log_path} has no start day")
    run = _cached_preset_run(args.preset, args.seed, args.workers)
    base = index_as_of(ReputationIndex.from_run(run), start_day)
    meta = header.get("meta", {})
    sizes = base.stats()
    for key in ("ips", "intervals"):
        expected = meta.get(key)
        if expected is not None and expected != sizes[key]:
            raise CliError(
                f"update log base state mismatch: log expects "
                f"{expected} {key} on day {start_day}, this run has "
                f"{sizes[key]} — wrong preset/seed?"
            )
    return base, log_path, start_day


def _echo(event) -> None:
    """``serve`` and ``cluster``'s one line per recorded event, the
    ``stats`` op's ``events`` as they happen: a follower's end to
    stderr (the server keeps answering, stale, and says why), the rest
    to stdout."""
    _at, kind, fields = event
    if kind == "epoch":
        line = (f"epoch {fields['number']} <- seq {fields['seq']} "
                f"day {fields['day']} (+{fields['deltas']} deltas)")
    elif kind == "follow-end":
        print(f"follower stopped: {fields['reason']} — still serving epoch "
              f"{fields['number']} (seq {fields['seq']})", file=sys.stderr)
        return
    elif kind == "split" and "new_shards" in fields:
        (left, right), (low, high) = fields["new_shards"], fields["ranges"]
        line = (f"auto-split: shard {fields['shard']} -> shards {left}+{right} "
                f"({low} | {high}), now {fields['shards']} shards")
    else:
        line = " ".join([kind, *(f"{k}={v}" for k, v in fields.items())])
    print(line, flush=True)


def _checked_conn_timeout(value: float) -> float:
    if not value > 0:
        raise CliError(f"--conn-timeout must be positive: {value}")
    return float(value)


def _cmd_serve(args: argparse.Namespace) -> int:
    port = _checked_port(args.port)
    conn_timeout = _checked_conn_timeout(args.conn_timeout)
    index, follow, start_day = _serving_base(args)
    node = ServingNode(
        index,
        args.host,
        port,
        follow=follow,
        start_day=start_day,
        echo=_echo,
        connection_timeout=conn_timeout,
    )
    host, bound_port = node.address
    sizes = index.stats()
    print(
        f"serving on {host}:{bound_port} — {sizes['ips']} addresses, "
        f"{sizes['intervals']} listing intervals, {sizes['lists']} "
        f"lists, {sizes['dynamic_prefixes']} dynamic "
        f"/{index.family.atom_bits}s"
        + (f", following {args.follow}" if follow else "")
    )
    node.stop_on_signals()
    node.serve_forever()
    print("shutting down")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .cluster import MAX_SHARDS, AutoSplitter, LocalCluster

    port = _checked_port(args.port)
    conn_timeout = _checked_conn_timeout(args.conn_timeout)
    if not 1 <= args.shards <= MAX_SHARDS:
        raise CliError(
            f"--shards must be in 1..{MAX_SHARDS}: {args.shards}"
        )
    if args.replicas < 0:
        raise CliError(f"--replicas must be >= 0: {args.replicas}")
    if args.auto_split and not args.shards < args.max_shards <= MAX_SHARDS:
        raise CliError(
            f"--max-shards must be in {args.shards + 1}.."
            f"{MAX_SHARDS}: {args.max_shards}"
        )
    index, follow, start_day = _serving_base(args)
    cluster = LocalCluster(
        index,
        shards=args.shards,
        replicas=args.replicas,
        follow=follow,
        start_day=start_day,
        host=args.host,
        router_port=port,
        connection_timeout=conn_timeout,
        echo=_echo,
    )
    splitter = None
    if args.auto_split:
        try:
            # Built before anything forks: it refuses a bad --split-*
            # value, and nothing is left to stop.
            splitter = AutoSplitter(
                cluster,
                interval=args.split_interval,
                factor=args.split_factor,
                sustain=args.split_sustain,
                min_hits=args.split_min_hits,
                max_shards=args.max_shards,
            )
        except ValueError as exc:
            raise CliError(f"--auto-split: {exc}") from None
    try:
        addresses = cluster.start_backends()
        for shard_id, shard_range in enumerate(cluster.partition.ranges):
            for replica, (host, bound) in enumerate(addresses[shard_id]):
                backend = cluster.backend(shard_id, replica)
                role = "primary" if replica == 0 else f"replica {replica}"
                print(
                    f"shard {shard_id} {role} pid={backend.pid} "
                    f"addr={host}:{bound} range={shard_range}"
                )
        router = cluster.build_router(addresses)
        host, bound_port = router.address
        sizes = index.stats()
        print(
            f"cluster serving on {host}:{bound_port} — {args.shards} "
            f"shards x {1 + args.replicas} backends, {sizes['ips']} "
            f"addresses, {sizes['intervals']} listing intervals"
            + (f", following {follow}" if follow else "")
            + (", auto-split on" if splitter is not None else "")
        )
        if splitter is not None:
            splitter.start()
        # SIGTERM and Ctrl-C both drain the router; the finally below
        # then stops every worker, split-born ones included.
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: router.request_shutdown())
        router.serve_forever()
        print("shutting down")
    finally:
        cluster.close()
    return 0


def _storm_batches(args: argparse.Namespace, run):
    """The day batches ``repro load``'s churn storms replay into
    ``--churn-log``, from that log's start day on: an adversary
    scenario's log (``--churn-source``), else the preset run's own
    churn."""
    from .stream import UpdateLogReader, day_advance_batches

    log_path = Path(args.churn_log)
    if not log_path.exists():
        raise CliError(f"--churn-log does not exist: {log_path}")
    start_day = UpdateLogReader(log_path).header.get("start_day", 0)
    if not args.churn_source:
        return day_advance_batches(
            run.analysis.observed, start_day=start_day
        )
    source_path = Path(args.churn_source)
    if not source_path.exists():
        raise CliError(f"--churn-source does not exist: {source_path}")
    source = UpdateLogReader(source_path)
    batches = source.poll()
    source_start = source.header.get("start_day", 0)
    if source_start != start_day:
        raise CliError(
            f"churn source starts at day {source_start} but target "
            f"log starts at day {start_day}; seq numbers would not "
            f"align"
        )
    return batches


def _cmd_load(args: argparse.Namespace) -> int:
    from .loadgen import (
        LoadHarness,
        TrafficGenerator,
        get_mix,
        population_from_analysis,
        population_from_hitlist,
        render_report,
        storm_hook,
    )
    from .net.family import V4, V6

    port = _checked_port(args.port)
    mix = get_mix(args.mix)
    if args.queries < 1:
        raise CliError(f"--queries must be >= 1: {args.queries}")
    if args.target_qps <= 0:
        raise CliError(
            f"--target-qps must be positive: {args.target_qps}"
        )
    if args.conns < 1:
        raise CliError(f"--conns must be >= 1: {args.conns}")
    if args.window < 1:
        raise CliError(f"--window must be >= 1: {args.window}")
    if args.churn_source and not args.churn_log:
        raise CliError("--churn-source requires --churn-log")
    if mix.family == "ipv6":
        # A v6 mix draws from the seeded hitlist-v6 survey instead of
        # a preset run: same seed, same de-aliased hitlist the server
        # side serves.
        from .adversary.models import HORIZON_DAYS
        from .v6serve import HitlistV6Model

        survey = HitlistV6Model().survey(args.seed)
        ips, days = population_from_hitlist(
            mix, survey.facts.hitlist, horizon_days=HORIZON_DAYS
        )
    else:
        run = _cached_preset_run(args.preset, args.seed, args.workers)
        ips, days = population_from_analysis(mix, run.analysis)
    generator = TrafficGenerator(mix, ips, days, seed=args.load_seed)
    events = generator.schedule(args.queries, args.target_qps)
    storm_times: list = []
    on_storm = None
    if mix.churn_storms:
        if args.churn_log:
            try:
                on_storm, pending = storm_hook(
                    _storm_batches(args, run), args.churn_log
                )
            except UpdateLogError as exc:
                raise CliError(str(exc)) from None
            storm_times = generator.storm_times(events[-1].at)
            if pending < len(storm_times):
                print(
                    f"note: log has only {pending} unwritten day "
                    f"batch(es) for {len(storm_times)} storms"
                )
        else:
            print(
                "note: mix schedules churn storms but --churn-log "
                "was not given; storms skipped"
            )
    print(
        f"load: mix={mix.name} — {args.queries} queries at "
        f"{args.target_qps:g} q/s over {args.conns} connection(s) "
        f"against {args.host}:{port}"
    )
    harness = LoadHarness(
        args.host,
        port,
        conns=args.conns,
        codec=args.codec,
        window=args.window,
        family=V6 if mix.family == "ipv6" else V4,
    )
    report = harness.run(
        events,
        mix=mix.name,
        seed=args.load_seed,
        target_qps=args.target_qps,
        storm_times=storm_times,
        on_storm=on_storm,
    )
    print(render_report(report))
    if args.out:
        Path(args.out).write_text(
            report.to_json() + "\n", encoding="utf-8"
        )
        print(f"report -> {args.out}")
    if report.ok == 0:
        raise CliError(
            f"no queries succeeded against {args.host}:{port} "
            f"({report.transport_errors} transport errors)"
        )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import time

    from .stream import UpdateLogWriter, day_advance_batches

    run = _cached_preset_run(args.preset, args.seed, args.workers)
    observed = run.analysis.observed
    windows = [list(w) for w in run.analysis.windows]
    start_day = (
        args.start_day
        if args.start_day is not None
        else int(windows[0][0])
    )
    base_listings = [l for l in observed if l.first_day <= start_day]
    out = Path(args.out)
    if out.exists():
        out.unlink()
    writer = UpdateLogWriter(
        out,
        start_day=start_day,
        meta={
            "preset": args.preset,
            "seed": args.seed,
            "windows": windows,
            "ips": len({l.ip for l in base_listings}),
            "intervals": len(base_listings),
        },
    )
    total_deltas = 0
    batches = 0
    pace = (
        1.0 / args.replay_days
        if args.replay_days and args.replay_days > 0
        else 0.0
    )
    for batch in day_advance_batches(observed, start_day=start_day):
        writer.append(batch)
        batches += 1
        total_deltas += len(batch.deltas)
        if pace:
            time.sleep(pace)
    print(
        f"update log -> {out}: {batches} day batches, "
        f"{total_deltas} deltas (start day {start_day})"
    )
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .adversary import (
        StreamFidelityError,
        adversary_names,
        get_adversary,
        render_score_table,
        score_scenario,
        verify_stream_fidelity,
        write_scenario_log,
    )
    from .analysis.tables import render_table

    if args.scenarios_command == "list":
        rows = [
            (name, get_adversary(name).description)
            for name in adversary_names()
        ]
        print(
            render_table(
                ["scenario", "strategy"],
                rows,
                title="Adversary lab: registered scenarios",
            )
        )
        return 0

    names = list(args.scenario or adversary_names())
    for name in names:
        if name not in adversary_names():
            known = ", ".join(adversary_names())
            raise CliError(
                f"unknown scenario {name!r} (known: {known})"
            )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for name in names:
        scenario = get_adversary(name).build(args.seed)
        score = score_scenario(scenario)
        stem = f"{name}-seed{args.seed}"
        log_path = write_scenario_log(score, out / f"{stem}.log")
        if args.skip_fidelity:
            fidelity = "skipped"
        else:
            try:
                info = verify_stream_fidelity(score, log_path)
            except StreamFidelityError as exc:
                raise CliError(f"stream fidelity [{name}]: {exc}") from None
            fidelity = (
                f"ok ({info['batches']} batches, "
                f"{info['verdicts_compared']} verdicts)"
            )
        result_path = out / f"{stem}.json"
        result_path.write_text(
            json.dumps(score.result, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        results.append(score.result)
        print(
            f"{name}: {len(scenario.events)} events, "
            f"{len(score.store)} listings -> {result_path} "
            f"(churn log {log_path}, stream fidelity {fidelity})"
        )
    print()
    print(render_score_table(results))
    return 0


def _lint_root(args: argparse.Namespace) -> Path:
    if args.root:
        root = Path(args.root)
        if not root.is_dir():
            raise CliError(f"--root is not a directory: {root}")
        return root
    # src/repro/cli.py -> the checkout root two levels above src/.
    return Path(__file__).resolve().parents[2]


def _cmd_lint(args: argparse.Namespace) -> int:
    from . import devtools

    if args.explain:
        try:
            lint_rule = devtools.get_rule(args.explain.upper())
        except KeyError:
            known = ", ".join(r.code for r in devtools.all_rules())
            raise CliError(
                f"no such rule: {args.explain} (known: {known})"
            ) from None
        print(f"{lint_rule.code} (scope: {lint_rule.scope})")
        print(f"summary: {lint_rule.summary}")
        print()
        print(inspect.cleandoc(lint_rule.check.__doc__ or ""))
        print()
        print("example finding:")
        print(f"  {lint_rule.example}")
        print()
        print(
            f"waive one line:  # reprolint: "
            f"disable={lint_rule.code} — <why>"
        )
        print(
            f"waive a file:    # reprolint: "
            f"disable-file={lint_rule.code} — <why> "
            f"(within the first {devtools.FILE_WAIVER_WINDOW} lines)"
        )
        return 0
    root = _lint_root(args)
    if args.paths:
        targets = [Path(p) for p in args.paths]
        for target in targets:
            if not target.exists():
                raise CliError(f"no such path: {target}")
    else:
        targets = [root / "src" / "repro"]
        if not targets[0].is_dir():
            raise CliError(
                f"default lint target {targets[0]} not found (installed "
                f"without sources?) — pass explicit paths"
            )
    report = devtools.lint_report(targets, root)
    timings = report.timings
    print(
        f"lint timings: parse={timings['parse']:.2f}s "
        f"module_rules={timings['module_rules']:.2f}s "
        f"flow={timings['flow']:.2f}s total={timings['total']:.2f}s",
        file=sys.stderr,
    )
    if report.violations:
        print(devtools.render_text(report.violations))
        return 1
    print("lint: clean")
    return 0


def _render_verdict(verdict: dict) -> str:
    lists = ",".join(verdict["lists"]) or "-"
    return (
        f"{verdict['ip']} day={verdict['day']} "
        f"listed={'yes' if verdict['listed'] else 'no'} "
        f"lists={lists} kind={verdict['reuse_kind'] or '-'} "
        f"users={verdict['users']} asn={verdict['asn']} "
        f"unjust={'yes' if verdict['unjust'] else 'no'} "
        f"action={verdict['action']}"
    )


def _cmd_query(args: argparse.Namespace) -> int:
    port = _checked_port(args.port)
    if not args.stats and not args.hello and not args.ip:
        raise CliError(
            "no addresses given (and --stats/--hello not requested)"
        )
    with ReputationClient(args.host, port, codec=args.codec) as client:
        if args.hello:
            print(json.dumps(client.hello(), indent=2, sort_keys=True))
            return 0
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if len(args.ip) == 1:
            verdicts = [client.query(args.ip[0], args.day)]
        else:
            verdicts = client.query_batch(
                (ip, args.day) for ip in args.ip
            )
    for verdict in verdicts:
        if args.json:
            # ``dict``: a binary batch answers in record views.
            print(json.dumps(dict(verdict), sort_keys=True))
        elif "error" in verdict:
            # A cluster router degrades per-IP when a shard is down
            # instead of failing the whole batch.
            shard = verdict.get("shard")
            where = f" shard={shard}" if shard is not None else ""
            print(f"{verdict['ip']} error={verdict['error']}{where}")
        else:
            print(_render_verdict(verdict))
    return 0


def _cmd_catalog(_: argparse.Namespace) -> int:
    from .analysis.tables import render_table

    grouped = catalog_by_maintainer()
    rows = sorted(
        ((name, len(lists)) for name, lists in grouped.items()),
        key=lambda kv: (-kv[1], kv[0]),
    )
    total = sum(count for _, count in rows)
    print(
        render_table(
            ["maintainer", "# of blocklists"],
            rows + [("Total", total)],
            title="Table 2: monitored blocklists",
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "figures": _cmd_figures,
        "survey": _cmd_survey,
        "catalog": _cmd_catalog,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "cluster": _cmd_cluster,
        "query": _cmd_query,
        "load": _cmd_load,
        "stream": _cmd_stream,
        "scenarios": _cmd_scenarios,
        "lint": _cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into head/less that exited early — not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (
        CliError,
        ServiceError,
        SnapshotError,
        UpdateLogError,
        ValueError,
    ) as exc:
        # User-facing failures (bad preset/port/address, unreadable
        # snapshot or update log, unreachable server): one line, exit
        # code 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Bind failures, refused connections, unwritable paths.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
