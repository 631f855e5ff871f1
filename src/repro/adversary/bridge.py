"""Scenario churn → stream update log, with a fidelity check.

A scored scenario is a static answer; production serves verdicts from
a *live* index that tails an update log
(:mod:`repro.stream`). This bridge closes that gap:

* :func:`write_scenario_log` replays the scenario's listing churn as
  day-advance delta batches into a real append-only update log — the
  same artefact ``repro serve --follow`` or a cluster tails, so an
  adversary scenario can drive a live SLO run
  (``repro load --churn-source``);
* :func:`verify_stream_fidelity` is the acceptance check: read the
  finished log with an :class:`~repro.stream.log.UpdateLogReader`,
  apply every batch to an :class:`~repro.stream.epoch.EpochIndex` on
  the day-0 rollback of the scenario index (what a follower does, on
  the calling thread), score the scenario through it, and demand
  field-for-field verdict equality (and equal score documents)
  against the static path. If the streaming plane and the offline
  index ever disagree about a single verdict field, the adversary
  lab's numbers would not describe production — so a mismatch, an
  unreadable log, a batch the index refuses or a log that stops
  short raises.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List

from ..service.engine import QueryEngine
from ..stream.delta import DeltaBatch, day_advance_batches
from ..stream.epoch import EpochIndex, index_as_of
from ..stream.log import UpdateLogError, UpdateLogReader, UpdateLogWriter
from .models import AbuseScenario
from .scoring import ScenarioScore, score_with_engine, verdict_fields

__all__ = [
    "StreamFidelityError",
    "scenario_batches",
    "verify_stream_fidelity",
    "write_scenario_log",
]

#: Scenario logs replay from the world's first day: the follower's
#: base state holds only listings already open on day 0.
LOG_START_DAY = 0


class StreamFidelityError(AssertionError):
    """The streaming scoring path disagreed with the static path."""


def scenario_batches(score: ScenarioScore) -> List[DeltaBatch]:
    """The scenario's churn as ordered day-advance delta batches."""
    return list(
        day_advance_batches(score.store, start_day=LOG_START_DAY)
    )


def write_scenario_log(score: ScenarioScore, path: "Path | str") -> Path:
    """Write the scenario's churn as an update log (replacing any
    existing file — a scenario log is a derived artefact)."""
    target = Path(path)
    if target.exists():
        target.unlink()
    scenario = score.scenario
    base = [
        listing
        for listing in score.store
        if listing.first_day <= LOG_START_DAY
    ]
    meta = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "horizon_days": scenario.horizon_days,
        "windows": [list(window) for window in scenario.windows],
        "ips": len({listing.ip for listing in base}),
        "intervals": len(base),
    }
    if scenario.family != "ipv4":
        # The family key widens the reader's delta-ip validation;
        # leaving it off v4 logs keeps them byte-identical.
        meta["family"] = scenario.family
    writer = UpdateLogWriter(target, start_day=LOG_START_DAY, meta=meta)
    for batch in scenario_batches(score):
        writer.append(batch)
    return target


def _streamed_engine(
    score: ScenarioScore, log_path: "Path | str", last_seq: int
) -> QueryEngine:
    """An engine over the epoch state the whole scenario log folds to."""
    base = index_as_of(score.index, LOG_START_DAY)
    epochs = EpochIndex(base, day=LOG_START_DAY)
    try:
        batches = UpdateLogReader(log_path).poll()
    except UpdateLogError as exc:
        raise StreamFidelityError(
            f"unreadable log {log_path}: {exc}"
        ) from None
    try:
        for batch in batches:
            epochs.apply(batch)
    except ValueError as exc:
        raise StreamFidelityError(
            f"batch refused from {log_path}: {exc}"
        ) from None
    reached = epochs.current.seq
    if reached < last_seq:
        raise StreamFidelityError(
            f"log {log_path} ends at seq {reached}, short of {last_seq}"
        )
    return QueryEngine(epochs)


def verify_stream_fidelity(
    score: ScenarioScore,
    log_path: "Path | str",
) -> Dict[str, Any]:
    """Score through the log's epochs and compare to the static path.

    Returns a small summary (batches applied, verdicts compared) on
    success; raises :class:`StreamFidelityError` naming the first
    divergent verdict, or why the log could not be folded, otherwise."""
    batches = scenario_batches(score)
    last_seq = batches[-1].seq if batches else 0
    engine = _streamed_engine(score, log_path, last_seq)
    streamed_verdicts, streamed_result = score_with_engine(
        score.scenario, engine
    )
    for key in sorted(score.verdicts):
        static_row = verdict_fields(score.verdicts[key])
        streamed_row = verdict_fields(streamed_verdicts[key])
        if static_row != streamed_row:
            raise StreamFidelityError(
                f"verdict mismatch for ip={key[0]} day={key[1]}: "
                f"static {static_row} != streamed {streamed_row}"
            )
    static_result = {
        k: v for k, v in score.result.items() if k != "counts"
    }
    streamed_cmp = {
        k: v for k, v in streamed_result.items() if k != "counts"
    }
    if static_result != streamed_cmp:
        raise StreamFidelityError(
            "score documents diverge despite identical verdicts — "
            "scoring is not a pure function of the verdicts"
        )
    return {
        "batches": last_seq,
        "verdicts_compared": len(score.verdicts),
        "epoch": engine.epochs.current.number,
    }
