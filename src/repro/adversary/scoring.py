"""Blocklist-effectiveness scoring over a ground-truth ledger.

A scenario's events run through the *production* observation path —
:func:`repro.blocklists.feed.generate_listings` with the full
151-list catalog — and the resulting listings are compiled into a real
:class:`~repro.service.index.ReputationIndex` whose reuse facts (NAT
gateways, dynamic pools) come from the scenario ledger. Scoring then
asks a :class:`~repro.service.engine.QueryEngine` for the verdicts of
every ip-day the ledger knows about, in one batch through the served
record loop, and confronts the verdicts with the answer key, in the
style of Deri & Fusco's "Evaluating IP Blacklists Effectiveness":

* **detection rate** — truly-malicious ip-days some list covered;
* **false-positive rate** — innocent-only ip-days a list covered
  (stale listings inherited through address reuse);
* **unjust blocking** — innocent *user-days* dropped by a policy,
  compared between the naive block-every-listing policy and the
  paper's Section 6 reuse-aware policy (greylist reused addresses
  unless a DDoS list is involved);
* **time-to-detection / time-to-evasion** — per attacker-tenure
  (:class:`~repro.adversary.models.AbuseStint`): days from the first
  abusive day on an address until any list covers it, and days the
  attacker kept using an address after it was first listed (a fast
  rotator's evasion latency is ~0 — it is gone before the listing
  lands).

The result is a versioned JSON-ready document; :func:`render_score_
table` renders the cross-scenario comparison the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..blocklists.catalog import BlocklistInfo, build_catalog
from ..blocklists.timeline import ListingStore
from ..core.greylist import BlockAction
from ..net.family import family_named
from ..service.engine import QueryEngine, Verdict
from ..service.index import ReputationIndex, policy_category
from .models import AbuseScenario, IpDay, scenario_rng

__all__ = [
    "RESULT_FORMAT",
    "RESULT_VERSION",
    "ScenarioScore",
    "VERDICT_FIELDS",
    "render_score_table",
    "scenario_index",
    "scenario_listings",
    "score_scenario",
    "score_with_engine",
    "verdict_fields",
]

RESULT_FORMAT = "repro-adversary-result"
RESULT_VERSION = 1

#: Verdict fields two scoring paths must agree on field-for-field.
#: ``epoch``/``seq`` are deliberately absent: they identify *which*
#: index state answered, not *what* it answered.
VERDICT_FIELDS = (
    "ip", "day", "listed", "lists", "nated", "dynamic", "unjust",
    "reuse_kind", "users", "asn", "action",
)


def verdict_fields(verdict: Verdict) -> Tuple[Any, ...]:
    """The comparable projection of one verdict."""
    return tuple(getattr(verdict, name) for name in VERDICT_FIELDS)


def scenario_listings(scenario: AbuseScenario) -> ListingStore:
    """Run the scenario's events through every catalog list.

    The feed sampling stream is derived from the scenario identity, so
    listings are as deterministic as the events themselves."""
    return generate_listings_for(scenario, build_catalog())


def generate_listings_for(
    scenario: AbuseScenario, catalog: Sequence[BlocklistInfo]
) -> ListingStore:
    from ..blocklists.feed import generate_listings

    rng = scenario_rng(scenario.name, scenario.seed, "feed")
    return generate_listings(
        scenario.events,
        catalog,
        rng,
        horizon_days=scenario.horizon_days,
    )


def scenario_index(
    scenario: AbuseScenario, store: Optional[ListingStore] = None
) -> ReputationIndex:
    """Compile scenario listings + ledger reuse facts into an index.

    This is the same constructor shape the batch pipeline uses; the
    only difference is that NAT users, dynamic prefixes and AS origins
    come from the ground-truth ledger instead of the measurement
    study's detectors."""
    if store is None:
        store = scenario_listings(scenario)
    catalog = build_catalog()
    intervals: Dict[int, List[Tuple[int, int, str]]] = {}
    for listing in store:
        intervals.setdefault(listing.ip, []).append(
            (listing.first_day, listing.last_day, listing.list_id)
        )
    ledger = scenario.ledger
    return ReputationIndex(
        windows=scenario.windows,
        intervals=intervals,
        nated=set(ledger.nated_ips),
        users=dict(ledger.nated_ips),
        dynamic_prefixes=ledger.dynamic_prefixes,
        categories={
            info.list_id: policy_category(info) for info in catalog
        },
        asn_by_ip=dict(ledger.asn_by_ip),
        family=family_named(scenario.family),
    )


@dataclass
class ScenarioScore:
    """One scored scenario: artefact document plus the working state
    the streaming-fidelity check replays against."""

    scenario: AbuseScenario
    store: ListingStore
    index: ReputationIndex
    verdicts: Dict[IpDay, Verdict]
    result: Dict[str, Any]


def _histogram(values: List[int]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for value in sorted(values):
        counts[str(value)] = counts.get(str(value), 0) + 1
    return counts


def _median(values: List[int]) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _rate(hits: int, total: int) -> float:
    return round(hits / total, 4) if total else 0.0


def score_with_engine(
    scenario: AbuseScenario, engine: QueryEngine
) -> Tuple[Dict[IpDay, Verdict], Dict[str, Any]]:
    """Score the scenario through an engine's verdicts.

    The engine may wrap the static scenario index *or* a streaming
    :class:`~repro.stream.epoch.EpochIndex` that followed the
    scenario's churn log — the fidelity check calls this twice and
    demands identical output."""
    ledger = scenario.ledger
    malicious = ledger.malicious_ip_days
    points = ledger.eval_points()
    verdicts: Dict[IpDay, Verdict] = dict(
        zip(points, engine.query_batch(points))
    )
    benign = ledger.benign_ip_days()

    # -- per-blocklist detection vs false positives --------------------
    per_list: Dict[str, Dict[str, int]] = {}
    for key in sorted(malicious):
        for list_id in verdicts[key].lists:
            row = per_list.setdefault(
                list_id, {"detected": 0, "false_positive": 0}
            )
            row["detected"] += 1
    for key in benign:
        for list_id in verdicts[key].lists:
            row = per_list.setdefault(
                list_id, {"detected": 0, "false_positive": 0}
            )
            row["false_positive"] += 1
    blocklists = {
        list_id: {
            "detected_ip_days": row["detected"],
            "detection_rate": _rate(row["detected"], len(malicious)),
            "false_positive_ip_days": row["false_positive"],
            "false_positive_rate": _rate(
                row["false_positive"], len(benign)
            ),
        }
        for list_id, row in sorted(per_list.items())
    }

    # -- any-list overall rates ----------------------------------------
    detected = sum(1 for key in malicious if verdicts[key].listed)
    false_pos = sum(1 for key in benign if verdicts[key].listed)
    unjust_days = sum(1 for key in benign if verdicts[key].unjust)

    # -- policy comparison: naive block vs Section 6 reuse-aware -------
    policies: Dict[str, Dict[str, Any]] = {}
    for policy in ("block-listed", "reuse-aware"):
        def blocks(verdict: Verdict) -> bool:
            if policy == "block-listed":
                return verdict.listed
            return verdict.action == BlockAction.BLOCK

        blocked_malicious = sum(
            1 for key in malicious if blocks(verdicts[key])
        )
        unjust_user_days = sum(
            ledger.innocent_user_days[key]
            for key in benign
            if blocks(verdicts[key])
        )
        # Users sharing an address with live abuse are collateral too
        # (the CGN case: blocking the gateway on an abusive day still
        # drops every innocent behind it).
        shared_user_days = sum(
            ledger.innocent_user_days.get(key, 0)
            for key in sorted(malicious)
            if blocks(verdicts[key])
        )
        policies[policy] = {
            "blocked_malicious_ip_days": blocked_malicious,
            "blocked_malicious_rate": _rate(
                blocked_malicious, len(malicious)
            ),
            "unjust_user_days": unjust_user_days + shared_user_days,
            "unjust_user_days_stale": unjust_user_days,
            "unjust_user_days_shared": shared_user_days,
        }

    # -- time-to-detection / time-to-evasion over stints ---------------
    listed_days_of: Dict[int, List[int]] = {}
    for key in sorted(verdicts):
        if verdicts[key].listed:
            listed_days_of.setdefault(key[0], []).append(key[1])
    ttd: List[int] = []
    tte: List[int] = []
    evaded = 0
    for stint in ledger.stints:
        first_listed = next(
            (
                day
                for day in listed_days_of.get(stint.ip, ())
                if day >= stint.first_day
            ),
            None,
        )
        if first_listed is None:
            evaded += 1
            continue
        ttd.append(first_listed - stint.first_day)
        tte.append(max(0, stint.last_day - first_listed))

    result: Dict[str, Any] = {
        "format": RESULT_FORMAT,
        "version": RESULT_VERSION,
        "scenario": scenario.name,
        "seed": scenario.seed,
        "counts": {
            "events": len(scenario.events),
            "malicious_ip_days": len(malicious),
            "benign_ip_days": len(benign),
            "innocent_user_days": sum(
                ledger.innocent_user_days.values()
            ),
            "stints": len(ledger.stints),
            "lists_triggered": len(blocklists),
        },
        "overall": {
            "detection_rate": _rate(detected, len(malicious)),
            "false_positive_rate": _rate(false_pos, len(benign)),
            "unjust_listed_ip_days": unjust_days,
        },
        "policies": policies,
        "blocklists": blocklists,
        "time_to_detection": {
            "detected_stints": len(ttd),
            "evaded_stints": evaded,
            "median_days": _median(ttd),
            "histogram_days": _histogram(ttd),
        },
        "time_to_evasion": {
            "median_days": _median(tte),
            "histogram_days": _histogram(tte),
        },
    }
    return verdicts, result


def score_scenario(scenario: AbuseScenario) -> ScenarioScore:
    """The offline scoring path: listings → index → engine → scores."""
    store = scenario_listings(scenario)
    index = scenario_index(scenario, store)
    verdicts, result = score_with_engine(scenario, QueryEngine(index))
    result["counts"]["listings"] = len(store)
    return ScenarioScore(
        scenario=scenario,
        store=store,
        index=index,
        verdicts=verdicts,
        result=result,
    )


def render_score_table(results: List[Dict[str, Any]]) -> str:
    """The cross-scenario comparison table the CLI prints."""
    from ..analysis.tables import render_table

    rows = []
    for result in results:
        overall = result["overall"]
        naive = result["policies"]["block-listed"]
        aware = result["policies"]["reuse-aware"]
        ttd = result["time_to_detection"]
        median = ttd["median_days"]
        rows.append(
            (
                result["scenario"],
                f"{overall['detection_rate']:.1%}",
                f"{overall['false_positive_rate']:.1%}",
                naive["unjust_user_days"],
                aware["unjust_user_days"],
                "-" if median is None else f"{median:g}",
                ttd["evaded_stints"],
            )
        )
    return render_table(
        [
            "scenario",
            "detection",
            "fp rate",
            "unjust user-days (block-listed)",
            "unjust user-days (reuse-aware)",
            "median TTD",
            "evaded stints",
        ],
        rows,
        title="Adversary lab: blocklist effectiveness per scenario",
    )
