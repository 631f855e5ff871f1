"""Abuse-actor model: who is compromised and what they emit.

Produces the stream of malicious-activity events that blocklist feeds
observe. Three empirical regularities from the paper (and the work it
cites) are baked in:

* abuse concentrates in a few ASes (top-10 ASes hold 27.7% of listings)
  — per-AS Zipf badness multipliers;
* devices using P2P are more likely compromised (DeKoven et al., cited
  in Section 4 to explain the BitTorrent/blocklist overlap) — a higher
  compromise rate for BitTorrent users;
* a compromised host on a *dynamic* line smears its activity across
  many addresses, each tainted only briefly — which is exactly what
  makes blocklisting dynamic space unjust.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..net.asdb import ASKind
from ..sim.rng import zipf_weights
from .categories import AbuseCategory
from .groundtruth import ADDRESSING_DYNAMIC, GroundTruth, UserInfo

__all__ = [
    "AbuseCategory",
    "AbuseEvent",
    "AbuseConfig",
    "event_sort_key",
    "generate_abuse",
]


@dataclass(frozen=True)
class AbuseEvent:
    """One day of malicious activity from one source address."""

    day: int
    ip: int
    user_key: str
    category: str

    def __post_init__(self) -> None:
        if self.category not in AbuseCategory.ALL:
            raise ValueError(f"unknown abuse category {self.category!r}")


def event_sort_key(event: AbuseEvent) -> Tuple[int, int, str]:
    """Canonical feed order for abuse-event streams.

    Every producer (the calibrated model here, the adversary scenarios
    in :mod:`repro.adversary`) sorts with this key so feed generation
    sees one well-defined order regardless of how the events were
    simulated."""
    return (event.day, event.ip, event.category)


@dataclass
class AbuseConfig:
    """Abuse model knobs."""

    #: Compromise probability for BitTorrent vs other eyeball users.
    compromise_rate_bt: float = 0.09
    compromise_rate_other: float = 0.015
    #: Users on dynamically-addressed lines are compromised more often
    #: — spam correlates with dynamic space (Wilcox et al., Xie et al.,
    #: cited in Appendix A).
    compromise_rate_dynamic: float = 0.065
    #: Hosting servers (malware distribution, scanners) are dirtier.
    compromise_rate_hosting: float = 0.15
    #: Zipf exponent for per-AS badness concentration.
    as_badness_exponent: float = 1.1
    #: Campaigns per compromised user over the active periods.
    campaigns_per_user_range: Tuple[int, int] = (1, 3)
    #: Mean campaign length in days (exponential, min 1 day).
    campaign_duration_mean_days: float = 4.5
    #: A minority of compromised hosts run long-lived campaigns; they
    #: produce the listings that stay for a whole collection window
    #: (the paper's worst case: 44 days).
    persistent_fraction: float = 0.06
    persistent_duration_mean_days: float = 40.0
    #: Periods (start_day, end_day) when campaigns start. Defaults pad
    #: the paper's two collection windows (days 214–253 and 453–497
    #: from the 2019-01-01 epoch) by a week on each side.
    activity_periods: Sequence[Tuple[float, float]] = (
        (207.0, 253.0),
        (446.0, 497.0),
    )


def _badness_by_asn(
    truth: GroundTruth, exponent: float, rng: random.Random
) -> Dict[int, float]:
    """Zipf badness multipliers, shuffled across eyeball ASes and
    normalised to mean 1."""
    eyeballs = [
        record.asn
        for record in truth.asdb
        if record.kind == ASKind.EYEBALL
    ]
    if not eyeballs:
        return {}
    weights = list(zipf_weights(len(eyeballs), exponent))
    mean = sum(weights) / len(weights)
    multipliers = [w / mean for w in weights]
    rng.shuffle(eyeballs)
    return dict(zip(eyeballs, multipliers))


def generate_abuse(
    truth: GroundTruth,
    config: AbuseConfig,
    rng: random.Random,
) -> List[AbuseEvent]:
    """Flag compromised users in ``truth`` and return their activity.

    Mutates ``UserInfo.compromised`` in place (the ground truth should
    know who is bad) and returns the day-granular event stream feeds
    consume.
    """
    badness = _badness_by_asn(truth, config.as_badness_exponent, rng)
    hosting_asns = {
        record.asn
        for record in truth.asdb
        if record.kind == ASKind.HOSTING
    }
    events: List[AbuseEvent] = []
    for user in truth.users.values():
        line = truth.lines[user.line_key]
        if line.asn in hosting_asns:
            rate = config.compromise_rate_hosting
        elif line.addressing == ADDRESSING_DYNAMIC:
            rate = config.compromise_rate_dynamic * badness.get(line.asn, 1.0)
        elif user.runs_bittorrent:
            rate = config.compromise_rate_bt * badness.get(line.asn, 1.0)
        else:
            rate = config.compromise_rate_other * badness.get(line.asn, 1.0)
        if rng.random() >= min(rate, 1.0):
            continue
        user.compromised = True
        events.extend(_user_campaigns(truth, user, config, rng))
    events.sort(key=event_sort_key)
    return events


def _pick_category(
    user: UserInfo, truth: GroundTruth, rng: random.Random
) -> str:
    line = truth.lines[user.line_key]
    record = truth.asdb.get(line.asn)
    if record is not None and record.kind == ASKind.HOSTING:
        return rng.choices(
            [AbuseCategory.MALWARE, AbuseCategory.SCAN],
            weights=[0.7, 0.3],
        )[0]
    if line.addressing == ADDRESSING_DYNAMIC:
        # Residential dynamic lines: spam-heavy, with a malware-C2
        # slice (infected home devices), spreading dynamic reuse
        # across more list categories.
        return rng.choices(
            [
                AbuseCategory.SPAM,
                AbuseCategory.BRUTEFORCE,
                AbuseCategory.DDOS,
                AbuseCategory.SCAN,
                AbuseCategory.REPUTATION,
                AbuseCategory.MALWARE,
            ],
            weights=[0.40, 0.18, 0.08, 0.09, 0.14, 0.11],
        )[0]
    return rng.choices(
        [
            AbuseCategory.SPAM,
            AbuseCategory.BRUTEFORCE,
            AbuseCategory.DDOS,
            AbuseCategory.SCAN,
            AbuseCategory.REPUTATION,
        ],
        weights=[0.45, 0.2, 0.1, 0.1, 0.15],
    )[0]


def _user_campaigns(
    truth: GroundTruth,
    user: UserInfo,
    config: AbuseConfig,
    rng: random.Random,
) -> List[AbuseEvent]:
    events: List[AbuseEvent] = []
    n_campaigns = rng.randint(*config.campaigns_per_user_range)
    persistent = rng.random() < config.persistent_fraction
    for _ in range(n_campaigns):
        period = rng.choice(list(config.activity_periods))
        start = rng.uniform(*period)
        mean_days = (
            config.persistent_duration_mean_days
            if persistent
            else config.campaign_duration_mean_days
        )
        duration = max(1, round(rng.expovariate(1.0 / mean_days)))
        category = _pick_category(user, truth, rng)
        for offset in range(duration):
            day = int(start) + offset
            if day >= truth.horizon_days:
                break
            # The activity leaves the address the line holds that day.
            ip = truth.ip_of_line(user.line_key, day + 0.5)
            if ip is None:
                continue
            events.append(
                AbuseEvent(
                    day=day, ip=ip, user_key=user.key, category=category
                )
            )
    return events
