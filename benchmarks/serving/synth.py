"""Seeded synthetic blocklist corpus shaped like the paper's.

The paper's corpus is 2.2M listed addresses on 151 lists over two
collection windows (39 + 44 days). This module generates raw tables
with that *shape* — addresses clustered ~8 per /24, ~2 listing
intervals per address, a heavy-tailed list-size distribution whose top
ten lists carry about two thirds of all listings, the Fig 7 duration
CDF, and the Section 4-5 NAT / dynamic shares — at ``1/SCALE_DIVISOR``
of the paper's size, because the benchmark driver gives one run about
half a minute for corpus, compile, snapshot, several boots and the
measurement together (see README.md, "Scale").

Everything is a pure function of ``seed``: the tables are flat
``array``s, hashed by :func:`digest`, and :func:`index_kwargs` turns
them into the keyword arguments of ``ReputationIndex(...)``.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.blocklists.catalog import build_catalog
from repro.net.family import V4
from repro.service.index import policy_category

__all__ = [
    "PAPER",
    "SCALE_DIVISOR",
    "Tables",
    "calibration",
    "digest",
    "generate",
    "index_kwargs",
    "query_keys",
]

#: The paper's corpus, full size (Sections 3-5, Fig 7).
PAPER = {
    "addresses": 2_200_000,
    "intervals": 4_500_000,
    "lists": 151,
    "per_block": 8,
    "top10_share": 0.66,
    "median_days": 9,
    "max_days": 44,
    "nated": 29_700,
    "nat_two_users_share": 0.685,
    "nat_max_users": 78,
    "dynamic_covered": 22_700,
}

#: The benchmark's corpus is the paper's divided by this. Fixed: a run
#: at another scale is another benchmark.
SCALE_DIVISOR = 20

#: The two collection windows, inclusive day ranges (39 and 44 days).
WINDOWS: Tuple[Tuple[int, int], ...] = ((214, 252), (453, 496))

#: Every observed day, in order — what a query's ``day`` is drawn from.
OBSERVED_DAYS: Tuple[int, ...] = tuple(
    day for start, end in WINDOWS for day in range(start, end + 1)
)

#: Zipf exponent over list rank at which the top 10 of 151 lists carry
#: 66% of all listings.
_LIST_ZIPF_S = 1.2058

#: Listing-duration CDF anchors (days, cumulative share), Fig 7:
#: median 9 days, tail out to the 44-day window.
_DURATION_CDF: Tuple[Tuple[int, float], ...] = (
    (1, 0.13), (2, 0.21), (3, 0.28), (5, 0.38), (7, 0.44), (8, 0.47),
    (9, 0.53),
    (14, 0.66), (21, 0.79), (30, 0.90), (38, 0.95), (44, 1.0),
)

#: Unicast space the listed /24s are drawn from: 1.0.0.0 – 223.255.255.0.
_BLOCK_LO = 1 << 16
_BLOCK_HI = 224 << 16


@dataclass(frozen=True)
class Tables:
    """The raw corpus as flat columns.

    ``ips`` is sorted; address ``i``'s intervals are rows
    ``offsets[i]:offsets[i + 1]`` of ``firsts`` / ``lasts`` /
    ``list_idx`` (an index into ``list_ids``).
    """

    seed: int
    ips: array
    offsets: array
    firsts: array
    lasts: array
    list_idx: array
    asns: array
    nated_ips: array
    nated_users: array
    dynamic_nets: array
    list_ids: Tuple[str, ...]
    categories: Tuple[str, ...]
    windows: Tuple[Tuple[int, int], ...] = WINDOWS


def _duration_table() -> List[int]:
    """1000 duration values whose empirical CDF is ``_DURATION_CDF``
    (linear between anchors), so a draw is one ``randrange``."""
    table: List[int] = []
    prev_days = 0
    for days, share in _DURATION_CDF:
        slots = round(share * 1000) - len(table)
        for slot in range(slots):
            frac = (slot + 1) / slots
            table.append(prev_days + max(1, round(frac * (days - prev_days))))
        prev_days = days
    return table


def generate(seed: int, divisor: int = SCALE_DIVISOR) -> Tables:
    """The corpus for ``seed`` at ``1/divisor`` of the paper's size."""
    rng = random.Random(f"corpus-{seed}")
    n_addresses = PAPER["addresses"] // divisor
    catalog = build_catalog()
    # List sizes follow rank; which list holds which rank is seeded so
    # no run depends on catalog order.
    order = list(range(len(catalog)))
    rng.shuffle(order)
    weights = [0.0] * len(catalog)
    for rank, position in enumerate(order):
        weights[position] = 1.0 / (rank + 1) ** _LIST_ZIPF_S
    cum_weights = list(accumulate(weights))
    list_range = range(len(catalog))

    # Addresses: ~8 per /24 (uniform 1..15), blocks spread over unicast.
    ips: List[int] = []
    blocks = sorted(
        rng.sample(range(_BLOCK_LO, _BLOCK_HI), n_addresses // 4)
    )
    rng.shuffle(blocks)
    used_blocks: List[int] = []
    for block in blocks:
        want = min(1 + rng.randrange(15), n_addresses - len(ips))
        if want <= 0:
            break
        used_blocks.append(block)
        base = block << 8
        ips.extend(base | host for host in rng.sample(range(256), want))
    ips.sort()
    used_blocks.sort()

    durations = _duration_table()
    extra_p = 1.0 - PAPER["addresses"] / PAPER["intervals"]
    offsets = array("I", [0])
    firsts, lasts, list_idx = array("H"), array("H"), array("B")
    (w1_lo, w1_hi), (w2_lo, w2_hi) = WINDOWS
    w1_days = w1_hi - w1_lo + 1
    w2_days = w2_hi - w2_lo + 1
    for _ in ips:
        count = 1
        while count < 12 and rng.random() < extra_p:
            count += 1
        spans: List[Tuple[int, int, int]] = []
        attempts = 0
        while len(spans) < count and attempts < 4 * count:
            attempts += 1
            days = durations[rng.randrange(1000)]
            # Starts are uniform over every slot the interval fits in.
            slots1 = max(0, w1_days - days + 1)
            slots2 = w2_days - days + 1
            slot = rng.randrange(slots1 + slots2)
            first = (
                w1_lo + slot if slot < slots1 else w2_lo + slot - slots1
            )
            last = first + days - 1
            which = rng.choices(list_range, cum_weights=cum_weights)[0]
            if any(
                w == which and f <= last and first <= l for w, f, l in spans
            ):
                continue  # one list never carries an address twice at once
            spans.append((which, first, last))
            firsts.append(first)
            lasts.append(last)
            list_idx.append(which)
        offsets.append(len(firsts))

    # One origin AS per /16, a few thousand ASes overall.
    asn_of_16: Dict[int, int] = {}
    asns = array("I")
    for ip in ips:
        slash16 = ip >> 16
        asn = asn_of_16.get(slash16)
        if asn is None:
            asn = asn_of_16[slash16] = 1000 + rng.randrange(4000)
        asns.append(asn)

    n_nated = PAPER["nated"] // divisor
    nated = sorted(rng.sample(ips, n_nated))
    users = array("H")
    for _ in nated:
        if rng.random() < PAPER["nat_two_users_share"]:
            users.append(2)
        else:
            users.append(
                min(PAPER["nat_max_users"], 2 + int(rng.paretovariate(1.1)))
            )

    # Dynamic /24s: whole listed blocks until they cover the target.
    target = PAPER["dynamic_covered"] // divisor
    dynamic: List[int] = []
    covered = 0
    candidates = list(used_blocks)
    rng.shuffle(candidates)
    for block in candidates:
        if covered >= target:
            break
        base = block << 8
        covered += bisect_left(ips, base + 256) - bisect_left(ips, base)
        dynamic.append(base)
    dynamic.sort()

    return Tables(
        seed=seed,
        ips=array("I", ips),
        offsets=offsets,
        firsts=firsts,
        lasts=lasts,
        list_idx=list_idx,
        asns=asns,
        nated_ips=array("I", nated),
        nated_users=users,
        dynamic_nets=array("I", dynamic),
        list_ids=tuple(info.list_id for info in catalog),
        categories=tuple(policy_category(info) for info in catalog),
    )


def digest(tables: Tables) -> str:
    """SHA-256 over every column — same seed, same bytes."""
    sha = hashlib.sha256()
    for column in (
        tables.ips, tables.offsets, tables.firsts, tables.lasts,
        tables.list_idx, tables.asns, tables.nated_ips,
        tables.nated_users, tables.dynamic_nets,
    ):
        sha.update(column.typecode.encode())
        sha.update(column.tobytes())
    sha.update(repr((tables.list_ids, tables.categories)).encode())
    sha.update(repr(tables.windows).encode())
    return sha.hexdigest()


def index_kwargs(tables: Tables) -> Dict[str, Any]:
    """The tables as ``ReputationIndex(**kwargs)``."""
    list_ids = tables.list_ids
    offsets = tables.offsets
    firsts, lasts, list_idx = tables.firsts, tables.lasts, tables.list_idx
    intervals = {
        ip: [
            (firsts[row], lasts[row], list_ids[list_idx[row]])
            for row in range(offsets[i], offsets[i + 1])
        ]
        for i, ip in enumerate(tables.ips)
    }
    return {
        "windows": list(tables.windows),
        "intervals": intervals,
        "nated": set(tables.nated_ips),
        "users": dict(zip(tables.nated_ips, tables.nated_users)),
        "dynamic_prefixes": [
            V4.make_prefix(net, 24) for net in tables.dynamic_nets
        ],
        "categories": dict(zip(list_ids, tables.categories)),
        "asn_by_ip": dict(zip(tables.ips, tables.asns)),
    }


def calibration(
    tables: Tables, divisor: int = SCALE_DIVISOR
) -> Dict[str, Any]:
    """Measured corpus shape beside the paper's, with a pass flag per
    row; ``ok`` is their conjunction. Tolerances are the issue's
    (addresses ±1%, per-list mean ±10%) and ±15% on the small shares."""
    n_ips = len(tables.ips)
    n_rows = len(tables.firsts)
    per_list = [0] * len(tables.list_ids)
    for which in tables.list_idx:
        per_list[which] += 1
    durations = sorted(
        last - first + 1 for first, last in zip(tables.firsts, tables.lasts)
    )
    blocks = len({ip >> 8 for ip in tables.ips})
    dynamic = set(tables.dynamic_nets)
    dynamic_covered = sum(1 for ip in tables.ips if ip & ~0xFF in dynamic)
    two_users = sum(1 for u in tables.nated_users if u == 2)

    def near(value: float, want: float, tolerance: float) -> bool:
        return abs(value - want) <= tolerance * want

    rows = {
        "addresses": (n_ips, PAPER["addresses"] / divisor, 0.01),
        "lists": (len(set(tables.list_ids)), PAPER["lists"], 0.0),
        "mean_listings_per_list": (
            n_rows / len(per_list),
            PAPER["intervals"] / PAPER["lists"] / divisor,
            0.10,
        ),
        "top10_share": (
            sum(sorted(per_list)[-10:]) / n_rows, PAPER["top10_share"], 0.05
        ),
        "addresses_per_block": (n_ips / blocks, PAPER["per_block"], 0.10),
        "median_days": (
            durations[len(durations) // 2], PAPER["median_days"], 0.12
        ),
        "max_days": (durations[-1], PAPER["max_days"], 0.0),
        "nated": (len(tables.nated_ips), PAPER["nated"] / divisor, 0.01),
        "nat_two_users_share": (
            two_users / max(1, len(tables.nated_users)),
            PAPER["nat_two_users_share"],
            0.15,
        ),
        "nat_max_users": (
            max(tables.nated_users, default=0), PAPER["nat_max_users"], 0.0
        ),
        "dynamic_covered": (
            dynamic_covered, PAPER["dynamic_covered"] / divisor, 0.15
        ),
    }
    report: Dict[str, Any] = {
        name: {
            "value": value,
            "paper_scaled": want,
            "ok": (
                value <= want if name == "nat_max_users"
                else near(value, want, tolerance)
            ),
        }
        for name, (value, want, tolerance) in rows.items()
    }
    report["ok"] = all(row["ok"] for row in report.values())
    return report


def query_keys(
    tables: Tables, rng: random.Random, count: int
) -> List[Tuple[int, Optional[int]]]:
    """``count`` ``(ip, day)`` query keys over the whole corpus.

    Half the addresses are listed; the other half are not — a neighbour
    inside a listed /24 or an address from random space, the miss path
    a real consumer mostly takes. ``day`` is ``None`` (the server's
    "now") for half the keys, else uniform over the observed days.
    """
    ips = tables.ips
    n_ips = len(ips)
    days: Sequence[int] = OBSERVED_DAYS
    n_days = len(days)
    random_, randrange = rng.random, rng.randrange
    keys: List[Tuple[int, Optional[int]]] = []
    append = keys.append
    for _ in range(count):
        draw = random_()
        ip = ips[randrange(n_ips)]
        if draw >= 0.5:
            if draw < 0.75:
                ip = (ip & ~0xFF) | randrange(256)
            else:
                ip = randrange(_BLOCK_LO << 8, _BLOCK_HI << 8)
        append((ip, days[randrange(n_days)] if randrange(2) else None))
    return keys
