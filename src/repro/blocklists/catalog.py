"""The 151-blocklist catalog (paper Table 2, Appendix B).

The paper monitors 151 public IPv4 blocklists from the BLAG dataset,
spread over 41 maintainers. This module reconstructs that catalog:
every maintainer with its list count, a category profile (what kind of
abuse each list monitors), and feed-behaviour parameters (sensitivity,
removal latency) that the synthetic feed generator uses.

Transcription note: the rows of Table 2 as printed sum to 149; the
dataset description (Section 4) also names DShield and Spamhaus as
included lists, so we add one list for each to reach the paper's total
of exactly 151.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..internet.categories import AbuseCategory

__all__ = ["BlocklistInfo", "MAINTAINERS", "build_catalog"]


@dataclass(frozen=True)
class BlocklistInfo:
    """One monitored blocklist and its feed behaviour."""

    list_id: str
    name: str
    maintainer: str
    #: Abuse categories the list reacts to.
    categories: Tuple[str, ...]
    #: Probability an in-category abuse event is picked up on its day.
    sensitivity: float
    #: Days after the last observed event before delisting.
    removal_ttl_days: float
    #: Days between an event and its listing appearing.
    report_lag_days: int
    #: File format the feed publishes (see formats.py).
    fmt: str = "plain"
    #: Marked with (*) in Table 2: named by surveyed operators.
    surveyed: bool = False


#: (maintainer, list count, categories, surveyed, base sensitivity,
#:  removal TTL days) — row order follows Table 2.
MAINTAINERS: Tuple[
    Tuple[str, int, Tuple[str, ...], bool, float, float], ...
] = (
    ("Bad IPs", 44, (AbuseCategory.BRUTEFORCE, AbuseCategory.SCAN, AbuseCategory.REPUTATION), False, 0.30, 4.0),
    ("Bambenek", 22, (AbuseCategory.MALWARE,), False, 0.25, 2.0),
    ("Abuse.ch", 10, (AbuseCategory.MALWARE, AbuseCategory.REPUTATION), True, 0.35, 5.0),
    ("Normshield", 9, (AbuseCategory.SCAN, AbuseCategory.REPUTATION), False, 0.25, 3.0),
    ("Blocklist.de", 9, (AbuseCategory.BRUTEFORCE, AbuseCategory.SPAM), True, 0.40, 2.0),
    ("Malware Bytes", 9, (AbuseCategory.MALWARE,), False, 0.25, 6.0),
    ("Project Honeypot", 4, (AbuseCategory.SPAM,), True, 0.35, 6.0),
    ("CoinBlockerLists", 4, (AbuseCategory.MALWARE,), False, 0.20, 8.0),
    ("NoThink", 3, (AbuseCategory.BRUTEFORCE, AbuseCategory.SCAN), False, 0.25, 3.0),
    ("Emerging Threats", 2, (AbuseCategory.REPUTATION, AbuseCategory.DDOS), False, 0.35, 7.0),
    ("ImproWare", 2, (AbuseCategory.SPAM,), False, 0.30, 1.0),
    ("Botvrij.EU", 2, (AbuseCategory.MALWARE,), False, 0.20, 8.0),
    ("IP Finder", 1, (AbuseCategory.REPUTATION,), False, 0.25, 5.0),
    ("Cleantalk", 1, (AbuseCategory.SPAM,), True, 0.45, 1.0),
    ("Sblam!", 1, (AbuseCategory.SPAM,), False, 0.30, 4.0),
    ("Nixspam", 1, (AbuseCategory.SPAM,), True, 0.60, 1.0),
    ("Blocklist Project", 1, (AbuseCategory.REPUTATION,), False, 0.25, 6.0),
    ("BruteforceBlocker", 1, (AbuseCategory.BRUTEFORCE,), False, 0.30, 4.0),
    ("Cruzit", 1, (AbuseCategory.REPUTATION,), False, 0.25, 5.0),
    ("Haley", 1, (AbuseCategory.BRUTEFORCE,), False, 0.30, 6.0),
    ("Botscout", 1, (AbuseCategory.SPAM,), False, 0.35, 2.0),
    ("My IP", 1, (AbuseCategory.REPUTATION,), False, 0.20, 7.0),
    ("Taichung", 1, (AbuseCategory.SCAN,), False, 0.25, 4.0),
    ("Cisco Talos", 1, (AbuseCategory.REPUTATION,), True, 0.40, 4.0),
    ("Alienvault", 1, (AbuseCategory.REPUTATION, AbuseCategory.SPAM), False, 0.55, 3.0),
    ("Binary Defense", 1, (AbuseCategory.REPUTATION,), False, 0.30, 5.0),
    ("GreenSnow", 1, (AbuseCategory.BRUTEFORCE,), False, 0.30, 3.0),
    ("Snort Labs", 1, (AbuseCategory.REPUTATION,), False, 0.25, 5.0),
    ("GPF Comics", 1, (AbuseCategory.SPAM,), False, 0.25, 5.0),
    ("Turris", 1, (AbuseCategory.SCAN,), False, 0.25, 6.0),
    ("CINSscore", 1, (AbuseCategory.REPUTATION,), False, 0.30, 4.0),
    ("Nullsecure", 1, (AbuseCategory.MALWARE,), False, 0.20, 6.0),
    ("DYN", 1, (AbuseCategory.MALWARE,), False, 0.20, 7.0),
    ("Malware Domain List", 1, (AbuseCategory.MALWARE,), False, 0.20, 8.0),
    ("Malc0de", 1, (AbuseCategory.MALWARE,), False, 0.20, 8.0),
    ("URLVir", 1, (AbuseCategory.MALWARE,), False, 0.20, 7.0),
    ("Threatcrowd", 1, (AbuseCategory.REPUTATION,), False, 0.25, 5.0),
    ("CyberCrime", 1, (AbuseCategory.MALWARE,), False, 0.20, 6.0),
    ("IBM X-Force", 1, (AbuseCategory.REPUTATION,), False, 0.30, 5.0),
    ("VXVault", 1, (AbuseCategory.MALWARE,), False, 0.20, 7.0),
    ("Stopforumspam", 1, (AbuseCategory.SPAM,), True, 0.65, 1.0),
    # Reconstructed rows (see module docstring):
    ("DShield", 1, (AbuseCategory.SCAN, AbuseCategory.BRUTEFORCE), False, 0.45, 2.0),
    ("Spamhaus", 1, (AbuseCategory.SPAM,), False, 0.50, 5.0),
)

_SERVICE_TAGS = (
    "ssh", "mail", "http", "ftp", "sip", "rdp", "vnc", "telnet", "dns",
    "smtp", "imap", "proxy", "vpn", "irc", "mysql", "badbots", "apache",
    "nginx", "wordpress", "postfix", "courier", "sasl", "pop3",
)

_FORMATS = ("plain", "cidr", "csv")


def build_catalog() -> List[BlocklistInfo]:
    """Instantiate all 151 lists.

    Multi-list maintainers publish per-service sub-lists (Bad IPs'
    fail2ban-style service feeds, Bambenek's per-family C2 feeds); we
    name them by service tag and vary their sensitivity slightly so the
    per-list volume distribution is heavy-tailed like the real corpus.
    """
    lists: List[BlocklistInfo] = []
    for row_index, (
        maintainer, count, categories, surveyed, sensitivity, ttl
    ) in enumerate(MAINTAINERS):
        for sub_index in range(count):
            slug = maintainer.lower().replace(" ", "").replace(".", "").replace("!", "")
            if count == 1:
                list_id = slug
                name = maintainer
            else:
                tag = _SERVICE_TAGS[sub_index % len(_SERVICE_TAGS)]
                list_id = f"{slug}-{tag}-{sub_index}"
                name = f"{maintainer} ({tag})"
            # Sub-lists of one maintainer shrink in sensitivity: a
            # per-service feed sees only a slice of the abuse stream.
            # Small lists are further damped so listing mass
            # concentrates in the big feeds (the paper's top-10 lists
            # carry 53-70%% of all listed addresses).
            sub_sensitivity = sensitivity / (1.0 + 0.8 * sub_index)
            if sub_sensitivity < 0.4:
                sub_sensitivity *= 0.12
            fmt = _FORMATS[(row_index + sub_index) % len(_FORMATS)]
            lists.append(
                BlocklistInfo(
                    list_id=list_id,
                    name=name,
                    maintainer=maintainer,
                    categories=categories,
                    sensitivity=round(sub_sensitivity, 4),
                    removal_ttl_days=ttl,
                    report_lag_days=(sub_index % 2),
                    fmt=fmt,
                    surveyed=surveyed,
                )
            )
    if len(lists) != 151:
        raise AssertionError(
            f"catalog must contain exactly 151 lists, built {len(lists)}"
        )
    return lists


def catalog_by_maintainer() -> Dict[str, List[BlocklistInfo]]:
    """Catalog grouped by maintainer (Table 2's row structure)."""
    grouped: Dict[str, List[BlocklistInfo]] = {}
    for info in build_catalog():
        grouped.setdefault(info.maintainer, []).append(info)
    return grouped
