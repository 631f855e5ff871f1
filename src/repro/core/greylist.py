"""Greylist export — the paper's operator-facing deliverable.

Section 6: the authors publish their reused-address list so operators
can *greylist* instead of hard-blocking (as Spamassassin/Spamd do for
spam), and so blocklist maintainers can annotate reused entries. This
module produces that artefact, with per-address annotations (reuse
kind, detected user count, /24 prefix) and a policy helper that says
what to do with a packet given the blocklist type in use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..net.ipv4 import int_to_ip, slash24_of
from .policy import BlockAction, action_for
from .reuse import ReuseAnalysis

__all__ = [
    "GreylistEntry",
    "build_greylist",
    "render_greylist",
    "BlockAction",
    "action_for",
    "recommend_action",
]


@dataclass(frozen=True)
class GreylistEntry:
    """One reused blocklisted address with its evidence."""

    ip: int
    reuse_kind: str  # "nat", "dynamic" or "nat+dynamic"
    detected_users: int
    covering_prefix: str


def build_greylist(analysis: ReuseAnalysis) -> List[GreylistEntry]:
    """All blocklisted reused addresses, annotated, address-ordered."""
    entries: List[GreylistEntry] = []
    for ip in sorted(analysis.reused_ips()):
        nated = ip in analysis.nated_blocklisted
        dynamic = ip in analysis.dynamic_blocklisted
        if nated and dynamic:
            kind = "nat+dynamic"
        elif nated:
            kind = "nat"
        else:
            kind = "dynamic"
        entries.append(
            GreylistEntry(
                ip=ip,
                reuse_kind=kind,
                detected_users=analysis.nat.users_behind(ip),
                covering_prefix=str(slash24_of(ip)),
            )
        )
    return entries


def render_greylist(entries: Sequence[GreylistEntry]) -> str:
    """The published file format: one annotated address per line."""
    lines = [
        "# reused blocklisted addresses — greylist, do not hard-block",
        "# ip kind users prefix",
    ]
    for entry in entries:
        lines.append(
            f"{int_to_ip(entry.ip)} {entry.reuse_kind} "
            f"{entry.detected_users} {entry.covering_prefix}"
        )
    return "\n".join(lines) + "\n"


def recommend_action(
    analysis: ReuseAnalysis, ip: int, *, blocklist_category: str
) -> str:
    """:func:`action_for` with the reuse verdict looked up in
    ``analysis``. The online service's record loop calls
    :func:`action_for` itself, per list category: one policy for the
    batch and serving paths."""
    return action_for(analysis.is_reused(ip), blocklist_category)
