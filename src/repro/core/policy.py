"""The Section 6 policy: what to do with traffic from a listed address.

A leaf module — it imports nothing — so the online service
(:mod:`repro.service.engine`, :mod:`repro.service.wire`) and the batch
greylist export (:mod:`repro.core.greylist`) share this one definition
without the service loading the measurement pipeline behind it.
"""

from __future__ import annotations

__all__ = ["BlockAction", "action_for"]


class BlockAction:
    """What an operator should do with traffic from a listed address."""

    BLOCK = "block"
    GREYLIST = "greylist"
    #: Not listed at query time — the online service's third verdict.
    IGNORE = "ignore"

    ALL = (BLOCK, GREYLIST)


def action_for(reused: bool, blocklist_category: str) -> str:
    """The Section 6 policy for one listing, given the address's reuse
    verdict: DDoS lists warrant blocking even with collateral damage
    (rate matters more than precision); accuracy-sensitive lists (spam
    and the rest) should greylist reused addresses instead."""
    if not reused or blocklist_category == "ddos":
        return BlockAction.BLOCK
    return BlockAction.GREYLIST
