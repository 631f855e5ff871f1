"""The malicious-activity categories blocklists specialise in.

A leaf module — it imports nothing — so the blocklist catalog and the
online service's index (:mod:`repro.service.index`) name the
categories without loading the abuse model
(:mod:`repro.internet.abuse`) and the synthetic Internet behind it.
"""

from __future__ import annotations

__all__ = ["AbuseCategory"]


class AbuseCategory:
    """Malicious-activity categories blocklists specialise in."""

    SPAM = "spam"
    BRUTEFORCE = "bruteforce"
    DDOS = "ddos"
    MALWARE = "malware"
    SCAN = "scan"
    REPUTATION = "reputation"

    ALL = (SPAM, BRUTEFORCE, DDOS, MALWARE, SCAN, REPUTATION)
