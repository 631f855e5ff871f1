"""Ground-truth container for the synthetic internet.

Everything detection techniques try to *infer* — which IPs are NATed,
how many users share them, which /24s are dynamically allocated — is
recorded here explicitly, so precision/recall of the reproduction's
detectors can be measured (something the original live study could not
do).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from ..net.asdb import ASDatabase
from ..net.ipv4 import Prefix
from .dhcp import DhcpPool

__all__ = [
    "ADDRESSING_STATIC",
    "ADDRESSING_DYNAMIC",
    "NAT_NONE",
    "NAT_HOME",
    "NAT_CGN",
    "UserInfo",
    "LineInfo",
    "GroundTruth",
]

ADDRESSING_STATIC = "static"
ADDRESSING_DYNAMIC = "dynamic"
NAT_NONE = "none"
NAT_HOME = "home"
NAT_CGN = "cgn"


@dataclass
class UserInfo:
    """One end user (or server)."""

    key: str
    line_key: str
    runs_bittorrent: bool = False
    #: For NATed BitTorrent users: is the mapping crawler-reachable
    #: (full-cone / port-forwarded)?
    reachable: bool = True
    compromised: bool = False


@dataclass
class LineInfo:
    """One access line: the unit that holds a public IP address."""

    key: str
    asn: int
    addressing: str = ADDRESSING_STATIC
    nat: str = NAT_NONE
    pool_id: Optional[str] = None
    static_ip: Optional[int] = None
    user_keys: List[str] = field(default_factory=list)
    country: str = "XX"

    def __post_init__(self) -> None:
        if self.addressing not in (ADDRESSING_STATIC, ADDRESSING_DYNAMIC):
            raise ValueError(f"bad addressing {self.addressing!r}")
        if self.nat not in (NAT_NONE, NAT_HOME, NAT_CGN):
            raise ValueError(f"bad NAT kind {self.nat!r}")
        if self.addressing == ADDRESSING_STATIC and self.static_ip is None:
            raise ValueError(f"static line {self.key} needs an address")
        if self.addressing == ADDRESSING_DYNAMIC and self.pool_id is None:
            raise ValueError(f"dynamic line {self.key} needs a pool")


class GroundTruth:
    """The synthetic internet's factual record."""

    def __init__(self, asdb: ASDatabase, horizon_days: float) -> None:
        if horizon_days <= 0:
            raise ValueError(f"horizon must be positive: {horizon_days}")
        self.asdb = asdb
        self.horizon_days = horizon_days
        self.lines: Dict[str, LineInfo] = {}
        self.users: Dict[str, UserInfo] = {}
        self.pools: Dict[str, DhcpPool] = {}

    # -- construction ---------------------------------------------------

    def add_line(self, line: LineInfo) -> None:
        """Register a line (keys must be unique)."""
        if line.key in self.lines:
            raise ValueError(f"duplicate line key {line.key!r}")
        self.lines[line.key] = line

    def add_user(self, user: UserInfo) -> None:
        """Register a user and attach it to its line."""
        if user.key in self.users:
            raise ValueError(f"duplicate user key {user.key!r}")
        line = self.lines.get(user.line_key)
        if line is None:
            raise KeyError(f"user {user.key} references unknown line")
        self.users[user.key] = user
        line.user_keys.append(user.key)

    def add_pool(self, pool: DhcpPool) -> None:
        """Register a DHCP pool."""
        if pool.pool_id in self.pools:
            raise ValueError(f"duplicate pool id {pool.pool_id!r}")
        self.pools[pool.pool_id] = pool

    # -- address resolution ----------------------------------------------

    def ip_of_line(self, line_key: str, day: float) -> Optional[int]:
        """Public address of ``line_key`` at time ``day``."""
        line = self.lines[line_key]
        if line.addressing == ADDRESSING_STATIC:
            return line.static_ip
        pool = self.pools[line.pool_id]  # type: ignore[index]
        timeline = pool.timelines.get(line_key)
        return None if timeline is None else timeline.ip_at(day)

    def users_of_line(self, line_key: str) -> List[UserInfo]:
        """User records attached to a line."""
        return [self.users[k] for k in self.lines[line_key].user_keys]

    # -- NAT ground truth -------------------------------------------------

    def nat_lines(self) -> Iterator[LineInfo]:
        """Lines with any form of address sharing."""
        return (l for l in self.lines.values() if l.nat != NAT_NONE)

    def true_nated_ips(self) -> Dict[int, int]:
        """Ground truth: IP → number of concurrent users (≥2) sharing
        it. Only static NAT lines share addresses in this model."""
        out: Dict[int, int] = {}
        for line in self.nat_lines():
            if line.static_ip is not None and len(line.user_keys) >= 2:
                out[line.static_ip] = len(line.user_keys)
        return out

    def bt_users_behind(self, line: LineInfo) -> List[UserInfo]:
        """BitTorrent users on a line."""
        return [
            self.users[k]
            for k in line.user_keys
            if self.users[k].runs_bittorrent
        ]

    # -- dynamic ground truth ----------------------------------------------

    def dynamic_slash24s(self) -> Set[Prefix]:
        """Ground truth: every /24 under dynamic allocation."""
        blocks: Set[Prefix] = set()
        for pool in self.pools.values():
            blocks.update(pool.slash24s())
        return blocks

    def fast_dynamic_slash24s(self, max_mean_days: float = 1.0) -> Set[Prefix]:
        """Dynamic /24s whose pool has at least one line changing
        addresses at most every ``max_mean_days`` on average — the
        population the paper's daily-change criterion targets."""
        blocks: Set[Prefix] = set()
        for pool in self.pools.values():
            if any(
                t.change_count() > 0 and t.mean_holding_days() <= max_mean_days
                for t in pool.timelines.values()
            ):
                blocks.update(pool.slash24s())
        return blocks

    # -- population summaries ----------------------------------------------

    def bittorrent_lines(self) -> List[LineInfo]:
        """Lines with at least one BitTorrent user (the crawler's
        potential sightings)."""
        return [
            line
            for line in self.lines.values()
            if any(self.users[k].runs_bittorrent for k in line.user_keys)
        ]

    def compromised_users(self) -> List[UserInfo]:
        """Users flagged by the abuse model."""
        return [u for u in self.users.values() if u.compromised]
