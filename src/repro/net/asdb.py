"""Autonomous-system database: AS records and IP-to-AS resolution.

The paper's Figure 3 groups blocklisted and reused addresses by origin
AS. In a live study that mapping comes from BGP dumps; here the synthetic
topology registers its prefixes, and the same lookup interface would work
over a RouteViews-derived table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .ipv4 import Prefix
from .prefixtrie import PrefixTrie

__all__ = ["ASKind", "ASRecord", "ASDatabase"]


class ASKind:
    """Coarse AS roles used by the topology generator.

    Eyeball networks host end users (and therefore NATs, DHCP pools and
    most abuse); hosting/cloud networks contribute server addresses;
    backbone/transit contribute little end-user address space.
    """

    EYEBALL = "eyeball"
    HOSTING = "hosting"
    BACKBONE = "backbone"

    ALL = (EYEBALL, HOSTING, BACKBONE)


@dataclass
class ASRecord:
    """One autonomous system and its originated address space."""

    asn: int
    name: str
    kind: str = ASKind.EYEBALL
    country: str = "US"
    prefixes: List[Prefix] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ValueError(f"ASN must be positive, got {self.asn}")
        if self.kind not in ASKind.ALL:
            raise ValueError(f"unknown AS kind {self.kind!r}")

    def address_count(self) -> int:
        """Total addresses originated by this AS."""
        return sum(prefix.size() for prefix in self.prefixes)


class ASDatabase:
    """Registry of :class:`ASRecord` with longest-prefix IP→AS lookup."""

    # Defensive bound on the lookup memo (see PrefixSet._MEMO_MAX).
    _MEMO_MAX = 1 << 20

    def __init__(self) -> None:
        self._records: Dict[int, ASRecord] = {}
        self._trie: PrefixTrie[int] = PrefixTrie()
        # ip -> origin-ASN memo; analyses resolve the same addresses
        # over and over. Invalidated whenever the table changes.
        self._ip_memo: Dict[int, Optional[int]] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ASRecord]:
        return iter(sorted(self._records.values(), key=lambda r: r.asn))

    def __contains__(self, asn: object) -> bool:
        return asn in self._records

    def add(self, record: ASRecord) -> None:
        """Register ``record`` and announce its prefixes.

        Re-registering an ASN is an error; announce additional prefixes
        with :meth:`announce` instead.
        """
        if record.asn in self._records:
            raise ValueError(f"AS{record.asn} already registered")
        self._records[record.asn] = record
        for prefix in record.prefixes:
            self._trie.insert(prefix, record.asn)
        self._ip_memo.clear()

    def announce(self, asn: int, prefix: Prefix) -> None:
        """Announce an additional ``prefix`` as originated by ``asn``."""
        record = self._records.get(asn)
        if record is None:
            raise KeyError(f"AS{asn} not registered")
        record.prefixes.append(prefix)
        self._trie.insert(prefix, asn)
        self._ip_memo.clear()

    def get(self, asn: int) -> Optional[ASRecord]:
        """Return the record for ``asn`` or None."""
        return self._records.get(asn)

    def asn_of(self, ip: int) -> Optional[int]:
        """Resolve integer address ``ip`` to its origin ASN (LPM).

        Memoised per address; the memo is cleared by :meth:`add` and
        :meth:`announce`.
        """
        memo = self._ip_memo
        if ip in memo:
            return memo[ip]
        if len(memo) >= self._MEMO_MAX:
            memo.clear()
        asn = memo[ip] = self._trie.lookup_value(ip)
        return asn

    def record_of(self, ip: int) -> Optional[ASRecord]:
        """Resolve ``ip`` to the full :class:`ASRecord`."""
        asn = self.asn_of(ip)
        return None if asn is None else self._records.get(asn)

    def records(self) -> List[ASRecord]:
        """All records sorted by ASN."""
        return list(self)
