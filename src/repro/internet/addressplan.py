"""Global address-space planning for the synthetic internet.

Carves the public IPv4 space into /16 blocks handed to ASes, skipping
everything reserved (RFC 1918, loopback, CGN shared space, multicast,
...). Inside an AS, an :class:`AddressCursor` hands out /24-aligned
sub-blocks and individual addresses, which keeps the ground-truth
"dynamic pool" boundaries exactly /24-aligned or coarser — the paper's
unit of analysis.
"""

from __future__ import annotations

from typing import Iterator, List

from ..net.ipv4 import MAX_IPV4, Prefix

__all__ = ["RESERVED_PREFIXES", "iter_public_slash16s", "AddressCursor"]

#: Prefixes never handed to the synthetic topology.
RESERVED_PREFIXES = (
    Prefix.from_text("0.0.0.0/8"),
    Prefix.from_text("10.0.0.0/8"),
    Prefix.from_text("100.64.0.0/10"),
    Prefix.from_text("127.0.0.0/8"),
    Prefix.from_text("169.254.0.0/16"),
    Prefix.from_text("172.16.0.0/12"),
    Prefix.from_text("192.0.2.0/24"),
    Prefix.from_text("192.168.0.0/16"),
    Prefix.from_text("198.18.0.0/15"),
    Prefix.from_text("203.0.113.0/24"),
    Prefix.from_text("224.0.0.0/3"),
)


def _is_reserved(prefix: Prefix) -> bool:
    return any(
        reserved.contains_prefix(prefix) or prefix.contains_prefix(reserved)
        for reserved in RESERVED_PREFIXES
    )


def iter_public_slash16s() -> Iterator[Prefix]:
    """Yield assignable /16 blocks in address order, skipping reserved
    space. (There are ~57K of them — far more than any scenario uses.)"""
    step = 1 << 16
    for network in range(0, MAX_IPV4 + 1, step):
        candidate = Prefix(network, 16)
        if not _is_reserved(candidate):
            yield candidate


class AddressCursor:
    """Sequential allocator over a list of prefixes owned by one AS.

    Allocation is strictly increasing, /24-block requests are aligned,
    and exhaustion raises — silently wrapping around would alias two
    "different" hosts onto one address and corrupt the ground truth.
    """

    def __init__(self, prefixes: List[Prefix]) -> None:
        if not prefixes:
            raise ValueError("cursor needs at least one prefix")
        self._prefixes = sorted(prefixes, key=lambda p: p.network)
        self._index = 0
        self._next = self._prefixes[0].first()

    def _advance_block(self) -> None:
        self._index += 1
        if self._index >= len(self._prefixes):
            raise RuntimeError("address space exhausted for this AS")
        self._next = self._prefixes[self._index].first()

    def take_address(self) -> int:
        """Allocate the next single address."""
        while self._next > self._prefixes[self._index].last():
            self._advance_block()
        address = self._next
        self._next += 1
        return address

    def take_slash24s(self, count: int) -> List[Prefix]:
        """Allocate ``count`` consecutive aligned /24 blocks."""
        if count <= 0:
            raise ValueError(f"need a positive block count, got {count}")
        # Align up to the next /24 boundary inside the current prefix.
        while True:
            aligned = (self._next + 0xFF) & 0xFFFFFF00
            current = self._prefixes[self._index]
            if aligned + count * 256 - 1 <= current.last():
                break
            self._advance_block()
        blocks = [Prefix(aligned + i * 256, 24) for i in range(count)]
        self._next = aligned + count * 256
        return blocks
