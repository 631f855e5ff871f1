"""IPv4 address and prefix primitives.

Everything in this reproduction that touches addresses uses plain ``int``
values (0..2**32-1) on hot paths — the crawler handles millions of
addresses and ``ipaddress.IPv4Address`` objects are too heavy for that.
This module provides the conversions, a hashable :class:`Prefix` value
type, and the /24 helpers the paper leans on ("we consider the entire /24
prefix covering this IP address to be dynamically allocated").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, List

__all__ = [
    "MAX_IPV4",
    "ip_to_int",
    "int_to_ip",
    "is_valid_ip_int",
    "Prefix",
    "covering_prefix",
    "slash24_of",
    "slash24_int",
    "addresses_to_slash24s",
    "parse_ip_or_prefix",
]

#: Largest valid IPv4 address as an integer (255.255.255.255).
MAX_IPV4 = (1 << 32) - 1


def ip_to_int(text: str) -> int:
    """Parse dotted-quad ``text`` into an integer.

    Raises :class:`ValueError` for anything that is not a strict
    four-octet dotted quad (no shorthand like ``10.1``, no whitespace,
    no leading ``+``).
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        if not part or not part.isdigit() or len(part) > 3:
            raise ValueError(f"bad octet {part!r} in {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Format integer ``value`` as a dotted quad."""
    if not 0 <= value <= MAX_IPV4:
        raise ValueError(f"not an IPv4 integer: {value!r}")
    return (
        f"{value >> 24}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}"
        f".{value & 0xFF}"
    )


def is_valid_ip_int(value: int) -> bool:
    """Return True when ``value`` is within the IPv4 integer range."""
    return isinstance(value, int) and 0 <= value <= MAX_IPV4


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 prefix (CIDR block) as a value type.

    ``network`` is the integer form of the network address; ``length``
    is the mask length. Construction normalises (masks off host bits),
    so ``Prefix.from_text("10.0.0.5/24")`` raises — use
    :func:`covering_prefix` when you want the block around a host.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length out of range: {self.length}")
        if not is_valid_ip_int(self.network):
            raise ValueError(f"bad network integer: {self.network!r}")
        if self.network & ~self.mask():
            raise ValueError(
                f"host bits set in {int_to_ip(self.network)}/{self.length}"
            )

    @classmethod
    def from_text(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` notation."""
        addr, sep, length = text.partition("/")
        if not sep:
            raise ValueError(f"missing '/' in prefix {text!r}")
        if not length.isdigit():
            raise ValueError(f"bad prefix length in {text!r}")
        return cls(ip_to_int(addr), int(length))

    def mask(self) -> int:
        """Return the netmask as an integer."""
        if self.length == 0:
            return 0
        return (MAX_IPV4 << (32 - self.length)) & MAX_IPV4

    def contains(self, ip: int) -> bool:
        """Return True when integer address ``ip`` falls in this prefix."""
        return (ip & self.mask()) == self.network

    def contains_prefix(self, other: "Prefix") -> bool:
        """Return True when ``other`` is equal to or nested inside self."""
        return other.length >= self.length and self.contains(other.network)

    def first(self) -> int:
        """Lowest address in the block (the network address)."""
        return self.network

    def last(self) -> int:
        """Highest address in the block (the broadcast address)."""
        return self.network | (~self.mask() & MAX_IPV4)

    def size(self) -> int:
        """Number of addresses covered."""
        return 1 << (32 - self.length)

    def addresses(self) -> Iterator[int]:
        """Iterate every address in the block (use only on small blocks)."""
        return iter(range(self.first(), self.last() + 1))

    def subprefixes(self, length: int) -> Iterator["Prefix"]:
        """Iterate the sub-blocks of ``length`` tiling this prefix."""
        if length < self.length:
            raise ValueError(
                f"cannot tile /{self.length} with shorter /{length}"
            )
        step = 1 << (32 - length)
        return (
            Prefix(net, length)
            for net in range(self.first(), self.last() + 1, step)
        )

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.length}"


# Prefix is immutable, so the /24 and covering-prefix helpers can hand
# out shared cached instances; analyses resolve the same blocks over and
# over and the dataclass __post_init__ validation dominates otherwise.
@lru_cache(maxsize=1 << 16)
def covering_prefix(ip: int, length: int) -> Prefix:
    """Return the /``length`` prefix that covers integer address ``ip``."""
    if not is_valid_ip_int(ip):
        raise ValueError(f"bad address integer: {ip!r}")
    if not 0 <= length <= 32:
        raise ValueError(f"prefix length out of range: {length}")
    mask = Prefix(0, 0).mask() if length == 0 else (MAX_IPV4 << (32 - length)) & MAX_IPV4
    return Prefix(ip & mask, length)


@lru_cache(maxsize=1 << 16)
def slash24_of(ip: int) -> Prefix:
    """Return the covering /24 of ``ip`` — the paper's unit of dynamic
    address expansion (Section 3.2, "extent of dynamic addressing")."""
    return Prefix(ip & 0xFFFFFF00, 24)


def slash24_int(ip: int) -> int:
    """Return the /24 network as a bare integer (hot-path variant of
    :func:`slash24_of` that avoids allocating a Prefix)."""
    return ip & 0xFFFFFF00


def addresses_to_slash24s(ips: Iterable[int]) -> List[Prefix]:
    """Collapse addresses into their distinct covering /24 prefixes,
    sorted by network address."""
    nets = {slash24_int(ip) for ip in ips}
    return [Prefix(net, 24) for net in sorted(nets)]


def parse_ip_or_prefix(text: str) -> Prefix:
    """Parse either a bare address (→ /32) or CIDR notation.

    Blocklist feeds mix both forms; this is the tolerant entry point the
    parsers use.
    """
    text = text.strip()
    if "/" in text:
        addr, _, length_text = text.partition("/")
        if not length_text.isdigit():
            raise ValueError(f"bad prefix length in {text!r}")
        length = int(length_text)
        return covering_prefix(ip_to_int(addr), length)
    return Prefix(ip_to_int(text), 32)
