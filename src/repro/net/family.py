"""Address-family descriptors: the one place 32 vs 128 bits lives.

The serving stack — :class:`~repro.net.prefixtrie.PrefixTrie`,
:class:`~repro.cluster.partition.PartitionMap`,
:class:`~repro.service.index.ReputationIndex`, the wire codec — is
parameterized over an :class:`AddressFamily` instead of hard-coding
IPv4 widths. A family bundles the integer width, the *atom* (the
alignment unit below which reuse state must never straddle a shard:
the paper's /24 for v4, the Entropy/IP /64 subnet for v6), and the
text codecs, so family-generic code never branches on magic numbers.

Two singletons exist, :data:`V4` and :data:`V6`; identity comparison
(``family is V4``) is the idiom. Wire payloads name families by the
``name`` field (``"ipv4"`` / ``"ipv6"``); absent means v4 so every
pre-existing payload and snapshot keeps its meaning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

from ..ipv6.addr6 import MAX_IPV6, Prefix6, int_to_ip6, ip6_to_int
from .ipv4 import MAX_IPV4, Prefix, int_to_ip, ip_to_int

__all__ = [
    "AddressFamily",
    "AnyPrefix",
    "V4",
    "V6",
    "FAMILIES",
    "family_named",
    "family_of_ip",
]

#: A prefix of either family (both expose network/length/mask/contains).
AnyPrefix = Union[Prefix, Prefix6]


@dataclass(frozen=True)
class AddressFamily:
    """Widths, alignment and codecs for one address family."""

    #: Wire/snapshot name (``"ipv4"`` / ``"ipv6"``).
    name: str
    #: Address width in bits (32 / 128).
    bits: int
    #: Host bits below the alignment atom: 8 → /24 blocks for v4,
    #: 64 → /64 subnets for v6. Partition ranges and dynamic-prefix
    #: expansion align to this unit.
    atom_host_bits: int
    #: Text → int parser (raises ValueError on malformed input).
    parse: Callable[[str], int] = field(compare=False)
    #: Int → canonical text formatter.
    format: Callable[[int], str] = field(compare=False)
    #: Prefix constructor ``(network, length) -> prefix``.
    make_prefix: Callable[[int, int], AnyPrefix] = field(compare=False)

    @property
    def max_int(self) -> int:
        """Largest valid address integer."""
        return (1 << self.bits) - 1

    @property
    def atom_bits(self) -> int:
        """Prefix length of the alignment atom (24 for v4, 64 for v6)."""
        return self.bits - self.atom_host_bits

    @property
    def atom_mask(self) -> int:
        """Mask of the host bits inside one atom."""
        return (1 << self.atom_host_bits) - 1

    @property
    def total_atoms(self) -> int:
        """Number of atoms tiling the whole space."""
        return 1 << self.atom_bits

    def valid_ip(self, value: int) -> bool:
        """True when ``value`` is an in-range address integer."""
        return (
            isinstance(value, int)
            and not isinstance(value, bool)
            and 0 <= value <= self.max_int
        )

    def atom_prefix(self, ip: int) -> AnyPrefix:
        """The covering atom as a prefix (/24 for v4, /64 for v6)."""
        return self.make_prefix(ip & ~self.atom_mask, self.atom_bits)

    def hex(self, value: int) -> str:
        """Zero-padded hex rendering for error messages — 128-bit
        bounds are unreadable in decimal."""
        return f"0x{value:0{self.bits // 4}x}"

    def __repr__(self) -> str:  # keep reprs short in asserts/logs
        return f"<AddressFamily {self.name}>"


#: The IPv4 family: 32-bit addresses, /24 atoms.
V4 = AddressFamily(
    name="ipv4",
    bits=32,
    atom_host_bits=8,
    parse=ip_to_int,
    format=int_to_ip,
    make_prefix=Prefix,
)

#: The IPv6 family: 128-bit addresses, /64 atoms.
V6 = AddressFamily(
    name="ipv6",
    bits=128,
    atom_host_bits=64,
    parse=ip6_to_int,
    format=int_to_ip6,
    make_prefix=Prefix6,
)

#: Wire-name → family lookup.
FAMILIES = {V4.name: V4, V6.name: V6}


def family_named(name: object) -> AddressFamily:
    """Resolve a wire/snapshot family name; ``None`` means v4 (every
    payload written before families existed is v4)."""
    if name is None:
        return V4
    family = FAMILIES.get(name)  # type: ignore[arg-type]
    if family is None:
        raise ValueError(f"unknown address family: {name!r}")
    return family


def family_of_ip(text: str) -> AddressFamily:
    """Guess the family of an address literal from its syntax.

    A colon means v6, otherwise v4 — the parse itself still validates.
    """
    return V6 if ":" in text else V4
