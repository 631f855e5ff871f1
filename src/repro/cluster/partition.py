"""Deterministic partitioning of an address space into shard ranges.

The cluster's correctness hinges on one property: a verdict must never
depend on *which* shard answered. The only cross-address state a
verdict reads is the dynamic-prefix classification (the paper expands
dynamic detections to their covering /24, Section 3.2; the IPv6
analogue is the Entropy/IP /64 subnet), so the partitioner splits the
space at the family's *atom* boundaries — every /24 (v4) or /64 (v6),
and with it every dynamic-prefix decision, lives wholly inside one
shard.

A :class:`PartitionMap` starts as a pure function of the shard count:
the family's atoms are split into ``shards`` contiguous, balanced
ranges (atom ``b`` goes to shard ``floor(b * shards / total_atoms)``),
so a router and any number of shard bootstrappers agree on the layout
without coordination. Online elasticity then generalises the layout:
:meth:`PartitionMap.split` halves one shard's range at an atom-aligned
midpoint, producing a *non-uniform* map, and
:meth:`PartitionMap.from_ranges` / :meth:`PartitionMap.from_wire`
validate and rebuild any such layout (the ``stats`` payload carries
it), keeping the single invariant — contiguous, gap-free, atom-aligned
coverage of the whole space — regardless of how the map was grown.

Validation errors render bounds in fixed-width hex alongside the
dotted/colon form: 128-bit integers are unreadable in decimal, and hex
makes an alignment slip (a low host bit set) visible at a glance.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from ..net.family import V4, AddressFamily, family_named

__all__ = ["MAX_SHARDS", "PartitionMap", "ShardRange"]

#: Upper bound on the shard count (one shard per atom at most is
#: absurd; this bound just keeps a typo'd count from allocating wild).
MAX_SHARDS = 4096


@dataclass(frozen=True, order=True)
class ShardRange:
    """One shard's contiguous, atom-aligned slice ``lo..hi`` (inclusive)."""

    lo: int
    hi: int
    family: AddressFamily = field(default=V4, compare=False)

    def __post_init__(self) -> None:
        fam = self.family
        if not (fam.valid_ip(self.lo) and fam.valid_ip(self.hi)):
            raise ValueError(
                f"bad {fam.name} range bounds: {self.lo!r}..{self.hi!r}"
            )
        if self.lo > self.hi:
            raise ValueError(
                f"range ends before it starts: "
                f"{fam.hex(self.lo)}..{fam.hex(self.hi)}"
            )
        if self.lo & fam.atom_mask or (self.hi & fam.atom_mask) != fam.atom_mask:
            raise ValueError(
                f"range not /{fam.atom_bits}-aligned: "
                f"{fam.format(self.lo)}..{fam.format(self.hi)} "
                f"({fam.hex(self.lo)}..{fam.hex(self.hi)})"
            )

    def contains(self, ip: int) -> bool:
        """True when integer address ``ip`` falls inside the range."""
        return self.lo <= ip <= self.hi

    def size(self) -> int:
        """Number of addresses covered."""
        return self.hi - self.lo + 1

    def to_wire(self) -> List[int]:
        """JSON-ready ``[lo, hi]`` pair."""
        return [self.lo, self.hi]

    @classmethod
    def from_wire(
        cls, row: Sequence[int], family: AddressFamily = V4
    ) -> "ShardRange":
        if not isinstance(row, (list, tuple)) or len(row) != 2:
            raise ValueError(f"range row must be [lo, hi]: {row!r}")
        return cls(int(row[0]), int(row[1]), family)

    def __str__(self) -> str:
        return f"{self.family.format(self.lo)}..{self.family.format(self.hi)}"


class PartitionMap:
    """The deterministic shard layout for a given shard count."""

    def __init__(self, shards: int, family: AddressFamily = V4) -> None:
        if not isinstance(shards, int) or isinstance(shards, bool):
            raise ValueError(f"shard count must be an integer: {shards!r}")
        if not 1 <= shards <= MAX_SHARDS:
            raise ValueError(
                f"shard count out of range 1..{MAX_SHARDS}: {shards}"
            )
        total_atoms = family.total_atoms
        host = family.atom_host_bits
        starts = [(i * total_atoms) // shards for i in range(shards)]
        ranges: List[ShardRange] = []
        for i, start_atom in enumerate(starts):
            end_atom = starts[i + 1] if i + 1 < shards else total_atoms
            ranges.append(
                ShardRange(
                    start_atom << host, (end_atom << host) - 1, family
                )
            )
        self._family = family
        self._set_ranges(tuple(ranges))

    def _set_ranges(self, ranges: Tuple[ShardRange, ...]) -> None:
        self._ranges: Tuple[ShardRange, ...] = ranges
        # Parallel start-atom array: the bisect key for shard_of.
        host = self._family.atom_host_bits
        self._atom_starts = [r.lo >> host for r in ranges]
        #: The first address of every shard but shard 0, ascending:
        #: ``bisect_right(splits, ip)`` is the shard of an address
        #: already known valid — the router's batch-wide partition.
        self.splits = [r.lo for r in ranges[1:]]

    @property
    def family(self) -> AddressFamily:
        """The address family this map partitions."""
        return self._family

    @classmethod
    def from_ranges(
        cls, ranges: Sequence[ShardRange], family: AddressFamily = V4
    ) -> "PartitionMap":
        """A map over an explicit (possibly non-uniform) range list.

        The ranges must cover the whole address space contiguously in
        order — no gaps, no overlaps — because ``shard_of`` must have
        exactly one answer for every address.
        """
        rows = tuple(ranges)
        if not rows:
            raise ValueError("a partition needs at least one range")
        if len(rows) > MAX_SHARDS:
            raise ValueError(
                f"{len(rows)} ranges exceed the {MAX_SHARDS}-shard cap"
            )
        for row in rows:
            if not isinstance(row, ShardRange):
                raise ValueError(f"not a ShardRange: {row!r}")
            if row.family is not family:
                raise ValueError(
                    f"range {row} is {row.family.name}, map is {family.name}"
                )
        if rows[0].lo != 0:
            raise ValueError(
                f"coverage must start at {family.format(0)}, not "
                f"{family.format(rows[0].lo)} ({family.hex(rows[0].lo)})"
            )
        if rows[-1].hi != family.max_int:
            raise ValueError(
                f"coverage must end at {family.hex(family.max_int)}, "
                f"not {family.hex(rows[-1].hi)}"
            )
        for left, right in zip(rows, rows[1:]):
            if right.lo != left.hi + 1:
                raise ValueError(
                    f"ranges must be contiguous: {left} then {right} "
                    f"(gap after {family.hex(left.hi)})"
                )
        pm = cls.__new__(cls)
        pm._family = family
        pm._set_ranges(rows)
        return pm

    @classmethod
    def from_wire(cls, payload: Any) -> "PartitionMap":
        """Rebuild a map from its :meth:`to_wire` payload."""
        if not isinstance(payload, dict):
            raise ValueError(f"partition payload must be an object: {payload!r}")
        family = family_named(payload.get("family"))
        rows = payload.get("ranges")
        if not isinstance(rows, list):
            raise ValueError(f"partition payload has no range list: {payload!r}")
        pm = cls.from_ranges(
            [ShardRange.from_wire(row, family) for row in rows], family
        )
        declared = payload.get("shards")
        if declared is not None and declared != len(pm):
            raise ValueError(
                f"partition payload declares {declared} shards but "
                f"carries {len(pm)} ranges"
            )
        return pm

    def split(self, shard_id: int) -> "PartitionMap":
        """A new map with shard ``shard_id`` halved at an atom-aligned
        midpoint; shards after it shift up by one id.

        Raises :class:`ValueError` when the shard covers a single atom
        (the partitioning unit — splitting it would strand a dynamic
        prefix across shards) or the map is already at the shard cap.
        """
        if not 0 <= shard_id < len(self._ranges):
            raise ValueError(
                f"no shard {shard_id} in a {len(self._ranges)}-shard map"
            )
        fam = self._family
        host = fam.atom_host_bits
        rng = self._ranges[shard_id]
        atoms = (rng.hi + 1 - rng.lo) >> host
        if atoms < 2:
            raise ValueError(
                f"shard {shard_id} covers a single /{fam.atom_bits} "
                f"({rng}); cannot split further"
            )
        if len(self._ranges) >= MAX_SHARDS:
            raise ValueError(
                f"map already at the {MAX_SHARDS}-shard cap"
            )
        mid = rng.lo + ((atoms // 2) << host)
        return PartitionMap.from_ranges(
            self._ranges[:shard_id]
            + (
                ShardRange(rng.lo, mid - 1, fam),
                ShardRange(mid, rng.hi, fam),
            )
            + self._ranges[shard_id + 1:],
            fam,
        )

    @property
    def ranges(self) -> Tuple[ShardRange, ...]:
        """Every shard's range, shard-id ordered."""
        return self._ranges

    def __len__(self) -> int:
        return len(self._ranges)

    def __iter__(self) -> Iterator[ShardRange]:
        return iter(self._ranges)

    def shard_of(self, ip: int) -> int:
        """The shard id owning integer address ``ip``."""
        if not self._family.valid_ip(ip):
            raise ValueError(f"bad address integer: {ip!r}")
        return (
            bisect_right(self._atom_starts, ip >> self._family.atom_host_bits)
            - 1
        )

    def range_of(self, shard_id: int) -> ShardRange:
        """The range of one shard (:class:`IndexError` when absent)."""
        return self._ranges[shard_id]

    def to_wire(self) -> Dict[str, Any]:
        """JSON-ready description (the ``stats`` op reports it).

        The ``family`` key is emitted only for non-v4 maps so v4
        payloads stay byte-identical to the pre-family wire format.
        """
        payload: Dict[str, Any] = {
            "shards": len(self._ranges),
            "ranges": [r.to_wire() for r in self._ranges],
        }
        if self._family is not V4:
            payload["family"] = self._family.name
        return payload

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PartitionMap)
            and self._family is other._family
            and self._ranges == other._ranges
        )

    def __hash__(self) -> int:
        return hash((self._family.name, self._ranges))
