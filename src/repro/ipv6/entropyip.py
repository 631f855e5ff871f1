"""Entropy/IP-style IPv6 address-structure discovery.

A simplified but faithful implementation of Foremski, Plonka & Berger,
"Entropy/IP: Uncovering Structure in IPv6 Addresses" (IMC 2016) — the
technique the paper names for extending reuse detection to IPv6:

1. compute the normalised Shannon entropy of each of the 32 nibbles
   over the corpus;
2. segment the address into runs of adjacent nibbles with similar
   entropy;
3. classify each segment (constant / structured / random) and mine the
   frequent values of non-random segments.

On top of the structure model, :func:`classify_reuse_risk` maps a /64's
interface-identifier structure to an address-reuse judgement: random
IIDs (RFC 4941 privacy addresses) rotate, so blocklisting them as
/128s mis-targets quickly — the IPv6 analogue of the paper's dynamic
IPv4 space.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .addr6 import NIBBLES, interface_id, nibbles, subnet_of

__all__ = [
    "SEGMENT_CONSTANT",
    "SEGMENT_STRUCTURED",
    "SEGMENT_RANDOM",
    "Segment",
    "AddressStructure",
    "nibble_entropies",
    "analyze",
    "REUSE_ROTATING",
    "REUSE_STABLE",
    "classify_reuse_risk",
]

SEGMENT_CONSTANT = "constant"
SEGMENT_STRUCTURED = "structured"
SEGMENT_RANDOM = "random"

REUSE_ROTATING = "rotating"  # privacy-style IIDs: short-lived addresses
REUSE_STABLE = "stable"      # EUI-64/sequential: long-lived addresses


@dataclass(frozen=True)
class Segment:
    """A run of adjacent nibbles with homogeneous entropy."""

    start: int  # first nibble index (0 = most significant)
    end: int    # inclusive last nibble index
    mean_entropy: float
    kind: str
    #: Most frequent values (hex strings) with their corpus frequency,
    #: for non-random segments.
    top_values: Tuple[Tuple[str, float], ...] = ()

    @property
    def width(self) -> int:
        """Number of nibbles covered."""
        return self.end - self.start + 1


@dataclass
class AddressStructure:
    """The discovered structure of a corpus."""

    corpus_size: int
    entropies: List[float]
    segments: List[Segment] = field(default_factory=list)

    def segment_at(self, nibble_index: int) -> Segment:
        """The segment covering ``nibble_index``."""
        for segment in self.segments:
            if segment.start <= nibble_index <= segment.end:
                return segment
        raise IndexError(f"no segment covers nibble {nibble_index}")

    def sample(self, rng) -> int:
        """Generate one candidate address from the discovered model —
        Entropy/IP's target-generation use-case (scanning hitlists).

        Non-random segments draw from their mined value distribution;
        random segments draw uniform nibbles.
        """
        value = 0
        for segment in self.segments:
            width_bits = 4 * segment.width
            if segment.kind == SEGMENT_RANDOM or not segment.top_values:
                part = rng.getrandbits(width_bits)
            else:
                values = [v for v, _ in segment.top_values]
                weights = [f for _, f in segment.top_values]
                part = int(rng.choices(values, weights=weights)[0], 16)
            value = (value << width_bits) | part
        return value

    def generate_candidates(self, rng, count: int) -> List[int]:
        """Generate ``count`` distinct candidate addresses."""
        if count <= 0:
            raise ValueError("need a positive candidate count")
        out = set()
        attempts = 0
        while len(out) < count and attempts < count * 50:
            out.add(self.sample(rng))
            attempts += 1
        return sorted(out)

    def render(self) -> str:
        """Human-readable structure summary."""
        lines = [
            f"corpus: {self.corpus_size} addresses; "
            f"{len(self.segments)} segments"
        ]
        for segment in self.segments:
            values = ", ".join(
                f"{v}({f:.0%})" for v, f in segment.top_values[:3]
            )
            lines.append(
                f"  nibbles {segment.start:2d}-{segment.end:2d} "
                f"H={segment.mean_entropy:.2f} {segment.kind:10s} {values}"
            )
        return "\n".join(lines)


def nibble_entropies(corpus: Sequence[int]) -> List[float]:
    """Normalised (0..1) Shannon entropy of each nibble position."""
    if not corpus:
        raise ValueError("empty corpus")
    counts = [Counter() for _ in range(NIBBLES)]
    for address in corpus:
        for index, value in enumerate(nibbles(address)):
            counts[index][value] += 1
    total = len(corpus)
    entropies: List[float] = []
    for counter in counts:
        h = 0.0
        for count in counter.values():
            p = count / total
            h -= p * math.log2(p)
        entropies.append(h / 4.0)  # 4 bits per nibble
    return entropies


def _classify(mean_entropy: float) -> str:
    if mean_entropy < 0.05:
        return SEGMENT_CONSTANT
    if mean_entropy < 0.75:
        return SEGMENT_STRUCTURED
    return SEGMENT_RANDOM


def analyze(
    corpus: Sequence[int],
    *,
    split_threshold: float = 0.25,
    top_k: int = 5,
) -> AddressStructure:
    """Discover the structure of ``corpus``.

    Adjacent nibbles join one segment while their entropy stays within
    ``split_threshold`` of the segment's running mean; each segment is
    then classified and (when not random) its frequent values mined.
    """
    entropies = nibble_entropies(corpus)
    structure = AddressStructure(
        corpus_size=len(corpus), entropies=entropies
    )
    start = 0
    running: List[float] = [entropies[0]]
    for index in range(1, NIBBLES + 1):
        if index < NIBBLES:
            mean = sum(running) / len(running)
            if abs(entropies[index] - mean) <= split_threshold:
                running.append(entropies[index])
                continue
        end = index - 1
        mean = sum(running) / len(running)
        kind = _classify(mean)
        top = (
            _mine_values(corpus, start, end, top_k)
            if kind != SEGMENT_RANDOM
            else ()
        )
        structure.segments.append(
            Segment(
                start=start,
                end=end,
                mean_entropy=round(mean, 4),
                kind=kind,
                top_values=top,
            )
        )
        if index < NIBBLES:
            start = index
            running = [entropies[index]]
    return structure


def _mine_values(
    corpus: Sequence[int], start: int, end: int, top_k: int
) -> Tuple[Tuple[str, float], ...]:
    """Frequent hex values of the nibble range [start, end]."""
    width = end - start + 1
    shift = 4 * (NIBBLES - 1 - end)
    mask = (1 << (4 * width)) - 1
    counter: Counter = Counter(
        (address >> shift) & mask for address in corpus
    )
    total = len(corpus)
    return tuple(
        (f"{value:0{width}x}", count / total)
        for value, count in counter.most_common(top_k)
    )


def classify_reuse_risk(
    corpus: Sequence[int],
) -> Dict[str, str]:
    """Judge per-/64 address stability from IID structure.

    Returns subnet (text) → :data:`REUSE_ROTATING` when the subnet's
    interface identifiers look random (privacy addressing: addresses
    rotate, so /128 blocklist entries go stale and can mis-target), or
    :data:`REUSE_STABLE` otherwise.

    Uses a per-subnet IID entropy estimate rather than the global
    segmentation, since strategies differ per subnet.
    """
    by_subnet: Dict[str, List[int]] = {}
    for address in corpus:
        by_subnet.setdefault(str(subnet_of(address)), []).append(address)
    verdicts: Dict[str, str] = {}
    for subnet, addresses in by_subnet.items():
        if len(addresses) < 4:
            # Too few samples to call randomness; stability is the
            # conservative default.
            verdicts[subnet] = REUSE_STABLE
            continue
        iids = [interface_id(a) for a in addresses]
        # Estimate: fraction of the 16 IID nibbles with high entropy.
        entropies = nibble_entropies(iids)[16:]
        high = sum(1 for h in entropies if h > 0.75)
        verdicts[subnet] = (
            REUSE_ROTATING if high >= 12 else REUSE_STABLE
        )
    return verdicts
