#!/usr/bin/env python3
"""IPv6 address-structure discovery — the paper's future-work path.

The study covers IPv4 only, but its related-work section points to
Entropy/IP (Foremski et al.) as the way to find reused IPv6 space.
This example builds an active-address corpus from four allocation
strategies, discovers its structure, and classifies each /64's
reuse risk: privacy-addressed subnets rotate their addresses (the
IPv6 analogue of dynamic IPv4 pools), so /128 blocklist entries there
go stale and mis-target quickly.

Run:  python examples/ipv6_entropy_analysis.py
"""

import random

from repro.ipv6.addr6 import Prefix6, int_to_ip6
from repro.ipv6.entropyip import analyze, classify_reuse_risk
from repro.ipv6.generator import Strategy, SubnetPlan, generate_corpus


def main() -> None:
    plans = [
        SubnetPlan(
            Prefix6.from_text("2001:db8:aa:1::/64"),
            Strategy.PRIVACY,
            hosts=120,
        ),
        SubnetPlan(
            Prefix6.from_text("2001:db8:aa:2::/64"), Strategy.EUI64, hosts=120
        ),
        SubnetPlan(
            Prefix6.from_text("2001:db8:aa:3::/64"),
            Strategy.SEQUENTIAL,
            hosts=60,
        ),
        SubnetPlan(
            Prefix6.from_text("2001:db8:aa:4::/64"),
            Strategy.SERVICE,
            hosts=30,
        ),
    ]
    corpus = generate_corpus(plans, random.Random(2026))
    print(f"corpus: {len(corpus)} active addresses, e.g.")
    for address in corpus[:4]:
        print(f"  {int_to_ip6(address)}")

    print("\ndiscovered structure (Entropy/IP):")
    structure = analyze(corpus)
    print(structure.render())

    print("\nper-/64 reuse risk (would a /128 blocklist entry go stale?):")
    truth = {
        "2001:db8:aa:1::/64": "privacy (rotates)",
        "2001:db8:aa:2::/64": "EUI-64 (stable)",
        "2001:db8:aa:3::/64": "sequential (stable)",
        "2001:db8:aa:4::/64": "service (stable)",
    }
    verdicts = classify_reuse_risk(corpus)
    for subnet in sorted(verdicts):
        print(f"  {subnet:24s} -> {verdicts[subnet]:9s}"
              f"   (ground truth: {truth.get(subnet, '?')})")

    print(
        "\nrotating subnets are the IPv6 analogue of the paper's dynamic "
        "IPv4 pools:\nblocklist their prefixes with care — individual "
        "addresses are ephemeral."
    )


if __name__ == "__main__":
    main()
