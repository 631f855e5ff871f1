"""Listing intervals and the queries the analysis needs.

The authoritative representation of "what was listed when" is the
:class:`Listing` interval — daily snapshots are a *view* materialised
from it (as in a real collection pipeline the direction is reversed,
and :func:`listings_from_snapshots` performs that reconstruction; a
round-trip property test pins the two down as inverses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = [
    "Listing",
    "ListingStore",
    "Window",
    "listings_from_snapshots",
]

#: An observation window as (first_day, last_day), both inclusive.
Window = Tuple[int, int]


@dataclass(frozen=True)
class Listing:
    """One continuous presence of ``ip`` on ``list_id``.

    ``first_day`` and ``last_day`` are inclusive day indices.
    """

    list_id: str
    ip: int
    first_day: int
    last_day: int

    def __post_init__(self) -> None:
        if self.last_day < self.first_day:
            raise ValueError(
                f"listing ends before it starts: {self.first_day}..{self.last_day}"
            )

    def duration_days(self) -> int:
        """Days the listing was present (inclusive count)."""
        return self.last_day - self.first_day + 1

    def active_on(self, day: int) -> bool:
        """True when the listing covers ``day``."""
        return self.first_day <= day <= self.last_day

    def observed_days(self, windows: Sequence[Window]) -> int:
        """Days of this listing that fall inside the collection
        windows — what a BLAG-style collector would have seen."""
        total = 0
        for start, end in windows:
            lo = max(self.first_day, start)
            hi = min(self.last_day, end)
            if hi >= lo:
                total += hi - lo + 1
        return total

    def max_observed_run(self, windows: Sequence[Window]) -> int:
        """Longest continuous observed presence within one window (the
        paper's "days in blocklist" caps at a window length: 44)."""
        best = 0
        for start, end in windows:
            lo = max(self.first_day, start)
            hi = min(self.last_day, end)
            if hi >= lo:
                best = max(best, hi - lo + 1)
        return best


class ListingStore:
    """All listings of a measurement campaign, indexed for analysis."""

    def __init__(self, listings: Iterable[Listing] = ()) -> None:
        self._listings: List[Listing] = []
        self._by_list: Dict[str, List[Listing]] = {}
        self._by_ip: Dict[int, List[Listing]] = {}
        for listing in listings:
            self.add(listing)

    def __len__(self) -> int:
        return len(self._listings)

    def __iter__(self) -> Iterator[Listing]:
        return iter(self._listings)

    def add(self, listing: Listing) -> None:
        """Insert one listing interval."""
        self._listings.append(listing)
        self._by_list.setdefault(listing.list_id, []).append(listing)
        self._by_ip.setdefault(listing.ip, []).append(listing)

    # -- basic queries -------------------------------------------------

    def list_ids(self) -> List[str]:
        """Every list that recorded at least one listing."""
        return sorted(self._by_list)

    def listings_of_list(self, list_id: str) -> List[Listing]:
        """Listings on one blocklist."""
        return list(self._by_list.get(list_id, ()))

    def listings_of_ip(self, ip: int) -> List[Listing]:
        """Listings of one address across all blocklists."""
        return list(self._by_ip.get(ip, ()))

    def all_ips(self) -> Set[int]:
        """Every address that was ever listed."""
        return set(self._by_ip)

    # -- window-scoped queries ------------------------------------------

    def observed(self, windows: Sequence[Window]) -> "ListingStore":
        """Restrict to listings visible during the collection windows
        (what the measurement study actually sees)."""
        return ListingStore(
            l for l in self._listings if l.observed_days(windows) > 0
        )

    def snapshot(self, list_id: str, day: int) -> Set[int]:
        """Addresses on ``list_id`` on ``day`` (a daily snapshot)."""
        return {
            l.ip for l in self._by_list.get(list_id, ()) if l.active_on(day)
        }

    def listings_active_on(self, ip: int, day: int) -> List[Listing]:
        """Listings of ``ip`` covering ``day``, across all lists.

        The interval-query dual of :meth:`snapshot` (which slices by
        list, this slices by address) — what an online consumer asks
        per connection. Ordered by list id, then start day.
        """
        return sorted(
            (l for l in self._by_ip.get(ip, ()) if l.active_on(day)),
            key=lambda l: (l.list_id, l.first_day),
        )

    def listing_count_per_list(
        self, windows: Sequence[Window], ips: Optional[Set[int]] = None
    ) -> Dict[str, int]:
        """Per-list count of observed listings, optionally restricted
        to a set of addresses (e.g. reused ones) — Figures 5/6."""
        counts: Dict[str, int] = {}
        for list_id, listings in self._by_list.items():
            seen: Set[int] = set()
            for listing in listings:
                if listing.observed_days(windows) == 0:
                    continue
                if ips is not None and listing.ip not in ips:
                    continue
                seen.add(listing.ip)
            counts[list_id] = len(seen)
        return counts

    def max_run_per_ip(self, windows: Sequence[Window]) -> Dict[int, int]:
        """Per-address longest continuous observed presence on any one
        list (Figure 7's duration measure)."""
        runs: Dict[int, int] = {}
        for listing in self._listings:
            run = listing.max_observed_run(windows)
            if run > 0:
                runs[listing.ip] = max(runs.get(listing.ip, 0), run)
        return runs


def listings_from_snapshots(
    snapshots: Mapping[int, Set[int]], list_id: str
) -> List[Listing]:
    """Reconstruct listing intervals from daily snapshots of one list.

    ``snapshots`` maps day → set of listed addresses. Days missing from
    the mapping are treated as gaps (collection outages split runs, the
    conservative choice a real pipeline makes).
    """
    if not snapshots:
        return []
    listings: List[Listing] = []
    open_runs: Dict[int, int] = {}  # ip -> run start day
    previous_day: Optional[int] = None
    for day in sorted(snapshots):
        listed = snapshots[day]
        contiguous = previous_day is not None and day == previous_day + 1
        if not contiguous and previous_day is not None:
            for ip, start in open_runs.items():
                listings.append(Listing(list_id, ip, start, previous_day))
            open_runs = {}
        ended = [ip for ip in open_runs if ip not in listed]
        for ip in ended:
            assert previous_day is not None
            listings.append(Listing(list_id, ip, open_runs.pop(ip), previous_day))
        for ip in listed:
            open_runs.setdefault(ip, day)
        previous_day = day
    assert previous_day is not None
    for ip, start in open_runs.items():
        listings.append(Listing(list_id, ip, start, previous_day))
    listings.sort(key=lambda l: (l.ip, l.first_day))
    return listings
