"""Bench-side oracle: what the verdict must be, from the raw tables.

Nothing here imports the system under test. The verdict fields the
paper's claim rests on — ``listed``, ``lists``, ``nated``, ``dynamic``,
``unjust`` and the Section 6 ``action`` — are recomputed from the flat
columns :mod:`synth` generated, so a reply can be checked without
trusting the index, engine or codec that produced it.

For the churn workload the oracle also keeps, per touched address, the
interval table after each update-log batch: :meth:`Oracle.expected`
answers for the state *at the reply's* ``seq``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

from synth import Tables

__all__ = ["CHECKED_FIELDS", "Oracle"]

#: Verdict fields compared against the oracle.
CHECKED_FIELDS = ("listed", "lists", "nated", "dynamic", "unjust", "action")

#: Interval key → last day: ``(list index, first day) -> last day``.
_SpanTable = Dict[Tuple[int, int], int]


def _contains(column: Sequence[int], value: int) -> bool:
    spot = bisect_left(column, value)
    return spot < len(column) and column[spot] == value


class Oracle:
    """Expected verdicts over ``tables`` plus any applied churn."""

    def __init__(self, tables: Tables) -> None:
        self._t = tables
        self._list_index = {
            list_id: idx for idx, list_id in enumerate(tables.list_ids)
        }
        self._ddos = frozenset(
            idx
            for idx, category in enumerate(tables.categories)
            if category == "ddos"
        )
        self.default_day = tables.windows[-1][1]
        # ip -> ([seq, ...], [table after that seq, ...]), seq ascending.
        self._versions: Dict[int, Tuple[List[int], List[_SpanTable]]] = {}

    # -- listing state -------------------------------------------------

    def _base_table(self, ip: int) -> _SpanTable:
        t = self._t
        spot = bisect_left(t.ips, ip)
        if spot == len(t.ips) or t.ips[spot] != ip:
            return {}
        return {
            (t.list_idx[row], t.firsts[row]): t.lasts[row]
            for row in range(t.offsets[spot], t.offsets[spot + 1])
        }

    def table_at(self, ip: int, seq: int) -> _SpanTable:
        """The address's interval table after log batch ``seq``."""
        versions = self._versions.get(ip)
        if versions is not None:
            cut = bisect_right(versions[0], seq)
            if cut:
                return versions[1][cut - 1]
        return self._base_table(ip)

    def apply(
        self, seq: int, deltas: Sequence[Tuple[str, int, str, int, int]]
    ) -> None:
        """Record batch ``seq``: ``(op, ip, list_id, first, last)`` rows
        with the update log's semantics — ``add`` / ``extend`` /
        ``delist`` set the interval's last day, a ``delist`` ending
        before it starts retracts the interval."""
        touched: Dict[int, _SpanTable] = {}
        for op, ip, list_id, first, last in deltas:
            table = touched.get(ip)
            if table is None:
                table = touched[ip] = dict(self.table_at(ip, seq))
            key = (self._list_index[list_id], first)
            if op == "delist" and last < first:
                table.pop(key, None)
            else:
                table[key] = last
        for ip, table in touched.items():
            seqs, tables = self._versions.setdefault(ip, ([], []))
            seqs.append(seq)
            tables.append(table)

    # -- verdicts ------------------------------------------------------

    def expected(
        self, ip: int, day: Optional[int], seq: int = 0
    ) -> Dict[str, Any]:
        """The checked verdict fields for ``(ip, day)`` at ``seq``."""
        t = self._t
        when = self.default_day if day is None else day
        active = sorted(
            {
                which
                for (which, first), last in self.table_at(ip, seq).items()
                if first <= when <= last
            },
            key=t.list_ids.__getitem__,
        )
        nated = _contains(t.nated_ips, ip)
        dynamic = _contains(t.dynamic_nets, ip & ~0xFF)
        listed = bool(active)
        if not listed:
            action = "ignore"
        elif (nated or dynamic) and not any(w in self._ddos for w in active):
            action = "greylist"
        else:
            action = "block"
        return {
            "listed": listed,
            "lists": [t.list_ids[which] for which in active],
            "nated": nated,
            "dynamic": dynamic,
            "unjust": listed and (nated or dynamic),
            "action": action,
        }

    def matches(
        self, ip: int, day: Optional[int], verdict: Dict[str, Any]
    ) -> bool:
        """True when ``verdict`` answers ``(ip, day)`` and agrees with
        the oracle at the ``seq`` the verdict itself reports."""
        if "error" in verdict:
            return False
        when = self.default_day if day is None else day
        if verdict.get("day") != when or verdict.get("ip") != (
            f"{ip >> 24}.{(ip >> 16) & 255}.{(ip >> 8) & 255}.{ip & 255}"
        ):
            return False
        want = self.expected(ip, day, verdict.get("seq", 0))
        return all(verdict.get(name) == want[name] for name in CHECKED_FIELDS)
