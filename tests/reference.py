"""The brute-force reference every index answer is held to.

:class:`Reference` keeps an index's tables the way they arrive — a
dict of span lists, a set, a list of prefixes — and answers by
scanning them. It shares no code with ``repro.service.columns`` or the
index's record loop: ``compile`` hands the same tables to the code
under test, and :func:`packed` turns one of its verdicts into the
record the served path must send, byte for byte.
"""

from types import SimpleNamespace

from repro.adversary.scoring import scenario_listings
from repro.blocklists.catalog import build_catalog
from repro.net.family import V4, family_named
from repro.service.index import ReputationIndex, policy_category
from repro.service.wire import CODECS


class Reference:
    """What the index must say, computed the slow obvious way."""

    def __init__(
        self, *, windows, intervals, nated, users, dynamic_prefixes,
        categories, asn_by_ip, family=V4,
    ):
        self.windows = [tuple(w) for w in windows]
        self.intervals = {
            ip: sorted(tuple(s) for s in spans)
            for ip, spans in intervals.items()
            if spans
        }
        self.nated = set(nated)
        self.users = dict(users)
        self.dynamic_prefixes = list(dynamic_prefixes)
        self.categories = dict(categories)
        self.asn_by_ip = dict(asn_by_ip)
        self.family = family
        #: A slice's AS count: the whole run's, as ``restrict`` keeps it.
        self.run_ases = None

    def tables(self):
        return dict(
            windows=self.windows, intervals=self.intervals,
            nated=self.nated, users=self.users,
            dynamic_prefixes=self.dynamic_prefixes,
            categories=self.categories, asn_by_ip=self.asn_by_ip,
            family=self.family,
        )

    def compile(self):
        return ReputationIndex(**self.tables())

    def known_ips(self):
        return (
            set(self.intervals) | self.nated | set(self.users)
            | set(self.asn_by_ip)
        )

    def is_dynamic(self, ip):
        return any(
            p.first() <= ip <= p.last() for p in self.dynamic_prefixes
        )

    def verdict(self, ip, day):
        lists = tuple(
            sorted(
                list_id
                for first, last, list_id in self.intervals.get(ip, ())
                if first <= day <= last
            )
        )
        nated, dynamic = ip in self.nated, self.is_dynamic(ip)
        if not lists:
            action = "ignore"
        elif not (nated or dynamic) or any(
            self.categories.get(list_id) == "ddos" for list_id in lists
        ):
            action = "block"
        else:
            action = "greylist"
        return {
            "ip": ip,
            "day": day,
            "listed": bool(lists),
            "lists": lists,
            "nated": nated,
            "dynamic": dynamic,
            "unjust": bool(lists) and (nated or dynamic),
            "reuse_kind": "+".join(
                kind for kind, on in (("nat", nated), ("dynamic", dynamic))
                if on
            ),
            "users": self.users.get(ip, 0),
            "asn": self.asn_by_ip.get(ip, 0),
            "action": action,
            "epoch": 0,
            "seq": 0,
        }

    def as_of(self, day):
        """The model a follower holds on stream day ``day``: listings
        that began by then, each cut off there (what
        ``index_as_of`` and the log's batches up to that day make)."""
        tables = self.tables()
        tables["intervals"] = {
            ip: [
                (first, min(last, day), list_id)
                for first, last, list_id in spans if first <= day
            ]
            for ip, spans in self.intervals.items()
        }
        return Reference(**tables)

    def updated(self, updates):
        """The model after ``with_interval_updates(updates)``."""
        tables = self.tables()
        intervals = dict(self.intervals)
        for ip, spans in updates.items():
            intervals[ip] = list(spans)
        tables["intervals"] = intervals
        successor = Reference(**tables)
        successor.run_ases = self.run_ases
        return successor

    def restricted(self, lo, hi):
        tables = self.tables()
        for name in ("intervals", "users", "asn_by_ip"):
            tables[name] = {
                ip: value for ip, value in tables[name].items()
                if lo <= ip <= hi
            }
        tables["nated"] = {ip for ip in self.nated if lo <= ip <= hi}
        tables["dynamic_prefixes"] = [
            p for p in self.dynamic_prefixes
            if p.first() <= hi and p.last() >= lo
        ]
        piece = Reference(**tables)
        piece.run_ases = self.stats()["ases"]
        return piece

    def stats(self):
        """The counters of :meth:`ReputationIndex.stats`, recounted.
        (Dynamic prefixes are counted as given: the tests that compare
        this row pass no nested ones.)"""
        return {
            "ips": len(self.intervals),
            "intervals": sum(len(s) for s in self.intervals.values()),
            "nated_ips": len(self.nated),
            "dynamic_prefixes": len(self.dynamic_prefixes),
            "lists": len(self.categories),
            "ases": (
                len(set(self.asn_by_ip.values()))
                if self.run_ases is None else self.run_ases
            ),
        }


def packed(model, ip, day, epoch=0, seq=0):
    """The record the served path owes for ``(ip, day)``: the model's
    verdict, stamped ``(epoch, seq)``, packed by the family's codec.
    ``day=None`` is the model's default day, as on the wire."""
    if day is None:
        day = model.windows[-1][1] if model.windows else 0
    verdict = {**model.verdict(ip, day), "epoch": epoch, "seq": seq}
    return CODECS[model.family].pack_verdict(SimpleNamespace(**verdict))


def _intervals_of(listings):
    intervals = {}
    for listing in listings:
        intervals.setdefault(listing.ip, []).append(
            (listing.first_day, listing.last_day, listing.list_id)
        )
    return intervals


def run_model(run):
    """The model of ``ReputationIndex.from_run(run)``."""
    analysis = run.analysis
    return Reference(
        windows=analysis.windows,
        intervals=_intervals_of(analysis.observed),
        nated=analysis.nated_ips,
        users={
            ip: analysis.nat.users_behind(ip) for ip in analysis.nated_ips
        },
        dynamic_prefixes=analysis.dynamic_prefixes,
        categories={
            info.list_id: policy_category(info)
            for info in run.scenario.catalog
        },
        asn_by_ip={
            ip: analysis.asn_of(ip) for ip in analysis.blocklisted_ips
        },
    )


def scenario_model(scenario):
    """The model of ``repro.adversary.scenario_index(scenario)``."""
    ledger = scenario.ledger
    return Reference(
        windows=scenario.windows,
        intervals=_intervals_of(scenario_listings(scenario)),
        nated=set(ledger.nated_ips),
        users=dict(ledger.nated_ips),
        dynamic_prefixes=ledger.dynamic_prefixes,
        categories={
            info.list_id: policy_category(info) for info in build_catalog()
        },
        asn_by_ip=dict(ledger.asn_by_ip),
        family=family_named(scenario.family),
    )
