"""Tests for repro.net.asdb and repro.net.ports."""

import random

import pytest

from repro.net.asdb import ASDatabase, ASKind, ASRecord
from repro.net.ipv4 import Prefix, ip_to_int
from repro.net.ports import (
    BITTORRENT_COMMON_RANGE,
    EPHEMERAL_RANGE,
    PortAllocator,
    is_valid_port,
)


def P(text):
    return Prefix.from_text(text)


class TestASRecord:
    def test_valid(self):
        rec = ASRecord(asn=64500, name="x", prefixes=[P("1.0.0.0/16")])
        assert rec.address_count() == 65536

    def test_bad_asn(self):
        with pytest.raises(ValueError):
            ASRecord(asn=0, name="x")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ASRecord(asn=1, name="x", kind="alien")


class TestASDatabase:
    def _db(self):
        db = ASDatabase()
        db.add(ASRecord(64500, "eye", ASKind.EYEBALL, "EU", [P("1.0.0.0/16")]))
        db.add(ASRecord(64501, "host", ASKind.HOSTING, "NA", [P("2.0.0.0/16")]))
        return db

    def test_lookup(self):
        db = self._db()
        assert db.asn_of(ip_to_int("1.0.5.5")) == 64500
        assert db.asn_of(ip_to_int("2.0.5.5")) == 64501
        assert db.asn_of(ip_to_int("9.9.9.9")) is None

    def test_record_of(self):
        db = self._db()
        rec = db.record_of(ip_to_int("1.0.0.1"))
        assert rec is not None and rec.name == "eye"

    def test_duplicate_asn_rejected(self):
        db = self._db()
        with pytest.raises(ValueError):
            db.add(ASRecord(64500, "dup"))

    def test_announce(self):
        db = self._db()
        db.announce(64500, P("3.0.0.0/24"))
        assert db.asn_of(ip_to_int("3.0.0.77")) == 64500

    def test_announce_unknown_asn(self):
        db = self._db()
        with pytest.raises(KeyError):
            db.announce(65000, P("3.0.0.0/24"))

    def test_iteration_sorted(self):
        db = self._db()
        assert [r.asn for r in db] == [64500, 64501]
        assert len(db) == 2
        assert 64500 in db


class TestPortAllocator:
    def test_allocate_unique(self):
        alloc = PortAllocator(random.Random(1), 1000, 1050)
        ports = {alloc.allocate() for _ in range(51)}
        assert len(ports) == 51
        assert all(1000 <= p <= 1050 for p in ports)

    def test_exhaustion(self):
        alloc = PortAllocator(random.Random(1), 1000, 1001)
        alloc.allocate()
        alloc.allocate()
        with pytest.raises(RuntimeError):
            alloc.allocate()

    def test_claim_and_release(self):
        alloc = PortAllocator(random.Random(1), 1000, 1010)
        assert alloc.claim(1005)
        assert not alloc.claim(1005)
        assert 1005 in alloc
        alloc.release(1005)
        assert 1005 not in alloc
        assert alloc.claim(1005)

    def test_release_unallocated_raises(self):
        alloc = PortAllocator(random.Random(1), 1000, 1010)
        with pytest.raises(KeyError):
            alloc.release(1000)

    def test_claim_out_of_range(self):
        alloc = PortAllocator(random.Random(1), 1000, 1010)
        assert not alloc.claim(999)
        assert not alloc.claim(1011)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            PortAllocator(random.Random(1), 10, 5)
        with pytest.raises(ValueError):
            PortAllocator(random.Random(1), 0, 5)

    def test_counters(self):
        alloc = PortAllocator(random.Random(1), 1000, 1009)
        assert alloc.capacity == 10
        alloc.allocate()
        assert alloc.in_use == 1


class TestPortPredicates:
    def test_is_valid_port(self):
        assert is_valid_port(1)
        assert is_valid_port(65535)
        assert not is_valid_port(0)
        assert not is_valid_port(65536)
        assert not is_valid_port(-1)

    def test_ranges_sane(self):
        assert EPHEMERAL_RANGE[0] < EPHEMERAL_RANGE[1]
        assert BITTORRENT_COMMON_RANGE[0] >= 1024
