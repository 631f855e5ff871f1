"""Tests for repro.net.ipv4."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.ipv4 import (
    MAX_IPV4,
    Prefix,
    addresses_to_slash24s,
    covering_prefix,
    int_to_ip,
    ip_to_int,
    is_valid_ip_int,
    parse_ip_or_prefix,
    slash24_int,
    slash24_of,
)


class TestIpConversion:
    def test_parse_simple(self):
        assert ip_to_int("1.2.3.4") == 0x01020304

    def test_parse_zero(self):
        assert ip_to_int("0.0.0.0") == 0

    def test_parse_max(self):
        assert ip_to_int("255.255.255.255") == MAX_IPV4

    def test_format_simple(self):
        assert int_to_ip(0x01020304) == "1.2.3.4"

    @pytest.mark.parametrize(
        "bad",
        ["", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3",
         "1.2.3.+4", " 1.2.3.4", "1.2.3.4 ", "01.2.3.4444"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            ip_to_int(bad)

    @pytest.mark.parametrize("bad", [-1, MAX_IPV4 + 1])
    def test_format_rejects(self, bad):
        with pytest.raises(ValueError):
            int_to_ip(bad)

    def test_format_equals_the_octet_join_it_replaced(self):
        """``int_to_ip`` is an f-string over the four octets; the
        generator-and-join form it replaced stays here as reference."""
        rng = random.Random(2020)
        sample = [rng.randrange(MAX_IPV4 + 1) for _ in range(100_000)]
        sample += [0, 1, 255, 256, 0x7FFFFFFF, 0x80000000, MAX_IPV4 - 1,
                   MAX_IPV4, True]
        for value in sample:
            assert int_to_ip(value) == ".".join(
                str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
            )

    def test_is_valid(self):
        assert is_valid_ip_int(0)
        assert is_valid_ip_int(MAX_IPV4)
        assert not is_valid_ip_int(-1)
        assert not is_valid_ip_int(MAX_IPV4 + 1)

    @given(st.integers(min_value=0, max_value=MAX_IPV4))
    def test_roundtrip(self, value):
        assert ip_to_int(int_to_ip(value)) == value


class TestPrefix:
    def test_from_text(self):
        p = Prefix.from_text("10.0.0.0/8")
        assert p.network == ip_to_int("10.0.0.0")
        assert p.length == 8

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Prefix.from_text("10.0.0.5/24")

    def test_bad_length(self):
        with pytest.raises(ValueError):
            Prefix(0, 33)

    def test_contains(self):
        p = Prefix.from_text("192.0.0.0/24")
        assert p.contains(ip_to_int("192.0.0.200"))
        assert not p.contains(ip_to_int("192.0.1.0"))

    def test_contains_prefix_nested(self):
        outer = Prefix.from_text("10.0.0.0/8")
        inner = Prefix.from_text("10.5.0.0/16")
        assert outer.contains_prefix(inner)
        assert not inner.contains_prefix(outer)

    def test_contains_prefix_self(self):
        p = Prefix.from_text("10.0.0.0/8")
        assert p.contains_prefix(p)

    def test_first_last_size(self):
        p = Prefix.from_text("1.2.3.0/24")
        assert p.first() == ip_to_int("1.2.3.0")
        assert p.last() == ip_to_int("1.2.3.255")
        assert p.size() == 256

    def test_zero_length_prefix(self):
        p = Prefix(0, 0)
        assert p.contains(0)
        assert p.contains(MAX_IPV4)
        assert p.size() == 1 << 32

    def test_slash32(self):
        p = Prefix(ip_to_int("9.9.9.9"), 32)
        assert p.size() == 1
        assert list(p.addresses()) == [ip_to_int("9.9.9.9")]

    def test_subprefixes(self):
        p = Prefix.from_text("10.0.0.0/22")
        subs = list(p.subprefixes(24))
        assert len(subs) == 4
        assert subs[0] == Prefix.from_text("10.0.0.0/24")
        assert subs[-1] == Prefix.from_text("10.0.3.0/24")

    def test_subprefixes_shorter_rejected(self):
        with pytest.raises(ValueError):
            list(Prefix.from_text("10.0.0.0/24").subprefixes(16))

    def test_ordering_and_str(self):
        a = Prefix.from_text("1.0.0.0/8")
        b = Prefix.from_text("2.0.0.0/8")
        assert a < b
        assert str(a) == "1.0.0.0/8"

    @given(
        st.integers(min_value=0, max_value=MAX_IPV4),
        st.integers(min_value=0, max_value=32),
    )
    def test_covering_prefix_contains(self, ip, length):
        prefix = covering_prefix(ip, length)
        assert prefix.contains(ip)
        assert prefix.length == length


class TestSlash24:
    def test_slash24_of(self):
        assert slash24_of(ip_to_int("1.2.3.77")) == Prefix.from_text("1.2.3.0/24")

    def test_slash24_int_matches(self):
        ip = ip_to_int("9.8.7.6")
        assert slash24_int(ip) == slash24_of(ip).network

    def test_addresses_to_slash24s_dedup(self):
        ips = [ip_to_int("1.2.3.4"), ip_to_int("1.2.3.200"), ip_to_int("1.2.4.1")]
        blocks = addresses_to_slash24s(ips)
        assert blocks == [
            Prefix.from_text("1.2.3.0/24"),
            Prefix.from_text("1.2.4.0/24"),
        ]


class TestParseIpOrPrefix:
    def test_bare_ip(self):
        assert parse_ip_or_prefix("4.4.4.4") == Prefix(ip_to_int("4.4.4.4"), 32)

    def test_cidr(self):
        assert parse_ip_or_prefix("10.1.0.0/16") == Prefix.from_text("10.1.0.0/16")

    def test_cidr_with_host_bits_normalised(self):
        assert parse_ip_or_prefix("10.1.2.3/16") == Prefix.from_text("10.1.0.0/16")

    def test_whitespace_tolerated(self):
        assert parse_ip_or_prefix("  8.8.8.8\n") == Prefix(ip_to_int("8.8.8.8"), 32)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_ip_or_prefix("10.0.0.0/xx")
