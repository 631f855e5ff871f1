"""Tests for population synthesis, ground truth, and the abuse model."""

import random

import pytest

from repro.internet.abuse import (
    AbuseCategory,
    AbuseConfig,
    AbuseEvent,
    generate_abuse,
)
from repro.internet.groundtruth import (
    ADDRESSING_DYNAMIC,
    ADDRESSING_STATIC,
    GroundTruth,
    LineInfo,
    NAT_CGN,
    NAT_HOME,
    NAT_NONE,
    UserInfo,
)
from repro.internet.population import PopulationConfig, build_population
from repro.internet.topology import TopologyConfig, build_topology
from repro.net.asdb import ASDatabase


def small_truth(seed=1):
    topo = build_topology(
        TopologyConfig(n_eyeball=4, n_hosting=2, n_backbone=1, max_slash16s=1),
        random.Random(seed),
    )
    config = PopulationConfig(
        static_single_lines_per_16=10,
        home_nat_lines_per_16=5,
        cgn_sites_per_16=1.0,
        dynamic_pools_per_as_range=(1, 1),
        pool_slash24s_range=(1, 1),
        pool_lines_per_24=20,
        fast_pool_lines_per_24=10,
        bt_blocked_as_fraction=0.0,
    )
    return build_population(topo, config, random.Random(seed)), topo, config


class TestGroundTruthContainer:
    def test_duplicate_line_rejected(self):
        truth = GroundTruth(ASDatabase(), 10.0)
        line = LineInfo(key="l1", asn=1, static_ip=1)
        truth.add_line(line)
        with pytest.raises(ValueError):
            truth.add_line(line)

    def test_user_requires_line(self):
        truth = GroundTruth(ASDatabase(), 10.0)
        with pytest.raises(KeyError):
            truth.add_user(UserInfo(key="u1", line_key="missing"))

    def test_line_validation(self):
        with pytest.raises(ValueError):
            LineInfo(key="l", asn=1, addressing="weird", static_ip=1)
        with pytest.raises(ValueError):
            LineInfo(key="l", asn=1, nat="weird", static_ip=1)
        with pytest.raises(ValueError):
            LineInfo(key="l", asn=1, addressing=ADDRESSING_STATIC)
        with pytest.raises(ValueError):
            LineInfo(key="l", asn=1, addressing=ADDRESSING_DYNAMIC)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            GroundTruth(ASDatabase(), 0.0)


class TestPopulation:
    def test_structure(self):
        truth, topo, config = small_truth()
        assert len(truth.lines) > 0
        assert len(truth.users) >= len(truth.lines)
        assert len(truth.pools) == 4  # one per eyeball AS

    def test_static_lines_have_owner_as_address(self):
        truth, topo, _ = small_truth()
        for line in truth.lines.values():
            if line.static_ip is not None:
                assert truth.asdb.asn_of(line.static_ip) == line.asn

    def test_nat_lines_have_multiple_users(self):
        truth, _, _ = small_truth()
        nat_lines = [l for l in truth.lines.values() if l.nat == NAT_HOME]
        assert nat_lines
        assert all(len(l.user_keys) >= 2 for l in nat_lines)

    def test_cgn_bigger_than_home(self):
        truth, _, config = small_truth()
        cgns = [l for l in truth.lines.values() if l.nat == NAT_CGN]
        homes = [l for l in truth.lines.values() if l.nat == NAT_HOME]
        assert cgns and homes
        assert min(len(l.user_keys) for l in cgns) > max(
            len(l.user_keys) for l in homes
        )

    def test_true_nated_ips_match_nat_lines(self):
        truth, _, _ = small_truth()
        nated = truth.true_nated_ips()
        for line in truth.lines.values():
            if line.nat != NAT_NONE and len(line.user_keys) >= 2:
                assert line.static_ip in nated

    def test_dynamic_lines_have_pool_timelines(self):
        truth, _, _ = small_truth()
        for line in truth.lines.values():
            if line.addressing == ADDRESSING_DYNAMIC:
                pool = truth.pools[line.pool_id]
                assert line.key in pool.timelines

    def test_ip_of_line_static_and_dynamic(self):
        truth, _, _ = small_truth()
        static = next(
            l for l in truth.lines.values() if l.addressing == ADDRESSING_STATIC
        )
        assert truth.ip_of_line(static.key, 5.0) == static.static_ip
        dynamic = next(
            l for l in truth.lines.values() if l.addressing == ADDRESSING_DYNAMIC
        )
        ip = truth.ip_of_line(dynamic.key, 5.0)
        assert ip is not None
        assert truth.asdb.asn_of(ip) == dynamic.asn

    def test_dynamic_slash24s_cover_pool_space(self):
        truth, _, _ = small_truth()
        blocks = truth.dynamic_slash24s()
        for pool in truth.pools.values():
            for block in pool.slash24s():
                assert block in blocks

    def test_fast_dynamic_subset(self):
        truth, _, _ = small_truth()
        assert truth.fast_dynamic_slash24s() <= truth.dynamic_slash24s()

    def test_bt_blocked_as_zeroes_adoption(self):
        topo = build_topology(
            TopologyConfig(n_eyeball=4, n_hosting=1, n_backbone=1, max_slash16s=1),
            random.Random(9),
        )
        config = PopulationConfig(
            static_single_lines_per_16=20,
            home_nat_lines_per_16=3,
            cgn_sites_per_16=0.0,
            dynamic_pools_per_as_range=(0, 0),
            bt_blocked_as_fraction=1.0,
        )
        truth = build_population(topo, config, random.Random(9))
        assert not truth.bittorrent_lines()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PopulationConfig(pool_lines_per_24=255)
        with pytest.raises(ValueError):
            PopulationConfig(cgn_users_range=(10, 5))
        with pytest.raises(ValueError):
            PopulationConfig(
                home_nat_user_sizes=(2, 3), home_nat_user_weights=(1.0,)
            )


class TestAbuse:
    def test_events_match_ground_truth_addresses(self):
        truth, _, _ = small_truth()
        events = generate_abuse(truth, AbuseConfig(), random.Random(3))
        assert events
        for event in events[:300]:
            user = truth.users[event.user_key]
            expected = truth.ip_of_line(user.line_key, event.day + 0.5)
            assert event.ip == expected

    def test_compromised_flagged(self):
        truth, _, _ = small_truth()
        events = generate_abuse(truth, AbuseConfig(), random.Random(3))
        emitters = {e.user_key for e in events}
        for user_key in emitters:
            assert truth.users[user_key].compromised

    def test_events_within_horizon(self):
        truth, _, _ = small_truth()
        events = generate_abuse(truth, AbuseConfig(), random.Random(3))
        assert all(0 <= e.day < truth.horizon_days for e in events)

    def test_events_sorted(self):
        truth, _, _ = small_truth()
        events = generate_abuse(truth, AbuseConfig(), random.Random(3))
        keys = [(e.day, e.ip, e.category) for e in events]
        assert keys == sorted(keys)

    def test_category_validation(self):
        with pytest.raises(ValueError):
            AbuseEvent(day=1, ip=1, user_key="u", category="phrenology")

    def test_zero_rates_no_events(self):
        truth, _, _ = small_truth()
        config = AbuseConfig(
            compromise_rate_bt=0.0,
            compromise_rate_other=0.0,
            compromise_rate_dynamic=0.0,
            compromise_rate_hosting=0.0,
        )
        assert generate_abuse(truth, config, random.Random(1)) == []

    def test_dynamic_compromise_spreads_addresses(self):
        truth, _, _ = small_truth()
        config = AbuseConfig(
            compromise_rate_bt=0.0,
            compromise_rate_other=0.0,
            compromise_rate_hosting=0.0,
            compromise_rate_dynamic=1.0,
            persistent_fraction=1.0,
            persistent_duration_mean_days=40.0,
        )
        events = generate_abuse(truth, config, random.Random(5))
        by_user = {}
        for e in events:
            by_user.setdefault(e.user_key, set()).add(e.ip)
        # At least one fast-pool abuser smears across several addresses.
        assert max(len(ips) for ips in by_user.values()) >= 3
