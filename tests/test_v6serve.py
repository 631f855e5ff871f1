"""IPv6 serving tests: /64 pools, alias collapse, the hitlist-v6
scenario, and the acceptance bar — a multi-shard v6 cluster following
a live log answers verdicts identical to the static path, with
aliased prefixes excluded from reputation."""

import json
import random

import pytest

from repro.adversary import (
    adversary_names,
    get_adversary,
    scenario_index,
    score_scenario,
    verify_stream_fidelity,
    write_scenario_log,
)
from repro.cli import main
from repro.cluster import LocalCluster
from repro.ipv6.addr6 import Prefix6, int_to_ip6, ip6_to_int
from repro.ipv6.entropyip import REUSE_ROTATING, REUSE_STABLE
from repro.ipv6.generator import Strategy, SubnetPlan, generate_corpus
from repro.net.family import V4, V6
from repro.service.client import ReputationClient, ServiceError
from repro.service.engine import QueryEngine
from repro.service.index import ReputationIndex
from repro.service.server import ReputationServer
from repro.stream.epoch import EpochIndex, index_as_of
from repro.v6serve import (
    HitlistV6Model,
    cluster_pools,
    find_aliased_prefixes,
    prune_aliased,
    rotating_prefixes,
    v6_reuse_facts,
)
from tests.conftest import wait_for_seq


def _p6(text, length=64):
    return Prefix6(ip6_to_int(text), length)


def _mixed_corpus(rng):
    plans = (
        SubnetPlan(_p6("2001:db8:1::"), Strategy.PRIVACY, hosts=24),
        SubnetPlan(_p6("2001:db8:2::"), Strategy.EUI64, hosts=24),
        SubnetPlan(_p6("2001:db8:3::"), Strategy.SEQUENTIAL, hosts=12),
    )
    return generate_corpus(plans, rng)


class TestPools:
    def test_privacy_rotates_structured_stays_stable(self):
        pools = cluster_pools(_mixed_corpus(random.Random(3)))
        by_prefix = {str(p.prefix): p for p in pools}
        assert by_prefix["2001:db8:1::/64"].risk == REUSE_ROTATING
        assert by_prefix["2001:db8:2::/64"].risk == REUSE_STABLE
        assert by_prefix["2001:db8:3::/64"].risk == REUSE_STABLE

    def test_counts_and_order(self):
        corpus = _mixed_corpus(random.Random(3))
        pools = cluster_pools(corpus)
        assert [p.prefix for p in pools] == sorted(
            p.prefix for p in pools
        )
        assert sum(p.addresses for p in pools) == len(corpus)

    def test_rotating_prefixes_filters(self):
        pools = cluster_pools(_mixed_corpus(random.Random(3)))
        rotating = rotating_prefixes(pools)
        assert rotating == (_p6("2001:db8:1::"),)


class TestAliases:
    def test_aliased_block_detected_sparse_block_not(self):
        aliased_block = _p6("2001:db8:ff::")
        sparse_block = _p6("2001:db8:1::")
        population = {sparse_block.network | n for n in range(1, 30)}

        def responder(ip):
            return aliased_block.contains(ip) or ip in population

        found = find_aliased_prefixes(
            [aliased_block, sparse_block],
            responder,
            random.Random(0),
        )
        assert found == frozenset([aliased_block])

    def test_prune_keeps_order_and_drops_aliased(self):
        aliased = _p6("2001:db8:ff::")
        keep = [ip6_to_int("2001:db8:1::5"), ip6_to_int("2001:db8:1::9")]
        corpus = [keep[0], aliased.network | 7, keep[1]]
        assert prune_aliased(corpus, [aliased]) == keep

    def test_slash128_never_collapses(self):
        lone = Prefix6(ip6_to_int("2001:db8::1"), 128)
        found = find_aliased_prefixes(
            [lone], lambda _ip: True, random.Random(0)
        )
        assert found == frozenset()

    def test_probe_count_validated(self):
        with pytest.raises(ValueError):
            find_aliased_prefixes(
                [], lambda _ip: True, random.Random(0), probes=0
            )


class TestReuseFacts:
    def test_facts_exclude_aliased_and_flag_rotating(self):
        corpus = list(_mixed_corpus(random.Random(3)))
        aliased_block = _p6("2001:db8:ff::")
        rng = random.Random(1)
        corpus += [
            aliased_block.network | rng.getrandbits(64) for _ in range(20)
        ]
        population = set(corpus)

        def responder(ip):
            return ip in population or aliased_block.contains(ip)

        facts = v6_reuse_facts(
            corpus, responder=responder, rng=random.Random(2)
        )
        assert facts.aliased == frozenset([aliased_block])
        assert facts.dynamic_prefixes == (_p6("2001:db8:1::"),)
        assert all(
            not aliased_block.contains(ip) for ip in facts.hitlist
        )
        assert aliased_block not in {p.prefix for p in facts.pools}

    def test_default_responder_collapses_nothing(self):
        corpus = _mixed_corpus(random.Random(3))
        facts = v6_reuse_facts(corpus)
        assert facts.aliased == frozenset()
        assert facts.hitlist == tuple(corpus)


class TestHitlistModel:
    def test_registered_with_adversary_lab(self):
        assert "hitlist-v6" in adversary_names()
        assert isinstance(get_adversary("hitlist-v6"), HitlistV6Model)

    def test_deterministic_per_seed(self):
        model = HitlistV6Model()
        assert model.build(11) == model.build(11)
        assert model.build(11) != model.build(12)

    def test_crawler_discovers_and_alias_collapses(self):
        survey = HitlistV6Model().survey(5)
        metrics = survey.metrics()
        # The aliased block answers for generated candidates...
        assert metrics["discovered_aliased"] > 0
        # ...but never survives into the served facts.
        assert survey.facts.aliased == frozenset(
            [survey.aliased_prefix]
        )
        assert survey.aliased_prefix not in survey.facts.dynamic_prefixes
        assert all(
            not survey.aliased_prefix.contains(ip)
            for ip in survey.facts.hitlist
        )
        # Exactly the privacy pools are dynamic.
        assert metrics["rotating_pools"] == HitlistV6Model.PRIVACY_SUBNETS

    def test_scenario_is_ipv6_and_json_declares_it(self):
        scenario = HitlistV6Model().build(5)
        assert scenario.family == "ipv6"
        assert json.loads(scenario.to_json())["family"] == "ipv6"
        # v4 scenarios keep their pre-family document shape.
        v4_doc = json.loads(get_adversary("fast-flux").build(5).to_json())
        assert "family" not in v4_doc

    def test_a_served_snapshot_answers_the_cli(self, tmp_path, capsys):
        """The scenario's index saved, loaded back and served: a binary
        ``repro query --json`` answers a dynamic-pool address and a
        listed ip-day as the engine did before the round trip, and a v4
        literal is refused, naming the family."""
        scenario = HitlistV6Model().build(2020)
        index, path = scenario_index(scenario), tmp_path / "hitlist-v6.idx"
        engine = QueryEngine(index)
        listed, day = next((ip, day) for ip, day in sorted(
            scenario.ledger.malicious_ip_days) if engine.query(ip, day).listed)
        rotating = scenario.ledger.dynamic_prefixes[0].network | 1
        index.save(path)
        with ReputationServer(QueryEngine(ReputationIndex.load(path))) as server:
            port = str(server.start()[1])
            ips = [rotating, listed]
            assert main(["query", "--port", port, "--day", str(day), "--codec",
                         "binary", "--json", *map(V6.format, ips)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert main(["query", "--port", port, "192.0.2.1"]) == 2
            assert "ipv4" in capsys.readouterr().err
        verdicts = [json.loads(line) for line in lines]
        assert verdicts == [engine.query(ip, day).to_wire() for ip in ips]
        assert verdicts[0]["reuse_kind"] == "dynamic" and verdicts[1]["listed"]

    def test_scenario_index_serves_128_bit_verdicts(self):
        scenario = HitlistV6Model().build(5)
        index = scenario_index(scenario)
        assert index.family is V6
        engine = QueryEngine(index)
        pool = scenario.ledger.dynamic_prefixes[0]
        verdict = engine.query(pool.network | 1, 30).to_wire()
        assert verdict["reuse_kind"] == "dynamic"
        assert ":" in verdict["ip"]


class TestV6ClusterEndToEnd:
    """Acceptance: the seeded hitlist scenario served by a ≥2-shard v6
    cluster with a live LogFollower answers verdicts identical to the
    static path, and aliased space carries no reuse facts."""

    def test_sharded_follower_matches_static_path(self, tmp_path):
        model = HitlistV6Model()
        scenario = model.build(7)
        score = score_scenario(scenario)
        log_path = tmp_path / "hitlist-v6.log"
        write_scenario_log(score, log_path)

        from repro.adversary.bridge import scenario_batches

        # The static answer: the day-0 rollback plus the whole batch
        # stream applied in one process (same epoch/seq the followers
        # reach).
        batches = scenario_batches(score)
        epochs = EpochIndex(index_as_of(score.index, 0), day=0)
        for batch in batches:
            epochs.apply(batch)
        static = QueryEngine(epochs)
        eval_points = scenario.ledger.eval_points()
        sample = eval_points[:: max(1, len(eval_points) // 120)]

        base = index_as_of(score.index, 0)
        assert base.family is V6
        cluster = LocalCluster(
            base,
            shards=3,
            follow=log_path,
            start_day=0,
        )
        try:
            cluster.start()
            assert cluster.router.wait_healthy(10.0)
            assert cluster.partition.family is V6
            final_seq = batches[-1].seq
            assert wait_for_seq(cluster, final_seq, timeout=60.0)
            with ReputationClient(
                *cluster.address, family=V6
            ) as client:
                verdicts = client.query_batch(sample)
                for (ip, day), got in zip(sample, verdicts):
                    want = static.query(ip, day).to_wire()
                    assert got == want, (int_to_ip6(ip), day)

                # Aliased space never acquired reuse facts: a random
                # aliased-block address is not dynamic, while a
                # privacy-pool address is.
                survey = model.survey(7)
                aliased_ip = survey.aliased_prefix.network | 0xDEAD
                rotating_ip = (
                    scenario.ledger.dynamic_prefixes[0].network | 0xBEEF
                )
                aliased_verdict = client.query(aliased_ip, 30)
                rotating_verdict = client.query(rotating_ip, 30)
                assert aliased_verdict["reuse_kind"] != "dynamic"
                assert not aliased_verdict["dynamic"]
                assert rotating_verdict["reuse_kind"] == "dynamic"
        finally:
            cluster.close()

    def test_stream_fidelity_harness_passes(self, tmp_path):
        scenario = HitlistV6Model().build(3)
        score = score_scenario(scenario)
        log_path = tmp_path / "fidelity.log"
        write_scenario_log(score, log_path)
        summary = verify_stream_fidelity(score, log_path)
        assert summary["verdicts_compared"] == len(score.verdicts)


class TestDualPlaneCluster:
    """A cluster serves one family (for both, run two): each rejects
    the other family's work with a clear error."""

    @pytest.fixture(scope="class")
    def v4_index(self, small_full_run):
        from repro.service.index import ReputationIndex

        return ReputationIndex.from_run(small_full_run)

    @pytest.fixture(scope="class")
    def v6_scenario(self):
        return HitlistV6Model().build(7)

    @pytest.fixture(scope="class")
    def v6_index(self, v6_scenario):
        return scenario_index(v6_scenario)

    def test_v4_only_cluster_rejects_v6(self, v4_index):
        with LocalCluster(v4_index, shards=2) as cluster:
            assert cluster.router.wait_healthy(10.0)
            with ReputationClient(*cluster.address) as client:
                with pytest.raises(ServiceError, match="ipv6"):
                    client.query("2001:db8::1", 0)

    def test_pure_v6_cluster_rejects_v4(self, v6_index):
        with LocalCluster(v6_index, shards=2) as cluster:
            assert cluster.router.wait_healthy(10.0)
            with ReputationClient(
                *cluster.address, family=V6
            ) as client:
                with pytest.raises(ServiceError, match="ipv4"):
                    client.query("8.8.8.8", 0)


class TestV4NonRegression:
    """The family generalization must leave every v4 artefact
    byte-compatible: verdict wire shape, snapshot documents, and
    partition payloads carry no family key."""

    @staticmethod
    def _snapshot_header(path):
        """``(key bytes, family tag, sections)`` of a snapshot's fixed
        header (DESIGN.md §9, "Snapshot file")."""
        import struct

        _magic, _version, key_bytes, tag, sections, _size, _crc = (
            struct.unpack_from("<8sHH8sIQI", path.read_bytes())
        )
        return key_bytes, tag, sections

    def test_v4_snapshot_has_no_family_key(
        self, tmp_path, small_full_run
    ):
        from repro.service.index import ReputationIndex

        index = ReputationIndex.from_run(small_full_run)
        assert index.family is V4
        index.save(tmp_path / "v4.snap")
        assert self._snapshot_header(tmp_path / "v4.snap") == (
            4, bytes(8), 11
        )

    def test_v4_partition_wire_has_no_family_key(self):
        from repro.cluster import PartitionMap

        assert "family" not in PartitionMap(4).to_wire()
        payload = PartitionMap(4, family=V6).to_wire()
        assert payload["family"] == "ipv6"

    def test_v6_snapshot_round_trips_family(self, tmp_path):
        from repro.service.index import ReputationIndex

        scenario = HitlistV6Model().build(3)
        index = scenario_index(scenario)
        path = tmp_path / "v6.snap"
        index.save(path)
        assert self._snapshot_header(path) == (
            16, b"ipv6" + bytes(4), 14
        )
        restored = ReputationIndex.load(path)
        assert restored.family is V6
        ip = scenario.ledger.dynamic_prefixes[0].network | 9
        want = QueryEngine(index).query(ip, 20).to_wire()
        got = QueryEngine(restored).query(ip, 20).to_wire()
        assert got == want
