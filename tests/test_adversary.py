"""Tests for the adversary lab: models, scoring, streaming fidelity.

The golden pins here are the determinism contract: every metric is a
pure function of ``(scenario, seed)``, so the exact values at seed
2020 must never drift without an intentional model change.
"""

import json

import pytest

from repro.adversary import (
    StreamFidelityError,
    adversary_names,
    get_adversary,
    render_score_table,
    scenario_rng,
    score_scenario,
    verify_stream_fidelity,
    write_scenario_log,
)
from repro.adversary.models import HORIZON_DAYS
from repro.cli import main
from repro.internet.abuse import event_sort_key

SEED = 2020

_SCENARIOS = {}
_SCORES = {}


def build_cached(name):
    if name not in _SCENARIOS:
        _SCENARIOS[name] = get_adversary(name).build(SEED)
    return _SCENARIOS[name]


def score_cached(name):
    if name not in _SCORES:
        _SCORES[name] = score_scenario(build_cached(name))
    return _SCORES[name]


class TestRegistry:
    def test_registered_names(self):
        assert adversary_names() == (
            "fast-flux",
            "cgn-shelter",
            "campaign-hop",
            "slow-drip",
            "hitlist-v6",
        )

    def test_models_self_describe(self):
        for name in adversary_names():
            model = get_adversary(name)
            assert model.name == name
            assert model.description

    def test_unknown_name(self):
        with pytest.raises(KeyError) as err:
            get_adversary("teleport")
        assert "fast-flux" in str(err.value)


class TestDeterminism:
    @pytest.mark.parametrize("name", adversary_names())
    def test_same_seed_byte_identical(self, name):
        model = get_adversary(name)
        assert model.build(SEED).to_json() == model.build(SEED).to_json()

    @pytest.mark.parametrize("name", adversary_names())
    def test_seed_changes_output(self, name):
        model = get_adversary(name)
        assert model.build(SEED).to_json() != model.build(SEED + 1).to_json()

    def test_rng_streams_independent(self):
        a = scenario_rng("x", 1, "alpha")
        b = scenario_rng("x", 1, "beta")
        again = scenario_rng("x", 1, "alpha")
        first = a.random()
        assert first != b.random()
        assert first == again.random()


class TestLedgerInvariants:
    @pytest.mark.parametrize("name", adversary_names())
    def test_events_match_ledger(self, name):
        scenario = build_cached(name)
        malicious = scenario.ledger.malicious_ip_days
        assert scenario.events
        for event in scenario.events:
            assert (event.ip, event.day) in malicious
            assert 0 <= event.day < scenario.horizon_days

    @pytest.mark.parametrize("name", adversary_names())
    def test_events_canonically_sorted(self, name):
        events = build_cached(name).events
        assert list(events) == sorted(events, key=event_sort_key)

    @pytest.mark.parametrize("name", adversary_names())
    def test_stints_cover_malicious_days(self, name):
        ledger = build_cached(name).ledger
        covered = {
            (stint.ip, day)
            for stint in ledger.stints
            for day in range(stint.first_day, stint.last_day + 1)
        }
        assert ledger.malicious_ip_days <= covered
        for stint in ledger.stints:
            assert stint.first_day <= stint.last_day
            assert (stint.ip, stint.first_day) in ledger.malicious_ip_days

    @pytest.mark.parametrize("name", adversary_names())
    def test_eval_points_and_reuse_facts(self, name):
        ledger = build_cached(name).ledger
        benign = set(ledger.benign_ip_days())
        assert benign.isdisjoint(ledger.malicious_ip_days)
        assert set(ledger.eval_points()) == (
            set(ledger.malicious_ip_days) | set(ledger.innocent_user_days)
        )
        for ip, _ in ledger.eval_points():
            assert ip in ledger.asn_by_ip

    def test_horizon_and_windows(self):
        scenario = build_cached("fast-flux")
        assert scenario.horizon_days == HORIZON_DAYS
        assert scenario.windows == ((0, HORIZON_DAYS - 1),)


# Seed-2020 golden pins: (detection, fp rate, naive unjust user-days,
# reuse-aware unjust user-days, listings, evaded stints).
GOLDENS = {
    "fast-flux": (0.8087, 0.0099, 107, 0, 1151, 62),
    "cgn-shelter": (1.0, 0.0672, 29645, 0, 124, 0),
    "campaign-hop": (0.9292, 0.0014, 17, 10, 688, 0),
    "slow-drip": (0.5325, 0.0, 0, 0, 58, 0),
}


class TestScoring:
    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_golden_metrics(self, name):
        result = score_cached(name).result
        detection, fp, naive, aware, listings, evaded = GOLDENS[name]
        assert result["overall"]["detection_rate"] == detection
        assert result["overall"]["false_positive_rate"] == fp
        policies = result["policies"]
        assert policies["block-listed"]["unjust_user_days"] == naive
        assert policies["reuse-aware"]["unjust_user_days"] == aware
        assert result["counts"]["listings"] == listings
        assert result["time_to_detection"]["evaded_stints"] == evaded

    @pytest.mark.parametrize("name", adversary_names())
    def test_reuse_aware_never_worse(self, name):
        policies = score_cached(name).result["policies"]
        assert (
            policies["reuse-aware"]["unjust_user_days"]
            <= policies["block-listed"]["unjust_user_days"]
        )

    def test_score_is_deterministic(self):
        again = score_scenario(build_cached("slow-drip"))
        assert again.result == score_cached("slow-drip").result

    def test_cgn_detection_is_collateral(self):
        """The CGN scenario's whole point: perfect naive detection is
        inseparable from mass unjust blocking, and the reuse-aware
        policy greylists it all away."""
        result = score_cached("cgn-shelter").result
        naive = result["policies"]["block-listed"]
        assert naive["blocked_malicious_rate"] == 1.0
        assert naive["unjust_user_days_shared"] > 0
        assert result["policies"]["reuse-aware"]["unjust_user_days"] == 0

    def test_result_document_versioned(self):
        result = score_cached("slow-drip").result
        assert result["format"] == "repro-adversary-result"
        assert result["version"] == 1
        assert result["seed"] == SEED
        json.dumps(result)  # JSON-ready, no sets or tuples as keys

    def test_render_table(self):
        table = render_score_table(
            [score_cached("slow-drip").result]
        )
        assert "slow-drip" in table
        assert "53.2%" in table


class TestStreamFidelity:
    @pytest.mark.parametrize("name", adversary_names())
    def test_live_follower_matches_static(self, name, tmp_path):
        score = score_cached(name)
        log = write_scenario_log(score, tmp_path / f"{name}.log")
        info = verify_stream_fidelity(score, log)
        assert info["batches"] > 0
        assert info["verdicts_compared"] == len(score.verdicts)

    def test_truncated_log_fails_fidelity(self, tmp_path):
        score = score_cached("slow-drip")
        log = write_scenario_log(score, tmp_path / "full.log")
        raw = log.read_bytes()
        truncated = tmp_path / "truncated.log"
        truncated.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(StreamFidelityError, match="short of"):
            verify_stream_fidelity(score, truncated)

    def test_damaged_log_fails_fidelity(self, tmp_path):
        score = score_cached("slow-drip")
        log = write_scenario_log(score, tmp_path / "full.log")
        raw = bytearray(log.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        log.write_bytes(bytes(raw))
        with pytest.raises(StreamFidelityError, match="unreadable log"):
            verify_stream_fidelity(score, log)


class TestScenariosCli:
    def test_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in adversary_names():
            assert name in out

    @pytest.mark.parametrize("name", adversary_names())
    def test_run_writes_versioned_artefacts(self, capsys, tmp_path, name):
        """Every scenario end to end through the CLI: build, feeds,
        index, verdicts, churn log, streaming fidelity check."""
        assert (
            main(["scenarios", "run", "--scenario", name, "--seed", str(SEED),
                  "--out", str(tmp_path)])
            == 0
        )
        out = capsys.readouterr().out
        assert "stream fidelity ok" in out
        assert "blocklist effectiveness" in out
        artefact = tmp_path / f"{name}-seed{SEED}.json"
        result = json.loads(artefact.read_text(encoding="utf-8"))
        assert result["format"] == "repro-adversary-result"
        assert result["counts"]["listings"] > 0
        assert result == score_cached(name).result
        assert (tmp_path / f"{name}-seed{SEED}.log").stat().st_size > 0

    def test_run_skip_fidelity(self, capsys, tmp_path):
        assert (
            main(
                [
                    "scenarios",
                    "run",
                    "--scenario",
                    "slow-drip",
                    "--out",
                    str(tmp_path),
                    "--skip-fidelity",
                ]
            )
            == 0
        )
        assert "stream fidelity skipped" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["scenarios", "run", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
