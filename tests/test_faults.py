"""Tests for the deterministic fault-injection harness
(repro.testing.faults): spec parsing, target matching, seeded
determinism, firing limits (process-local and cross-process), and the
payload-corruption helpers.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.testing import faults
from repro.testing.faults import (
    FaultSpecError,
    InjectedFault,
    corrupt_payload,
    maybe_fault,
    parse_spec,
)


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    """Every test starts with fault injection off and no shared state."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_STATE", raising=False)


class TestParseSpec:
    def test_minimal_clause(self):
        plan = parse_spec("crash")
        assert len(plan.rules) == 1
        rule = plan.rules[0]
        assert rule.kind == "crash"
        assert rule.target == ""  # matches every site
        assert rule.probability == 1.0
        assert rule.max_fires is None

    def test_target_may_contain_slashes(self):
        (rule,) = parse_spec("crash@job/SP").rules
        assert rule.target == "job/SP"
        assert rule.matches("job/SP")
        assert not rule.matches("job/RD")

    def test_full_grammar(self):
        plan = parse_spec(
            "seed=7;crash@job/SP:code=9;raise@job/RD:p=0.5:n=2;"
            "hang@job/LIB:t=30;corrupt-cache:mode=truncate"
        )
        assert plan.seed == 7
        kinds = [rule.kind for rule in plan.rules]
        assert kinds == ["crash", "raise", "hang", "corrupt-cache"]
        crash, raise_, hang, corrupt = plan.rules
        assert crash.exit_code == 9
        assert raise_.probability == 0.5 and raise_.max_fires == 2
        assert hang.hang_seconds == 30.0
        assert corrupt.mode == "truncate"
        assert [rule.index for rule in plan.rules] == [0, 1, 2, 3]

    def test_empty_clauses_skipped(self):
        assert parse_spec("; crash ;;") .rules[0].kind == "crash"
        assert parse_spec("").rules == []

    @pytest.mark.parametrize(
        "spec",
        [
            "explode",  # unknown kind
            "crash:frequency",  # parameter without '='
            "crash:p=often",  # non-numeric probability
            "raise:p=1.5",  # probability out of range
            "raise:n=0",  # n must be >= 1
            "corrupt-cache:mode=scramble",  # unknown mode
            "crash:zzz=1",  # unknown parameter
            "seed=lots",  # non-integer seed
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(FaultSpecError):
            parse_spec(spec)


class TestDeterminism:
    def test_probability_stream_is_reproducible(self):
        """Two independently parsed plans make identical p=0.5 decisions
        — exactly what lets a worker process rebuild the parent's plan
        from the inherited environment."""
        decisions = []
        for _ in range(2):
            plan = parse_spec("seed=3;raise@job:p=0.5")
            (rule,) = plan.rules
            decisions.append(
                [plan.should_fire(rule, f"job/W{i}") for i in range(20)]
            )
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_seed_changes_decisions(self):
        outcomes = {}
        for seed in (0, 1):
            plan = parse_spec(f"seed={seed};raise:p=0.5")
            (rule,) = plan.rules
            outcomes[seed] = tuple(
                plan.should_fire(rule, f"site{i}") for i in range(64)
            )
        assert outcomes[0] != outcomes[1]

    def test_p_zero_never_fires_p_one_always(self):
        plan = parse_spec("raise:p=0;crash:p=1")
        never, always = plan.rules
        assert not any(plan.should_fire(never, f"s{i}") for i in range(32))
        assert all(plan.should_fire(always, f"s{i}") for i in range(32))

    def test_nonmatching_target_never_fires(self):
        plan = parse_spec("crash@job/SP")
        (rule,) = plan.rules
        assert not plan.should_fire(rule, "job/RD")
        assert not plan.should_fire(rule, "cache/abc")


class TestFiringLimits:
    def test_process_local_n_limit(self):
        plan = parse_spec("raise@job/SP:n=2")
        (rule,) = plan.rules
        fired = [plan.should_fire(rule, "job/SP") for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_limit_is_per_site(self):
        plan = parse_spec("raise@job:n=1")
        (rule,) = plan.rules
        assert plan.should_fire(rule, "job/SP")
        assert plan.should_fire(rule, "job/RD")  # separate site, own count
        assert not plan.should_fire(rule, "job/SP")

    def test_state_dir_shares_limit_across_plans(self, monkeypatch, tmp_path):
        """With REPRO_FAULTS_STATE set, the n= budget is claimed through
        exclusively-created marker files, so a fresh plan (a respawned
        worker) cannot fire the rule again."""
        monkeypatch.setenv("REPRO_FAULTS_STATE", str(tmp_path / "claims"))
        first = parse_spec("raise@job/SP:n=1")
        assert first.should_fire(first.rules[0], "job/SP")
        second = parse_spec("raise@job/SP:n=1")  # simulates another process
        assert not second.should_fire(second.rules[0], "job/SP")


class TestPlanCache:
    def test_inactive_without_env(self):
        assert not faults.active()
        assert faults.plan() is None
        maybe_fault("job/SP")  # no-op

    def test_plan_follows_env_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@job/SP")
        assert faults.active()
        first = faults.plan()
        assert first is faults.plan()  # cached while the spec is stable
        monkeypatch.setenv("REPRO_FAULTS", "crash@job/RD")
        assert faults.plan() is not first
        assert faults.plan().rules[0].target == "job/RD"


class TestMaybeFault:
    def test_raise_rule_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise@job/SP")
        with pytest.raises(InjectedFault):
            maybe_fault("job/SP")
        maybe_fault("job/RD")  # non-matching site unaffected

    def test_hang_rule_sleeps(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang@job/SP:t=0.05")
        start = time.monotonic()
        maybe_fault("job/SP")
        assert time.monotonic() - start >= 0.05

    def test_bad_spec_surfaces_as_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "explode")
        with pytest.raises(FaultSpecError):
            maybe_fault("job/SP")


class TestCorruptPayload:
    PAYLOAD = json.dumps({"format": 2, "value": 123.456}).encode()

    def test_flip_keeps_json_parseable(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "corrupt-cache@cache/abc")
        mangled = corrupt_payload("cache/abc", self.PAYLOAD)
        assert mangled != self.PAYLOAD
        assert len(mangled) == len(self.PAYLOAD)
        json.loads(mangled)  # still valid JSON: only checksums catch it

    def test_truncate_breaks_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "corrupt-cache:mode=truncate")
        mangled = corrupt_payload("cache/abc", self.PAYLOAD)
        assert len(mangled) < len(self.PAYLOAD)
        with pytest.raises(ValueError):
            json.loads(mangled)

    def test_nonmatching_site_untouched(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "corrupt-cache@cache/abc")
        assert corrupt_payload("cache/xyz", self.PAYLOAD) == self.PAYLOAD

    def test_execution_rules_do_not_corrupt(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise;crash;hang")
        assert corrupt_payload("cache/abc", self.PAYLOAD) == self.PAYLOAD

    def test_flip_skips_the_header_line(self):
        header = b'{"format":3,"checksum":"00"}\n'
        assert faults._flip_digit(header + b'{"cycles":41}') == header + b'{"cycles":51}'

    def test_flip_without_digits_appends(self):
        assert faults._flip_digit(b"{}") == b"{} "
