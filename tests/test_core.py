"""Tests for policies, results, the system builder, and experiment drivers."""

import pickle

import pytest

from repro import (
    BASELINE,
    FIGURE8_GRID,
    IDEAL_NDP,
    NDP_CTRL_BMAP,
    NDP_CTRL_TMAP,
    TOM,
    TraceScale,
    WorkloadRunner,
    baseline_config,
    ndp_config,
)
from repro.core.policies import (
    ALL_POLICIES,
    POLICIES_BY_LABEL,
    MappingPolicy,
    OffloadPolicy,
    RunPolicy,
)
from repro.core.results import OffloadSummary, SimulationResult
from repro.core.system import NDPSystem
from repro.errors import AnalysisError, ConfigError
from repro.energy.model import EnergyBreakdown
from repro.interconnect.links import TrafficBreakdown


class TestPolicies:
    def test_labels(self):
        assert BASELINE.label == "baseline"
        assert TOM.label == "ctrl+tmap"
        assert NDP_CTRL_BMAP.label == "ctrl+bmap"
        assert IDEAL_NDP.label == "ideal+bmap"

    def test_tom_is_ctrl_tmap(self):
        assert TOM is NDP_CTRL_TMAP
        assert TOM.dynamic_control
        assert TOM.mapping is MappingPolicy.TMAP

    def test_figure8_grid(self):
        labels = [p.label for p in FIGURE8_GRID]
        assert labels == [
            "no-ctrl+bmap", "no-ctrl+tmap", "ctrl+bmap", "ctrl+tmap",
        ]

    def test_baseline_cannot_use_tmap(self):
        with pytest.raises(ConfigError):
            RunPolicy(OffloadPolicy.NONE, MappingPolicy.TMAP)

    def test_offloads_property(self):
        assert not BASELINE.offloads
        assert TOM.offloads and IDEAL_NDP.offloads

    def test_label_is_built_once_and_invisible_to_value_semantics(self):
        fresh = RunPolicy(OffloadPolicy.CONTROLLED, MappingPolicy.TMAP)
        assert fresh.label is fresh.label
        assert fresh == TOM and hash(fresh) == hash(TOM)
        assert repr(fresh) == repr(RunPolicy(OffloadPolicy.CONTROLLED, MappingPolicy.TMAP))
        copy = pickle.loads(pickle.dumps(fresh))
        assert copy == fresh and copy.label == "ctrl+tmap"
        assert POLICIES_BY_LABEL["ctrl+tmap"] is TOM
        assert all(POLICIES_BY_LABEL[p.label] is p for p in ALL_POLICIES)


class TestResults:
    def _result(self, cycles=100.0, instructions=1000):
        return SimulationResult(
            workload="X",
            policy_label="baseline",
            cycles=cycles,
            warp_instructions=instructions,
            warp_size=32,
            traffic=TrafficBreakdown(100.0, 50.0, 25.0, 0.0),
            energy=EnergyBreakdown(1.0, 0.5, 0.25),
            offload=OffloadSummary(0, 0, {}, 0, instructions, 0),
        )

    def test_ipc(self):
        result = self._result(cycles=100.0, instructions=10)
        assert result.thread_instructions == 320
        assert result.ipc == pytest.approx(3.2)

    def test_speedup(self):
        base = self._result(cycles=200.0)
        fast = self._result(cycles=100.0)
        assert fast.speedup_over(base) == pytest.approx(2.0)

    def test_speedup_requires_same_trace(self):
        base = self._result(instructions=1000)
        other = self._result(instructions=999)
        with pytest.raises(AnalysisError):
            other.speedup_over(base)

    def test_ratios(self):
        base = self._result()
        assert base.traffic_ratio_over(base) == pytest.approx(1.0)
        assert base.energy_ratio_over(base) == pytest.approx(1.0)

    def test_offload_summary_fractions(self):
        summary = OffloadSummary(10, 4, {"offloaded": 4}, 400, 1000, 12)
        assert summary.offload_rate == pytest.approx(0.4)
        assert summary.offloaded_instruction_fraction == pytest.approx(0.4)

    def test_summary_line_contains_key_fields(self):
        line = self._result().summary_line()
        assert "baseline" in line and "ipc" in line


class TestNDPSystem:
    def test_baseline_has_no_stack_sms(self):
        system = NDPSystem(baseline_config(), BASELINE)
        assert len(system.main_sms) == 68
        assert system.stack_sms == []
        assert system.n_sms_powered == 68

    def test_ndp_assembly(self):
        system = NDPSystem(ndp_config(), NDP_CTRL_BMAP)
        assert len(system.main_sms) == 64
        assert len(system.stack_sms) == 4
        assert system.n_sms_powered == 68
        assert system.monitor is not None

    def test_uncontrolled_has_no_monitor(self):
        from repro import NDP_NOCTRL_BMAP

        system = NDPSystem(ndp_config(), NDP_NOCTRL_BMAP)
        assert system.monitor is None

    def test_ideal_unbounded_stack_slots(self):
        system = NDPSystem(ndp_config(), IDEAL_NDP)
        assert system.stack_sms[0].slots.capacity > 1_000_000
        assert system.controller.max_pending > 1_000_000

    def test_policy_config_mismatch(self):
        with pytest.raises(ConfigError):
            NDPSystem(baseline_config(), NDP_CTRL_BMAP)


class TestWorkloadRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return WorkloadRunner("SP", scale=TraceScale.TINY, seed=0)

    def test_baseline_cached(self, runner):
        first = runner.baseline()
        second = runner.baseline()
        assert first is second

    def test_speedup_positive(self, runner):
        assert runner.speedup(NDP_CTRL_BMAP) > 0

    def test_ratios(self, runner):
        assert 0 < runner.traffic_ratio(NDP_CTRL_BMAP) < 2.0
        assert 0 < runner.energy_ratio(NDP_CTRL_BMAP) < 2.0

    def test_custom_config_not_cached(self, runner):
        custom = ndp_config(warp_capacity_multiplier=2)
        result = runner.run(NDP_CTRL_BMAP, configuration=custom)
        cached = runner.run(NDP_CTRL_BMAP)
        assert result is not cached

    def test_accepts_model_instance(self):
        from repro import make_workload

        runner = WorkloadRunner(make_workload("SP"), scale=TraceScale.TINY)
        assert runner.model.abbr == "SP"


class TestSuiteHelpers:
    def test_run_suite_and_speedups(self):
        from repro import run_suite, suite_speedups, suite_ratios

        results = run_suite(
            (NDP_CTRL_BMAP,), scale=TraceScale.TINY, workloads=["SP", "RD"]
        )
        assert set(results) == {"SP", "RD"}
        assert set(results["SP"]) == {"baseline", "ctrl+bmap"}
        speedups = suite_speedups(results, "ctrl+bmap")
        assert set(speedups) == {"SP", "RD", "AVG"}
        ratios = suite_ratios(results, "ctrl+bmap", metric="traffic")
        assert all(v > 0 for v in ratios.values())

    def test_suite_ratio_unknown_metric(self):
        from repro import run_suite, suite_ratios

        results = run_suite((), scale=TraceScale.TINY, workloads=["SP"])
        with pytest.raises(ConfigError):
            suite_ratios(results, "baseline", metric="bogus")
