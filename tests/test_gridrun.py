"""The lockstep grid engine vs. the scalar reference engine.

The contract under test (repro.core.gridrun): running a grid of
(policy, configuration) points through ``WorkloadRunner.run_grid`` is
bit-identical to running each variant's policies sequentially through
its own ``WorkloadRunner`` — the scalar ``Simulator`` stays the
reference implementation. On top of that: deduplicated lanes replay
their allocation-table side effects, faulted lanes evict to scalar
replay without touching the rest of the grid.

Set ``REPRO_FULL_GRID=1`` to also run the full 70-point Figure-8 SMALL
grid equivalence check (several minutes; run before perf-sensitive
changes to the engine).
"""

from __future__ import annotations

import dataclasses
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import TraceScale, WorkloadRunner, ndp_config
from repro.core.policies import BASELINE, FIGURE8_GRID, IDEAL_NDP, NDP_CTRL_ORACLE
from repro.core.supervisor import SuiteJob, execute_job
from repro.workloads.suite import SUITE_ORDER

GRID_POLICIES = (BASELINE,) + FIGURE8_GRID + (NDP_CTRL_ORACLE, IDEAL_NDP)


def _threshold_variant(threshold: float):
    config = ndp_config()
    return dataclasses.replace(
        config,
        control=dataclasses.replace(
            config.control, channel_busy_threshold=threshold
        ),
    )


def _scalar_reference(workload, scale, seed, policies, configuration=None):
    """The reference semantics: one fresh runner, policies in order."""
    runner = WorkloadRunner(
        workload, scale=scale, seed=seed, ndp_configuration=configuration
    )
    return {policy.label: runner.run(policy, cache=False) for policy in policies}


class TestBitIdentity:
    @pytest.mark.parametrize("workload", ["BFS", "KM", "SP", "LIB"])
    def test_tiny_grid_matches_scalar(self, workload, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        expected = _scalar_reference(workload, TraceScale.TINY, 0, GRID_POLICIES)
        runner = WorkloadRunner(workload, scale=TraceScale.TINY)
        got = runner.run_grid(GRID_POLICIES)
        report = runner.last_grid_report
        assert report is not None and not report.evicted
        assert report.simulated + report.deduplicated == len(GRID_POLICIES)
        for policy in GRID_POLICIES:
            assert got[policy.label] == expected[policy.label], policy.label

    def test_variant_grid_matches_fresh_runners(self, monkeypatch):
        """The headline scenario: policies x channel-busy-threshold
        variants, each variant bit-identical to its own fresh runner,
        with cross-variant deduplication actually engaging."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        variants = [_threshold_variant(t) for t in (0.90, 0.85)]
        expected = [
            _scalar_reference("BFS", TraceScale.TINY, 0, GRID_POLICIES, cfg)
            for cfg in variants
        ]
        runner = WorkloadRunner(
            "BFS", scale=TraceScale.TINY, ndp_configuration=variants[0]
        )
        got = runner.run_grid(GRID_POLICIES, variants=variants)
        report = runner.last_grid_report
        assert report.deduplicated > 0, "variant grid must dedup lanes"
        assert report.simulated < len(variants) * len(GRID_POLICIES)
        for index in range(len(variants)):
            for policy in GRID_POLICIES:
                assert got[index][policy.label] == expected[index][policy.label]

    def test_oracle_dedup_patches_learned_fields(self, monkeypatch):
        """BFS's oracle learning falls back to the baseline mapping, so
        the oracle lane dedups onto ctrl+bmap — but must still report
        its own label and learned bit position."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        runner = WorkloadRunner("BFS", scale=TraceScale.TINY)
        got = runner.run_grid(GRID_POLICIES)
        oracle = got[NDP_CTRL_ORACLE.label]
        assert oracle.policy_label == NDP_CTRL_ORACLE.label
        assert oracle.learned_bit_position is not None

    @pytest.mark.skipif(
        not os.environ.get("REPRO_FULL_GRID"),
        reason="full 70-point SMALL grid check; set REPRO_FULL_GRID=1",
    )
    def test_full_figure8_small_grid(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        policies = (BASELINE,) + FIGURE8_GRID
        for workload in SUITE_ORDER:
            expected = _scalar_reference(
                workload, TraceScale.SMALL, 0, policies
            )
            runner = WorkloadRunner(workload, scale=TraceScale.SMALL)
            got = runner.run_grid(policies)
            for policy in policies:
                assert got[policy.label] == expected[policy.label], (
                    workload,
                    policy.label,
                )


class TestEngagement:
    def test_execute_job_routes_multi_policy_jobs_to_grid(self, monkeypatch):
        calls = []
        original = WorkloadRunner.run_grid

        def spy(self, policies, **kwargs):
            calls.append(tuple(p.label for p in policies))
            return original(self, policies, **kwargs)

        monkeypatch.setattr(WorkloadRunner, "run_grid", spy)
        job = SuiteJob(
            workload="SP",
            policies=(BASELINE, FIGURE8_GRID[0]),
            scale=TraceScale.TINY,
            seed=0,
        )
        results = execute_job(job)
        assert calls == [(BASELINE.label, FIGURE8_GRID[0].label)]
        assert set(results) == {BASELINE.label, FIGURE8_GRID[0].label}

    def test_execute_job_single_policy_stays_scalar(self, monkeypatch):
        def boom(self, policies, **kwargs):
            raise AssertionError("single-policy jobs must not use the grid")

        monkeypatch.setattr(WorkloadRunner, "run_grid", boom)
        job = SuiteJob(
            workload="SP",
            policies=(BASELINE,),
            scale=TraceScale.TINY,
            seed=0,
        )
        assert set(execute_job(job)) == {BASELINE.label}

    def test_warm_grid_builds_no_trace(self, monkeypatch):
        """Every lane probes the persistent cache before the trace is
        built: a fully-warm grid constructs nothing."""
        runner = WorkloadRunner("SP", scale=TraceScale.TINY)
        cold = runner.run_grid(GRID_POLICIES)

        import repro.core.experiment as experiment

        def boom(*args, **kwargs):
            raise AssertionError("warm grid must not build a trace")

        monkeypatch.setattr(experiment, "build_trace", boom)
        warm = WorkloadRunner("SP", scale=TraceScale.TINY).run_grid(
            GRID_POLICIES
        )
        assert warm == cold

    def test_trace_incompatible_variant_evicts_to_own_runner(
        self, monkeypatch
    ):
        """A variant that would generate a different trace (here: a
        different page size) cannot share the grid's trace and runs on
        its own scalar runner — still producing its reference result."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        base = ndp_config()
        other = dataclasses.replace(
            base,
            mapping=dataclasses.replace(
                base.mapping, page_bytes=base.mapping.page_bytes * 2
            ),
        )
        policies = (BASELINE, FIGURE8_GRID[0], FIGURE8_GRID[2])
        expected = [
            _scalar_reference("SP", TraceScale.TINY, 0, policies, cfg)
            for cfg in (base, other)
        ]
        runner = WorkloadRunner("SP", scale=TraceScale.TINY)
        got = runner.run_grid(policies, variants=[base, other])
        for index in range(2):
            for policy in policies:
                assert got[index][policy.label] == expected[index][policy.label]


class TestLaneEviction:
    def test_injected_lane_fault_evicts_only_that_lane(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_FAULTS", "raise@lane/SP/ctrl+tmap")
        expected = _scalar_reference("SP", TraceScale.TINY, 0, GRID_POLICIES)
        runner = WorkloadRunner("SP", scale=TraceScale.TINY)
        got = runner.run_grid(GRID_POLICIES)
        report = runner.last_grid_report
        assert report.evicted == ["ctrl+tmap"]
        for policy in GRID_POLICIES:
            assert got[policy.label] == expected[policy.label], policy.label


class TestLockstepProperty:
    """Property test: seeded-random (workload, seed, policy-subset,
    threshold) grids always match the scalar engine — per-lane cycle
    counts, cache statistics, and offload decisions included."""

    @settings(
        max_examples=6,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        workload=st.sampled_from(["SP", "BFS", "KM", "RD"]),
        seed=st.integers(min_value=0, max_value=2),
        picks=st.lists(
            st.sampled_from(GRID_POLICIES[1:]),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        threshold=st.sampled_from([0.90, 0.80]),
    )
    def test_random_grids_match_scalar(self, workload, seed, picks, threshold):
        policies: tuple = (BASELINE, *picks)
        configuration = _threshold_variant(threshold)
        os.environ["REPRO_NO_CACHE"] = "1"
        try:
            expected = _scalar_reference(
                workload, TraceScale.TINY, seed, policies, configuration
            )
            runner = WorkloadRunner(
                workload,
                scale=TraceScale.TINY,
                seed=seed,
                ndp_configuration=configuration,
            )
            got = runner.run_grid(policies)
        finally:
            os.environ.pop("REPRO_NO_CACHE", None)
        for policy in policies:
            lane = got[policy.label]
            reference = expected[policy.label]
            assert lane.cycles == reference.cycles
            assert lane.l1_load_miss_rate == reference.l1_load_miss_rate
            assert lane.l2_load_miss_rate == reference.l2_load_miss_rate
            assert lane.dram_row_hit_rate == reference.dram_row_hit_rate
            assert lane.offload == reference.offload
            assert lane == reference
