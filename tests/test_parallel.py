"""Tests for parallel suite execution (repro.core.supervisor).

The contract: serial and parallel execution are bit-identical, the
worker count honors ``REPRO_JOBS``, and pickling-hostile payloads fall
back to the serial path instead of failing.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig, ndp_config
from repro.core.experiment import run_suite
from repro.core.policies import (
    NDP_CTRL_BMAP,
    NDP_CTRL_TMAP,
    NDP_NOCTRL_BMAP,
)
from repro.core.simulator import Simulator
from repro.core.supervisor import default_jobs, execute_job, run_supervised
from repro.errors import ConfigError
from repro.trace.generator import TraceScale
from tests.conftest import suite_job

POLICIES = (NDP_CTRL_BMAP, NDP_CTRL_TMAP, NDP_NOCTRL_BMAP)
WORKLOADS = ["SP", "RD"]


@pytest.fixture
def no_persistent_cache(monkeypatch):
    """Force both runs to actually simulate (no disk-cache shortcuts)."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_env_minimum_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            default_jobs()

    def test_default_is_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == (os.cpu_count() or 1)


class TestSerialParallelEquality:
    def test_parallel_matches_serial(self, no_persistent_cache):
        """2 workloads x 3 policies (+baseline): every SimulationResult
        — cycles, traffic, energy, offload bookkeeping — must be
        bit-identical between the in-process serial path and the
        process-pool path."""
        serial = run_suite(
            POLICIES, scale=TraceScale.TINY, workloads=WORKLOADS, jobs=1
        )
        parallel = run_suite(
            POLICIES, scale=TraceScale.TINY, workloads=WORKLOADS, jobs=2
        )
        assert set(serial) == set(parallel) == set(WORKLOADS)
        for name in WORKLOADS:
            assert set(serial[name]) == set(parallel[name])
            for label, result in serial[name].items():
                other = parallel[name][label]
                assert result == other, f"{name}/{label} diverged"
                assert result.cycles == other.cycles
                assert result.traffic == other.traffic

    def test_job_shares_one_trace_across_policies(self, no_persistent_cache):
        """One job simulates all of a workload's policies against the
        same trace: warp_instructions agree across policies (the
        speedup_over() precondition)."""
        (outcome,) = run_supervised([suite_job("SP", POLICIES)], n_jobs=1)
        counts = {r.warp_instructions for r in outcome.results}
        assert len(counts) == 1


class TestFallbacks:
    def test_single_job_runs_inline(self, no_persistent_cache):
        job = suite_job("SP", (NDP_CTRL_BMAP,))
        (outcome,) = run_supervised([job], n_jobs=4)  # 1 job -> no pool
        assert outcome.ran_inline
        assert outcome.results[0].cycles > 0

    def test_unpicklable_job_falls_back_to_serial(self, no_persistent_cache):
        class LocalConfig(SystemConfig):
            """Defined inside the test: unpicklable by reference."""

        job = suite_job("SP", (NDP_CTRL_BMAP,), LocalConfig())
        outcomes = run_supervised([job, job], n_jobs=2)
        assert [o.ok and o.ran_inline for o in outcomes] == [True, True]
        assert outcomes[0].results == outcomes[1].results

    def test_execute_job_runs_every_policy(self, no_persistent_cache):
        results = execute_job(suite_job("SP", POLICIES))
        assert [r.policy_label for r in results] == [p.label for p in POLICIES]


class TestEngineDeterminism:
    def test_fresh_simulators_are_identical(self, mini_trace, ndp_cfg):
        """Two fresh Simulator runs of the same trace produce identical
        cycles and traffic — the determinism guarantee the parallel
        path (and the result cache) rests on."""
        first = Simulator(mini_trace, ndp_cfg, NDP_CTRL_TMAP).run()
        second = Simulator(mini_trace, ndp_cfg, NDP_CTRL_TMAP).run()
        assert first.cycles == second.cycles
        assert first.traffic == second.traffic
        assert first.energy == second.energy
        assert first.offload == second.offload

    def test_fresh_runs_identical_with_config_copy(self, mini_trace):
        """Same, with structurally-equal-but-distinct config objects
        (what a worker process reconstructs after unpickling)."""
        first = Simulator(mini_trace, ndp_config(), NDP_CTRL_BMAP).run()
        second = Simulator(mini_trace, ndp_config(), NDP_CTRL_BMAP).run()
        assert first == second
