"""Tests for the cache-only guard (repro.guard): a cold suite query
under ``deny_simulation`` raises, the guard nests, the simulator counts
every run it makes, and a warm query passes the guard with no
simulation. The end-to-end benchmark's warm phase rests on the last of
these.

Runs are serial (``REPRO_JOBS=1``) so ``repro.core.simulator.stats``,
which counts only this process's runs, sees every simulation.
"""

from __future__ import annotations

import pytest

from repro.core import simulator
from repro.core.experiment import WorkloadRunner, run_suite
from repro.core.policies import BASELINE, NDP_CTRL_BMAP, NDP_CTRL_TMAP
from repro.errors import SimulationDenied
from repro.guard import deny_simulation, simulation_denied
from repro.trace.generator import TraceScale


@pytest.fixture(autouse=True)
def _serial_and_clean(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_STATE", raising=False)
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    simulator.stats["runs"] = 0


def _suite(*policies):
    return run_suite(policies, scale=TraceScale.TINY, workloads=["BP"])


class TestGuard:
    def test_denies_trace_build(self):
        with deny_simulation():
            assert simulation_denied()
            with pytest.raises(SimulationDenied):
                _suite(NDP_CTRL_BMAP)
        assert not simulation_denied()

    def test_reentrant(self):
        with deny_simulation():
            with deny_simulation():
                assert simulation_denied()
            assert simulation_denied()

    def test_simulator_counts_runs(self):
        _suite()  # the baseline alone
        assert simulator.stats["runs"] == 1

    def test_warm_queries_pass_the_guard(self):
        """Once a suite has answered its points, the same query and
        fresh runners read them back under the guard: equal results,
        nothing raised and no simulation. Fails if a guard check moves
        ahead of the persistent-cache probe in ``run_points``, ``run``
        or ``run_grid``."""
        cold = _suite(NDP_CTRL_BMAP, NDP_CTRL_TMAP)
        per_policy = cold["BP"]
        policies = [BASELINE, NDP_CTRL_BMAP, NDP_CTRL_TMAP]
        assert list(per_policy) == [p.label for p in policies]

        simulator.stats["runs"] = 0
        with deny_simulation():
            warm = _suite(NDP_CTRL_BMAP, NDP_CTRL_TMAP)
            scalar = {
                p.label: WorkloadRunner("BP", scale=TraceScale.TINY).run(p)
                for p in policies
            }
            grid = WorkloadRunner("BP", scale=TraceScale.TINY).run_grid(policies)
        assert warm == cold
        assert scalar == per_policy
        assert grid == per_policy
        assert simulator.stats["runs"] == 0
