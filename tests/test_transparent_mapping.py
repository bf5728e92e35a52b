"""Tests for the programmer-transparent data mapping runtime."""

import dataclasses

import pytest

from repro import TraceScale, build_trace, ndp_config
from repro.core.policies import NDP_CTRL_ORACLE, NDP_CTRL_TMAP
from repro.core.simulator import Simulator
from repro.workloads.base import make_workload
from repro.errors import AnalysisError
from repro.gpu.warp import CandidateSegment, PlainSegment, WarpAccess, WarpTask
from repro.mapping.transparent import (
    TransparentDataMapping,
    candidate_instances,
    colocation_under_mapping,
    learn_offline,
)
from repro.memory.address_mapping import BaselineMapping, HybridMapping
from repro.memory.allocation import MemoryAllocationTable

CFG = ndp_config()


def make_tasks(n_warps=8, lines_per_instance=8, chunk_bytes=8192, base=1 << 22):
    """Warps scanning disjoint aligned chunks: perfectly co-locatable."""
    tasks = []
    for warp in range(n_warps):
        start = base + warp * chunk_bytes
        accesses = tuple(
            WarpAccess(access_id=0, is_store=False, line_addresses=(start + i * 128,))
            for i in range(lines_per_instance)
        )
        segment = CandidateSegment(
            block_id=0, n_instructions=lines_per_instance, accesses=accesses
        )
        tasks.append(WarpTask(warp_id=warp, segments=(segment,)))
    return tasks


class TestLearnTarget:
    def _runtime(self, total, **control_kwargs):
        config = CFG
        if control_kwargs:
            config = dataclasses.replace(
                CFG, control=dataclasses.replace(CFG.control, **control_kwargs)
            )
        table = MemoryAllocationTable()
        table.allocate("a", 1 << 24)
        return TransparentDataMapping(config, table, total)

    def test_minimum_floor(self):
        runtime = self._runtime(1000)
        assert runtime.learn_target >= CFG.control.min_learn_instances

    def test_cap_keeps_learning_short(self):
        runtime = self._runtime(1_000_000)
        assert runtime.learn_target <= max(
            CFG.control.min_learn_instances, 1_000_000 // 256
        )

    def test_tiny_trace(self):
        runtime = self._runtime(1)
        assert runtime.learn_target == 1

    def test_no_candidates_skips_learning(self):
        runtime = self._runtime(0)
        assert not runtime.in_learning_phase


class TestPhaseTransition:
    def test_learning_to_regular(self):
        table = MemoryAllocationTable()
        array = table.allocate("a", 1 << 24)
        tasks = make_tasks(base=array.start)
        runtime = TransparentDataMapping(CFG, table, len(tasks))
        assert runtime.in_learning_phase
        assert isinstance(runtime.current_mapping, BaselineMapping)
        instances = candidate_instances(tasks)
        for segment in instances[: runtime.learn_target]:
            runtime.observe_instance(segment)
        assert not runtime.in_learning_phase
        assert runtime.learned is not None

    def test_good_colocation_installs_hybrid(self):
        table = MemoryAllocationTable()
        array = table.allocate("a", 1 << 24)
        tasks = make_tasks(base=array.start)
        runtime = TransparentDataMapping(CFG, table, len(tasks))
        for segment in candidate_instances(tasks)[: runtime.learn_target]:
            runtime.observe_instance(segment)
        assert isinstance(runtime.current_mapping, HybridMapping)
        assert runtime.learned.colocation >= CFG.control.min_learned_colocation
        assert runtime.learned.candidate_pages
        assert runtime.current_mapping.candidate_pages == (
            runtime.learned.candidate_pages
        )

    def test_poor_colocation_falls_back_to_baseline(self):
        import numpy as np

        table = MemoryAllocationTable()
        array = table.allocate("a", 1 << 24)
        rng = np.random.default_rng(0)
        tasks = []
        for warp in range(8):
            lines = array.start + (
                rng.integers(0, (1 << 24) // 128, size=64) * 128
            )
            accesses = tuple(
                WarpAccess(0, False, (int(line),)) for line in lines
            )
            tasks.append(
                WarpTask(
                    warp_id=warp,
                    segments=(
                        CandidateSegment(
                            block_id=0, n_instructions=64, accesses=accesses
                        ),
                    ),
                )
            )
        runtime = TransparentDataMapping(CFG, table, len(tasks))
        for segment in candidate_instances(tasks)[: runtime.learn_target]:
            runtime.observe_instance(segment)
        assert not runtime.in_learning_phase
        assert isinstance(runtime.current_mapping, BaselineMapping)

    def test_observation_after_learning_is_noop(self):
        table = MemoryAllocationTable()
        array = table.allocate("a", 1 << 24)
        tasks = make_tasks(base=array.start)
        runtime = TransparentDataMapping(CFG, table, len(tasks))
        for segment in candidate_instances(tasks):
            runtime.observe_instance(segment)
        observed = runtime.analyzer.instances_observed
        runtime.observe_instance(candidate_instances(tasks)[0])
        assert runtime.analyzer.instances_observed == observed


class TestOfflineLearning:
    def test_full_trace_oracle(self):
        tasks = make_tasks()
        learned = learn_offline(CFG, tasks, 1.0)
        assert learned.colocation > 0.9
        assert learned.instances_observed == len(tasks)

    def test_fraction_limits_observation(self):
        tasks = make_tasks(n_warps=20)
        learned = learn_offline(CFG, tasks, 0.1)
        assert learned.instances_observed == 2

    def test_invalid_fraction(self):
        with pytest.raises(AnalysisError):
            learn_offline(CFG, make_tasks(), 0.0)

    def test_empty_trace(self):
        tasks = [WarpTask(warp_id=0, segments=(PlainSegment(n_instructions=1),))]
        with pytest.raises(AnalysisError):
            learn_offline(CFG, tasks, 1.0)


class TestColocationMetric:
    def test_perfect_colocation_is_one(self):
        from repro.memory.address_mapping import ConsecutiveBitMapping

        tasks = make_tasks(chunk_bytes=8192)
        mapping = ConsecutiveBitMapping(CFG, position=13)
        value = colocation_under_mapping(mapping, tasks, 4)
        assert value == pytest.approx(1.0)

    def test_baseline_colocation_is_low_for_streams(self):
        mapping = BaselineMapping(CFG)
        value = colocation_under_mapping(mapping, make_tasks(), 4)
        assert value < 0.5

    def test_bounds(self):
        mapping = BaselineMapping(CFG)
        value = colocation_under_mapping(mapping, make_tasks(), 4)
        assert 0.25 <= value <= 1.0


class TestReadOnlyTable:
    """Learning marks belong to the run that learned them: simulating
    leaves the trace's allocation table as the trace build made it."""

    @staticmethod
    def _state(table):
        # Everything but the lookup memo, a cache of the same ranges.
        return {k: v for k, v in vars(table).items() if k != "_page_memo"}

    @pytest.mark.parametrize(
        "policy", [NDP_CTRL_TMAP, NDP_CTRL_ORACLE], ids=lambda p: p.label
    )
    def test_run_leaves_table_as_built(self, policy):
        model = make_workload("SP")
        trace = build_trace(model, CFG, TraceScale.TINY, 0)
        Simulator(trace, CFG, policy).run()
        fresh = build_trace(model, CFG, TraceScale.TINY, 0).allocation_table
        assert self._state(trace.allocation_table) == self._state(fresh)
