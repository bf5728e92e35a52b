"""White-box tests of Simulator internals and the backlog signal."""


import pytest

from repro import NDP_CTRL_BMAP, NDP_CTRL_TMAP, ndp_config
from repro.core.policies import MappingPolicy
from repro.core.simulator import Simulator
from repro.core.system import _IssueBacklogSignal
from repro.utils.simcore import BandwidthResource, Engine


class TestGroupByStack:
    def test_groups_cover_all_lines(self, mini_trace):
        simulator = Simulator(mini_trace, ndp_config(), NDP_CTRL_BMAP)
        lines = [0, 128, 4096, 65536, 1 << 20]
        groups = simulator._group_by_stack(lines)
        regrouped = sorted(line for group in groups.values() for line in group)
        assert regrouped == sorted(lines)
        assert all(0 <= stack < 4 for stack in groups)

    def test_group_respects_mapping(self, mini_trace):
        simulator = Simulator(mini_trace, ndp_config(), NDP_CTRL_BMAP)
        mapping = simulator.mapping
        for stack, group in simulator._group_by_stack([i * 128 for i in range(64)]).items():
            for line in group:
                assert int(mapping.stack_of(line)) == stack


class TestDestination:
    def test_destination_is_first_access_stack(self, mini_trace):
        simulator = Simulator(mini_trace, ndp_config(), NDP_CTRL_BMAP)
        segment = mini_trace.candidate_segments()[0]
        expected = int(
            simulator.mapping.stack_of(segment.accesses[0].line_addresses[0])
        )
        assert simulator._destination_for(segment) == expected


class TestLearningSkipSet:
    def test_learned_instances_marked(self, mini_trace):
        simulator = Simulator(mini_trace, ndp_config(), NDP_CTRL_TMAP)
        simulator.run()
        assert simulator._tmap is not None
        assert len(simulator._learned_instance_ids) == simulator._tmap.learn_target

    def test_learning_cost_appears_on_pcie(self, mini_trace):
        simulator = Simulator(mini_trace, ndp_config(), NDP_CTRL_TMAP)
        result = simulator.run()
        assert result.traffic.pcie > 0
        # learning-phase bytes are the learned instances' accesses only
        learned = simulator._tmap.learn_target
        per_instance = result.traffic.pcie / learned
        assert per_instance < 100_000  # sanity: a few KB per instance

    def test_bmap_has_no_learning(self, mini_trace):
        simulator = Simulator(mini_trace, ndp_config(), NDP_CTRL_BMAP)
        result = simulator.run()
        assert simulator._tmap is None
        assert result.traffic.pcie == 0


class TestProcessStructure:
    def test_only_warps_and_learning_instances_are_processes(self, monkeypatch):
        """Memory accesses run as callback chains, not processes: a run
        spawns one process per warp task plus one per learning-phase
        instance, however many accesses they issue."""
        from repro import TraceScale, WorkloadRunner

        spawned = []
        original = Engine.process

        def counting_process(engine, generator):
            spawned.append(generator)
            return original(engine, generator)

        monkeypatch.setattr(Engine, "process", counting_process)
        trace = WorkloadRunner("CFD", scale=TraceScale.TINY).trace
        simulator = Simulator(
            trace, ndp_config(), NDP_CTRL_TMAP, engine_backend="python"
        )
        simulator.run()
        learned = len(simulator._learned_instance_ids)
        assert learned > 0
        assert len(spawned) == len(trace.tasks) + learned
        assert simulator.system.engine.events_processed > 10 * len(spawned)


class TestMappingProperty:
    def test_bmap_mapping_is_static(self, mini_trace):
        simulator = Simulator(mini_trace, ndp_config(), NDP_CTRL_BMAP)
        assert simulator.policy.mapping is MappingPolicy.BMAP
        from repro.memory.address_mapping import BaselineMapping

        assert isinstance(simulator.mapping, BaselineMapping)

    def test_tmap_mapping_evolves(self, mini_trace):
        from repro.memory.address_mapping import BaselineMapping, HybridMapping

        simulator = Simulator(mini_trace, ndp_config(), NDP_CTRL_TMAP)
        assert isinstance(simulator.mapping, BaselineMapping)
        simulator.run()
        assert isinstance(simulator.mapping, HybridMapping)


class TestIssueBacklogSignal:
    def test_idle_pipeline_reads_zero(self):
        engine = Engine()
        issue = BandwidthResource(engine, "issue", rate=2.0)
        signal = _IssueBacklogSignal(issue, backlog_limit_cycles=100.0)
        assert signal.utilization() == 0.0

    def test_backlog_saturates_at_one(self):
        engine = Engine()
        issue = BandwidthResource(engine, "issue", rate=2.0)
        signal = _IssueBacklogSignal(issue, backlog_limit_cycles=100.0)
        issue.reserve(1000.0)  # 500 cycles of booked work
        assert signal.utilization() == 1.0

    def test_partial_backlog(self):
        engine = Engine()
        issue = BandwidthResource(engine, "issue", rate=2.0)
        signal = _IssueBacklogSignal(issue, backlog_limit_cycles=100.0)
        issue.reserve(100.0)  # 50 cycles booked
        assert signal.utilization() == pytest.approx(0.5)

    def test_backlog_drains_with_time(self):
        engine = Engine()
        issue = BandwidthResource(engine, "issue", rate=2.0)
        signal = _IssueBacklogSignal(issue, backlog_limit_cycles=100.0)
        issue.reserve(100.0)
        engine.schedule(50.0, lambda: None)
        engine.run()
        assert signal.utilization() == 0.0
