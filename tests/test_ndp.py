"""Tests for the NDP hardware: controller, monitor, analyzer, coherence."""

import pytest

from repro import ndp_config
from repro.compiler.candidates import OffloadCondition
from repro.compiler.metadata import MetadataEntry
from repro.errors import AnalysisError, SimulationError
from repro.gpu.warp import CandidateSegment, WarpAccess
from repro.interconnect.links import LinkFabric
from repro.memory.allocation import MemoryAllocationTable
from repro.memory.cache import Cache
from repro.ndp.analyzer import BITS_PER_INSTANCE, MemoryMapAnalyzer
from repro.ndp.coherence import CoherenceProtocol
from repro.ndp.controller import DecisionReason, OffloadController
from repro.ndp.monitor import ChannelBusyMonitor
from repro.utils.simcore import Engine

CFG = ndp_config()


def entry(saves_tx=True, saves_rx=True, condition=None, block_id=0):
    return MetadataEntry(
        block_id=block_id,
        begin_pc=0,
        end_pc=8,
        live_in=("%a", "%b"),
        live_out=(),
        saves_tx=saves_tx,
        saves_rx=saves_rx,
        condition=condition,
    )


def make_segment(lines, block_id=0):
    accesses = tuple(
        WarpAccess(access_id=i, is_store=False, line_addresses=(line,))
        for i, line in enumerate(lines)
    )
    return CandidateSegment(
        block_id=block_id, n_instructions=max(1, len(lines)), accesses=accesses
    )


class TestOffloadController:
    def test_offloads_by_default(self):
        controller = OffloadController(CFG, None, dynamic_control=True)
        decision = controller.decide(entry(), destination=0, condition_value=None)
        assert decision.offload
        assert decision.destination == 0
        assert controller.pending[0] == 1

    def test_condition_check(self):
        condition = OffloadCondition(register="%n", min_iterations=4)
        controller = OffloadController(CFG, None, dynamic_control=True)
        refused = controller.decide(entry(condition=condition), 0, condition_value=3)
        assert not refused.offload
        assert refused.reason is DecisionReason.CONDITION_FALSE
        accepted = controller.decide(entry(condition=condition), 0, condition_value=4)
        assert accepted.offload

    def test_condition_checked_even_without_dynamic_control(self):
        condition = OffloadCondition(register="%n", min_iterations=4)
        controller = OffloadController(CFG, None, dynamic_control=False)
        refused = controller.decide(entry(condition=condition), 0, condition_value=1)
        assert refused.reason is DecisionReason.CONDITION_FALSE

    def test_pending_cap(self):
        controller = OffloadController(CFG, None, dynamic_control=True)
        for _ in range(controller.max_pending):
            assert controller.decide(entry(), 1, None).offload
        overflow = controller.decide(entry(), 1, None)
        assert overflow.reason is DecisionReason.STACK_FULL
        # another stack still has room
        assert controller.decide(entry(), 2, None).offload

    def test_no_cap_when_uncontrolled(self):
        controller = OffloadController(CFG, None, dynamic_control=False)
        for _ in range(controller.max_pending + 10):
            assert controller.decide(entry(), 0, None).offload

    def test_complete_frees_slot(self):
        controller = OffloadController(CFG, None, dynamic_control=True)
        for _ in range(controller.max_pending):
            controller.decide(entry(), 0, None)
        controller.complete(0)
        assert controller.decide(entry(), 0, None).offload

    def test_complete_underflow(self):
        controller = OffloadController(CFG, None, dynamic_control=True)
        with pytest.raises(SimulationError):
            controller.complete(0)

    def test_bad_destination(self):
        controller = OffloadController(CFG, None, dynamic_control=True)
        with pytest.raises(SimulationError):
            controller.decide(entry(), 99, None)

    def test_decision_summary(self):
        controller = OffloadController(CFG, None, dynamic_control=True)
        controller.decide(entry(), 0, None)
        summary = controller.decision_summary()
        assert summary == {"offloaded": 1}
        assert controller.total_offloaded == 1
        assert controller.total_considered == 1


class TestBusyChannelCheck:
    def _busy_monitor(self, busy_tx=False, busy_rx=False):
        class FakeMonitor:
            def tx_busy(self, stack):
                return busy_tx

            def rx_busy(self, stack):
                return busy_rx

        return FakeMonitor()

    def test_tx_busy_refuses_tx_adding_candidates(self):
        controller = OffloadController(
            CFG, self._busy_monitor(busy_tx=True), dynamic_control=True
        )
        refused = controller.decide(entry(saves_tx=False), 0, None)
        assert refused.reason is DecisionReason.TX_BUSY
        accepted = controller.decide(entry(saves_tx=True), 0, None)
        assert accepted.offload

    def test_rx_busy_refuses_rx_adding_candidates(self):
        controller = OffloadController(
            CFG, self._busy_monitor(busy_rx=True), dynamic_control=True
        )
        refused = controller.decide(entry(saves_rx=False), 0, None)
        assert refused.reason is DecisionReason.RX_BUSY


class TestChannelBusyMonitor:
    def test_idle_fabric_not_busy(self):
        engine = Engine()
        monitor = ChannelBusyMonitor(engine, LinkFabric(engine, CFG), CFG)
        assert not monitor.tx_busy(0)
        assert not monitor.rx_busy(0)

    def test_saturated_link_reports_busy(self):
        engine = Engine()
        fabric = LinkFabric(engine, CFG)
        monitor = ChannelBusyMonitor(engine, fabric, CFG)
        window = CFG.control.monitor_window_cycles
        # saturate TX 0 for two windows, then advance time and sample
        fabric.tx[0].reserve(fabric.tx[0].rate * window * 2)
        engine.schedule(window * 2, lambda: None)
        engine.run()
        assert monitor.tx_busy(0)
        assert monitor.tx_utilization(0) > 0.9

    def test_busy_state_decays(self):
        engine = Engine()
        fabric = LinkFabric(engine, CFG)
        monitor = ChannelBusyMonitor(engine, fabric, CFG)
        window = CFG.control.monitor_window_cycles
        fabric.tx[0].reserve(fabric.tx[0].rate * window)
        engine.schedule(window, lambda: None)
        engine.run()
        assert monitor.tx_busy(0)
        # a long idle stretch afterwards
        engine.schedule(10 * window, lambda: None)
        engine.run()
        assert not monitor.tx_busy(0)


class TestMemoryMapAnalyzer:
    def test_perfectly_colocatable_stream(self):
        analyzer = MemoryMapAnalyzer(CFG)
        base = 1 << 20
        # all lines within one 8 KB chunk: high positions co-locate
        analyzer.observe(make_segment([base + i * 128 for i in range(16)]))
        learned = analyzer.best_mapping()
        assert learned.colocation == 1.0
        assert learned.position >= 11

    def test_prefers_lowest_tied_position(self):
        analyzer = MemoryMapAnalyzer(CFG)
        analyzer.observe(make_segment([0, 128]))  # within any chunk >= 2^9
        learned = analyzer.best_mapping()
        tied = [
            p
            for p, v in learned.per_position_colocation.items()
            if v >= learned.colocation - 0.02
        ]
        assert learned.position == min(tied)

    def test_empty_analyzer_raises(self):
        with pytest.raises(AnalysisError):
            MemoryMapAnalyzer(CFG).best_mapping()

    def test_marks_allocation_table(self):
        table = MemoryAllocationTable()
        array = table.allocate("a", 64 * 1024)
        table.allocate("b", 64 * 1024)
        analyzer = MemoryMapAnalyzer(CFG, table)
        analyzer.observe(make_segment([array.start, array.start + 128]))
        first = array.start // table.page_bytes
        assert analyzer.best_mapping().candidate_pages == set(
            range(first, first + 16)
        )

    def test_storage_bits_per_sm(self):
        analyzer = MemoryMapAnalyzer(CFG)
        assert BITS_PER_INSTANCE == 40
        assert analyzer.storage_bits_per_sm == 40 * 48 == 1920

    def test_instance_counting(self):
        analyzer = MemoryMapAnalyzer(CFG)
        analyzer.observe(make_segment([0]))
        analyzer.observe(make_segment([128]))
        assert analyzer.instances_observed == 2


class TestCoherence:
    def test_before_offload_invalidates_stack_cache(self):
        protocol = CoherenceProtocol(CFG)
        cache = Cache(4096, 4, 128)
        cache.load(1)
        cache.load(2)
        cost = protocol.before_offload(cache)
        assert cost == CFG.control.coherence_invalidate_cycles
        assert cache.occupancy == 0
        assert protocol.stats.offloads == 1
        assert protocol.stats.stack_invalidations == 2

    def test_dirty_line_roundtrip(self):
        protocol = CoherenceProtocol(CFG)
        stack_cache = Cache(4096, 4, 128)
        requester = Cache(4096, 4, 128)
        requester.load(7)
        requester.load(8)
        stack_cache.store(7)
        dirty = protocol.collect_dirty_lines(stack_cache)
        assert dirty == {7}
        protocol.after_offload(requester, dirty)
        assert not requester.contains(7)
        assert requester.contains(8)
        assert protocol.stats.requester_invalidations == 1
        assert protocol.stats.dirty_lines_reported == 1
