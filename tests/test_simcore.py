"""Tests for the discrete-event kernel (repro.utils.simcore)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.utils.simcore import (
    Acquire,
    AllOf,
    BandwidthResource,
    Engine,
    Event,
    Get,
    Put,
    SlotPool,
    Timeout,
    Wait,
)


class TestEngine:
    def test_time_advances(self):
        engine = Engine()
        seen = []
        engine.schedule(5.0, lambda: seen.append(engine.now))
        engine.schedule(2.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.0, 5.0]

    def test_equal_times_fire_in_order(self):
        engine = Engine()
        seen = []
        for i in range(5):
            engine.schedule(1.0, lambda i=i: seen.append(i))
        engine.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_run_until(self):
        engine = Engine()
        seen = []
        engine.schedule(10.0, lambda: seen.append(1))
        assert engine.run(until=5.0) == 5.0
        assert seen == []
        assert engine.run() == 10.0
        assert seen == [1]

    def test_max_events_guard(self):
        engine = Engine()

        def reschedule():
            engine.schedule(1.0, reschedule)

        engine.schedule(0.0, reschedule)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)


class TestProcess:
    def test_timeout_sequence(self):
        engine = Engine()
        trace = []

        def proc():
            trace.append(engine.now)
            yield Timeout(3.0)
            trace.append(engine.now)
            yield Timeout(2.0)
            trace.append(engine.now)

        engine.process(proc())
        engine.run()
        assert trace == [0.0, 3.0, 5.0]

    def test_result_and_done_event(self):
        engine = Engine()

        def proc():
            yield Timeout(1.0)
            return 42

        p = engine.process(proc())
        engine.run()
        assert p.finished
        assert p.result == 42
        assert p.done_event.triggered

    def test_unknown_request_raises(self):
        engine = Engine()

        def proc():
            yield "garbage"

        engine.process(proc())
        with pytest.raises(SimulationError):
            engine.run()

    def test_allof_empty(self):
        engine = Engine()
        done = []

        def proc():
            yield AllOf([])
            done.append(engine.now)

        engine.process(proc())
        engine.run()
        assert done == [0.0]

    def test_allof_waits_for_slowest(self):
        engine = Engine()
        finish = []

        def child(delay):
            yield Timeout(delay)

        def parent():
            children = [engine.process(child(d)) for d in (1.0, 5.0, 3.0)]
            yield AllOf(children)
            finish.append(engine.now)

        engine.process(parent())
        engine.run()
        assert finish == [5.0]

    def test_wait_event(self):
        engine = Engine()
        event = Event(engine)
        got = []

        def waiter():
            value = yield Wait(event)
            got.append((engine.now, value))

        engine.process(waiter())
        engine.schedule(4.0, lambda: event.succeed("payload"))
        engine.run()
        assert got == [(4.0, "payload")]

    def test_event_double_succeed(self):
        engine = Engine()
        event = Event(engine)
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()


class TestBandwidthResource:
    def test_serializes(self):
        engine = Engine()
        link = BandwidthResource(engine, "link", rate=2.0)
        ends = []

        def proc():
            t = yield Acquire(link, 10.0)  # 5 cycles
            ends.append(t)

        engine.process(proc())
        engine.process(proc())
        engine.run()
        assert ends == [5.0, 10.0]

    def test_latency_is_pipelined(self):
        engine = Engine()
        link = BandwidthResource(engine, "link", rate=1.0, latency=100.0)
        ends = []

        def proc():
            t = yield Acquire(link, 10.0)
            ends.append(t)

        engine.process(proc())
        engine.process(proc())
        engine.run()
        # both serialize on the 10-cycle occupancy but latency overlaps
        assert ends == [110.0, 120.0]

    def test_counters(self):
        engine = Engine()
        link = BandwidthResource(engine, "link", rate=4.0)

        def proc():
            yield Acquire(link, 8.0)

        engine.process(proc())
        engine.run()
        assert link.units_moved == 8.0
        assert link.busy_time == pytest.approx(2.0)
        assert link.transfers == 1

    def test_zero_amount(self):
        engine = Engine()
        link = BandwidthResource(engine, "link", rate=4.0, latency=7.0)
        ends = []

        def proc():
            ends.append((yield Acquire(link, 0.0)))

        engine.process(proc())
        engine.run()
        assert ends == [7.0]

    def test_negative_amount_rejected(self):
        engine = Engine()
        link = BandwidthResource(engine, "link", rate=4.0)

        def proc():
            yield Acquire(link, -1.0)

        engine.process(proc())
        with pytest.raises(SimulationError):
            engine.run()

    def test_bad_rate_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            BandwidthResource(engine, "x", rate=0.0)

    @given(st.lists(st.floats(0.1, 50.0), min_size=1, max_size=20))
    def test_busy_time_conserved(self, sizes):
        engine = Engine()
        link = BandwidthResource(engine, "link", rate=2.0)

        def proc(size):
            yield Acquire(link, size)

        for size in sizes:
            engine.process(proc(size))
        end = engine.run()
        assert link.busy_time == pytest.approx(sum(sizes) / 2.0)
        assert end == pytest.approx(sum(sizes) / 2.0)


class TestSlotPool:
    def test_blocking_get(self):
        engine = Engine()
        pool = SlotPool(engine, "pool", capacity=1)
        order = []

        def proc(name, hold):
            yield Get(pool)
            order.append((name, engine.now))
            yield Timeout(hold)
            yield Put(pool)

        engine.process(proc("a", 5.0))
        engine.process(proc("b", 1.0))
        engine.run()
        assert order == [("a", 0.0), ("b", 5.0)]

    def test_fifo_order(self):
        engine = Engine()
        pool = SlotPool(engine, "pool", capacity=1)
        order = []

        def proc(name):
            yield Get(pool)
            order.append(name)
            yield Timeout(1.0)
            yield Put(pool)

        for name in "abcde":
            engine.process(proc(name))
        engine.run()
        assert order == list("abcde")

    def test_over_release(self):
        engine = Engine()
        pool = SlotPool(engine, "pool", capacity=2)
        with pytest.raises(SimulationError):
            pool.put()

    def test_try_get_nowait(self):
        engine = Engine()
        pool = SlotPool(engine, "pool", capacity=1)
        assert pool.try_get_nowait()
        assert not pool.try_get_nowait()
        pool.put()
        assert pool.try_get_nowait()

    def test_stats(self):
        engine = Engine()
        pool = SlotPool(engine, "pool", capacity=3)

        def proc():
            yield Get(pool)
            yield Timeout(2.0)
            yield Put(pool)

        for _ in range(5):
            engine.process(proc())
        engine.run()
        assert pool.total_gets == 5
        assert pool.peak_in_use == 3
        assert pool.in_use == 0

    def test_bad_capacity(self):
        with pytest.raises(SimulationError):
            SlotPool(Engine(), "x", capacity=0)

    @given(st.integers(1, 8), st.integers(1, 30))
    def test_peak_never_exceeds_capacity(self, capacity, n_procs):
        engine = Engine()
        pool = SlotPool(engine, "pool", capacity=capacity)

        def proc():
            yield Get(pool)
            yield Timeout(1.0)
            yield Put(pool)

        for _ in range(n_procs):
            engine.process(proc())
        engine.run()
        assert pool.peak_in_use <= capacity
        assert pool.in_use == 0
        assert pool.total_gets == n_procs


class TestFinishedProcessesAreNotCyclic:
    def test_tiny_run_leaves_no_process_garbage(self, monkeypatch):
        """A finished process drops its cached bound methods, and an
        access's callback chain never stores a bound method of itself,
        so reference counting frees both: TINY runs — including stack-SM
        page walks — hand the collector no Process, Event, generator or
        access-chain object."""
        import dataclasses
        import gc
        import types

        from repro import TraceScale, WorkloadRunner, ndp_config
        from repro.core.policies import BASELINE, NDP_CTRL_BMAP, NDP_CTRL_TMAP
        from repro.core.simulator import (
            Simulator,
            _MainAccess,
            _StackAccess,
            _StackLeg,
        )
        from repro.utils.simcore import Process

        monkeypatch.setenv("REPRO_ENGINE", "python")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        config = ndp_config()
        translated = dataclasses.replace(
            config,
            translation=dataclasses.replace(
                config.translation, enabled=True, tlb_entries=8
            ),
        )
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            runner = WorkloadRunner("CFD", scale=TraceScale.TINY)
            runner.run(BASELINE)
            runner.run(NDP_CTRL_TMAP)
            Simulator(runner.trace, translated, NDP_CTRL_BMAP).run()
            del runner
            gc.collect()
            leaked = [
                obj
                for obj in gc.garbage
                if isinstance(
                    obj,
                    (
                        Process,
                        Event,
                        types.GeneratorType,
                        _MainAccess,
                        _StackAccess,
                        _StackLeg,
                    ),
                )
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []
