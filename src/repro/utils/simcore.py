"""A small discrete-event simulation kernel.

The TOM simulator models the GPU, the off-chip links, and the 3D-stacked
DRAM as a set of *serial bandwidth resources* (a link that moves N bytes
per cycle, an SM issue pipeline that retires N instructions per cycle)
plus *slot pools* (warp slots on an SM). Warp tasks are coroutine
processes that walk through their execution phases by yielding requests
(memory accesses are not processes: each is a fixed chain of
reservations, run as callbacks through ``Engine.schedule`` /
``schedule_at`` with an ``engine.event()`` for the warp to join on —
see :mod:`repro.core.simulator`):

``Timeout(delay)``
    Resume the process ``delay`` cycles later.
``Acquire(resource, amount)``
    Serialize ``amount`` units through a :class:`BandwidthResource`;
    resume when the transfer (plus the resource's pipelined latency)
    completes.
``Get(pool)`` / ``Put(pool)``
    Take or return one slot of a :class:`SlotPool`; ``Get`` blocks in
    FIFO order when the pool is exhausted.
``Wait(event)``
    Block until an :class:`Event` is succeeded.
``AllOf(items)``
    Block until every child :class:`Process` / :class:`Event` finishes.

This is intentionally a minimal subset of what a library like simpy
offers — just enough to express the paper's queueing structure while
remaining dependency-free and fast.

This module is the **pure-Python reference backend**. A compiled
backend with the same API surface and bit-identical semantics lives in
:mod:`repro.accel` (``repro/accel/_core.c``, built optionally);
``repro.accel.make_engine`` picks between them at runtime
(``REPRO_ENGINE``, CLI ``--engine``). Components that belong to an
engine are created through the engine's factory methods —
``engine.event()``, ``engine.bandwidth_resource(...)``,
``engine.slot_pool(...)`` — so the whole simulation follows whichever
backend built the engine. When changing engine semantics here, mirror
the change in ``_core.c`` (the dual-backend property tests in
``tests/test_engine_backends.py`` will catch drift).

The engine is the hottest code in the repository (every simulated cycle
of every figure goes through it), so the implementation trades a little
prettiness for speed: request types and the runtime objects carry
``__slots__``, request dispatch is a type-indexed table instead of an
``isinstance`` ladder, resume callbacks are bound methods cached per
process instead of per-step lambdas, and :class:`SlotPool` keeps its
waiters in a :class:`collections.deque` so wakeup is O(1). All of these
preserve the engine's determinism guarantee bit-for-bit: event ordering
at equal times is still strict insertion order.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Generator, List, Optional, Sequence

from ..errors import SimulationError


class Engine:
    """Event heap + clock. All times are float cycles, monotonically
    non-decreasing. Event ordering at equal times is insertion order,
    which keeps runs fully deterministic.

    Zero-delay schedules — process spawns, slot grants, ``Put``
    resumes, join completions — are roughly half of all events, and a
    heap push/pop per event is the engine's single largest cost. They
    go to a FIFO *now-queue* instead: every entry carries the global
    sequence number, and the run loop merges the queue with the heap by
    comparing sequence numbers whenever the heap's top is at the
    current time. Because the queue is fully drained before the clock
    advances (a queue entry is always at ``now``), the merged execution
    order is exactly the (time, seq) order of the pure-heap scheme —
    bit-identical results, ~O(1) instead of O(log n) for half the
    events."""

    __slots__ = ("now", "_heap", "_nowq", "_seq", "_event_count")

    #: Backend tag; the compiled engine reports "compiled".
    backend = "python"

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[tuple] = []
        self._nowq: Deque[tuple] = deque()
        self._seq = 0
        self._event_count = 0

    # -- backend factories ---------------------------------------------
    # Components bound to an engine are created through these, so code
    # holding any engine (python or compiled) builds matching parts.

    def event(self) -> "Event":
        return Event(self)

    def bandwidth_resource(
        self, name: str, rate: float, latency: float = 0.0
    ) -> "BandwidthResource":
        return BandwidthResource(self, name, rate, latency)

    def slot_pool(self, name: str, capacity: int) -> "SlotPool":
        return SlotPool(self, name, capacity)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` cycles from now."""
        if delay == 0.0:
            self._nowq.append((self._seq, callback))
            self._seq += 1
            return
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback))
        self._seq += 1

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        if time == self.now:
            self._nowq.append((self._seq, callback))
            self._seq += 1
            return
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def process(self, generator: Generator) -> "Process":
        """Register a coroutine process and start it at the current time."""
        proc = Process(self, generator)
        self.schedule(0.0, proc._resume)
        return proc

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event heap; returns the final simulation time."""
        heap = self._heap
        nowq = self._nowq
        pop = heapq.heappop
        if until is None and max_events is None:
            # Hot path: no bound checks, locals only.
            while True:
                if nowq:
                    if heap:
                        top = heap[0]
                        if top[0] == self.now and top[1] < nowq[0][0]:
                            self._event_count += 1
                            pop(heap)[2]()
                            continue
                    self._event_count += 1
                    nowq.popleft()[1]()
                elif heap:
                    time, _seq, callback = pop(heap)
                    self.now = time
                    self._event_count += 1
                    callback()
                else:
                    return self.now
        while heap or nowq:
            use_heap = True
            if nowq:
                use_heap = bool(
                    heap
                    and heap[0][0] == self.now
                    and heap[0][1] < nowq[0][0]
                )
            elif until is not None and heap[0][0] > until:
                self.now = until
                return self.now
            if use_heap:
                time, _seq, callback = pop(heap)
                self.now = time
            else:
                _seq, callback = nowq.popleft()
            self._event_count += 1
            if max_events is not None and self._event_count > max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            callback()
        return self.now

    @property
    def events_processed(self) -> int:
        return self._event_count


class Event:
    """A one-shot event with callbacks. ``succeed`` may carry a value."""

    __slots__ = ("_engine", "triggered", "value", "_callbacks")

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self.triggered = False
        self.value = None
        self._callbacks: List = []

    def succeed(self, value=None) -> None:
        if self.triggered:
            raise SimulationError("event succeeded twice")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        engine = self._engine
        for callback in callbacks:
            if type(callback) is _Join:
                # Synchronous decrement: scheduling a heap event whose
                # only effect is `pending -= 1` cannot be observed by
                # any process, so only the final completion (which
                # resumes the waiter) costs an event. Relative order of
                # all remaining events is unchanged, so results are
                # bit-identical to the callback-per-child scheme.
                callback.pending -= 1
                if callback.pending == 0:
                    engine.schedule(0.0, callback.waiter._resume)
            else:
                engine.schedule(0.0, partial(callback, self))

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.triggered:
            self._engine.schedule(0.0, partial(callback, self))
        else:
            self._callbacks.append(callback)

    def add_join(self, join: "_Join") -> None:
        """Register an :class:`AllOf` join; counted synchronously on
        ``succeed`` instead of through a scheduled callback."""
        if self.triggered:
            join.pending -= 1
            if join.pending == 0:
                self._engine.schedule(0.0, join.waiter._resume)
        else:
            self._callbacks.append(join)


class _Join:
    """Countdown shared by the children of one ``AllOf`` request."""

    __slots__ = ("waiter", "pending")

    def __init__(self, waiter: "Process", pending: int) -> None:
        self.waiter = waiter
        self.pending = pending


# Request types: dataclasses with hand-declared __slots__ (the
# ``slots=True`` flag needs 3.10; this spelling works on 3.9 too and is
# identical at runtime — no per-instance __dict__).


@dataclass
class Timeout:
    __slots__ = ("delay",)
    delay: float


@dataclass
class Acquire:
    __slots__ = ("resource", "amount")
    resource: "BandwidthResource"
    amount: float


@dataclass
class Get:
    __slots__ = ("pool",)
    pool: "SlotPool"


@dataclass
class Put:
    __slots__ = ("pool",)
    pool: "SlotPool"


@dataclass
class Wait:
    __slots__ = ("event",)
    event: Event


@dataclass
class AllOf:
    __slots__ = ("items",)
    items: Sequence


class Process:
    """Wraps a generator; resumed by the engine when its current request
    completes. ``done_event`` fires with the generator's return value."""

    __slots__ = (
        "_engine",
        "_generator",
        "done_event",
        "finished",
        "result",
        "_resume",
        "_resume_value",
        "_value",
    )

    def __init__(self, engine: Engine, generator: Generator) -> None:
        self._engine = engine
        self._generator = generator
        self.done_event = Event(engine)
        self.finished = False
        self.result = None
        # Bound methods cached once per process so the hot resume paths
        # (Timeout, Acquire, Get/Put) allocate no per-step closures.
        # ``_step``'s default argument doubles as the no-value resume,
        # sparing a wrapper frame on the most common path.
        self._resume = self._step
        self._resume_value = self._step_value
        self._value = None

    def _step_value(self) -> None:
        self._step(self._value)

    def _on_event(self, event: Event) -> None:
        self._step(event.value)

    def _step(self, send_value=None) -> None:
        try:
            request = self._generator.send(send_value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            # The cached bound methods point back at the process; drop
            # them so a finished process is freed by reference counting
            # instead of waiting as cyclic garbage for the collector.
            del self._resume, self._resume_value
            self.done_event.succeed(stop.value)
            return
        handler = _DISPATCH.get(request.__class__)
        if handler is None:
            handler = _resolve_handler(request)
        handler(self, request)

    # -- one handler per request type (the dispatch table targets) -------

    def _do_timeout(self, request: Timeout) -> None:
        self._engine.schedule(request.delay, self._resume)

    def _do_acquire(self, request: Acquire) -> None:
        completion = request.resource.reserve(request.amount)
        self._value = completion
        self._engine.schedule_at(completion, self._resume_value)

    def _do_get(self, request: Get) -> None:
        request.pool._get(self)

    def _do_put(self, request: Put) -> None:
        request.pool.put()
        self._engine.schedule(0.0, self._resume)

    def _do_wait(self, request: Wait) -> None:
        request.event.add_callback(self._on_event)

    def _do_allof(self, request: AllOf) -> None:
        self._wait_all(list(request.items))

    def _wait_all(self, items: List) -> None:
        pending = len(items)
        if pending == 0:
            self._engine.schedule(0.0, self._resume)
            return
        join = _Join(self, pending)
        for item in items:
            event = item.done_event if isinstance(item, Process) else item
            event.add_join(join)


#: Request-type -> handler table. Exact-type lookup is the hot path;
#: subclasses of the request types resolve through the MRO once and are
#: then cached in the table.
_DISPATCH = {
    Timeout: Process._do_timeout,
    Acquire: Process._do_acquire,
    Get: Process._do_get,
    Put: Process._do_put,
    Wait: Process._do_wait,
    AllOf: Process._do_allof,
}


def _resolve_handler(request):
    for cls in type(request).__mro__[1:]:
        handler = _DISPATCH.get(cls)
        if handler is not None:
            _DISPATCH[type(request)] = handler
            return handler
    raise SimulationError(f"process yielded unknown request {request!r}")


class BandwidthResource:
    """A serial server: ``amount`` units take ``amount / rate`` cycles of
    exclusive occupancy, plus a pipelined ``latency`` that does not block
    subsequent transfers. FIFO by request time.

    Tracks cumulative busy time and units moved so monitors can compute
    windowed utilization and the results code can report traffic.
    """

    __slots__ = (
        "_engine",
        "name",
        "rate",
        "latency",
        "_next_free",
        "busy_time",
        "units_moved",
        "transfers",
    )

    def __init__(
        self,
        engine: Engine,
        name: str,
        rate: float,
        latency: float = 0.0,
    ) -> None:
        if rate <= 0:
            raise SimulationError(f"resource {name!r} needs positive rate, got {rate}")
        self._engine = engine
        self.name = name
        self.rate = rate
        self.latency = latency
        self._next_free = 0.0
        self.busy_time = 0.0
        self.units_moved = 0.0
        self.transfers = 0

    def reserve(self, amount: float) -> float:
        """Book ``amount`` units; returns the completion time (including
        latency). Zero-sized transfers complete after latency only."""
        if amount < 0:
            raise SimulationError(f"negative transfer of {amount} on {self.name!r}")
        now = self._engine.now
        next_free = self._next_free
        start = now if now > next_free else next_free
        duration = amount / self.rate
        self._next_free = start + duration
        self.busy_time += duration
        self.units_moved += amount
        self.transfers += 1
        return start + duration + self.latency

    def reserve_sequence(self, amounts: Sequence[float]) -> float:
        """Book several transfers back-to-back at the current time;
        returns the completion time of the last (which is the latest,
        since the server is serial). The arithmetic replays the exact
        sequential order of repeated :meth:`reserve` calls, so
        ``_next_free``, ``busy_time`` and ``units_moved`` land on
        bit-identical floating-point values."""
        if not amounts:
            raise SimulationError(f"empty reserve_sequence on {self.name!r}")
        now = self._engine.now
        next_free = self._next_free
        if now > next_free:
            next_free = now
        rate = self.rate
        busy_time = self.busy_time
        units_moved = self.units_moved
        for amount in amounts:
            if amount < 0:
                raise SimulationError(
                    f"negative transfer of {amount} on {self.name!r}"
                )
            duration = amount / rate
            next_free = next_free + duration
            busy_time = busy_time + duration
            units_moved = units_moved + amount
        self._next_free = next_free
        self.busy_time = busy_time
        self.units_moved = units_moved
        self.transfers += len(amounts)
        return next_free + self.latency

    def queue_delay(self) -> float:
        """How far the server is booked past the current time."""
        return max(0.0, self._next_free - self._engine.now)

    def utilization_snapshot(self) -> tuple[float, float]:
        """(current time, cumulative busy time) for windowed monitors."""
        return self._engine.now, self.busy_time


class SlotPool:
    """A counted resource with FIFO blocking ``Get`` and immediate ``Put``."""

    __slots__ = (
        "_engine",
        "name",
        "capacity",
        "in_use",
        "_waiters",
        "peak_in_use",
        "total_gets",
    )

    def __init__(self, engine: Engine, name: str, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError(f"pool {name!r} needs capacity >= 1, got {capacity}")
        self._engine = engine
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Process] = deque()
        self.peak_in_use = 0
        self.total_gets = 0

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def _get(self, process: Process) -> None:
        if self.in_use < self.capacity:
            self._grant(process)
        else:
            self._waiters.append(process)

    def _grant(self, process: Process) -> None:
        in_use = self.in_use + 1
        self.in_use = in_use
        self.total_gets += 1
        if in_use > self.peak_in_use:
            self.peak_in_use = in_use
        self._engine.schedule(0.0, process._resume)

    def put(self) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"pool {self.name!r} released below zero")
        self.in_use -= 1
        if self._waiters:
            self._grant(self._waiters.popleft())

    def try_get_nowait(self) -> bool:
        """Non-blocking take used by the offload controller's pending-count
        bookkeeping; returns False instead of queueing."""
        if self.in_use < self.capacity:
            in_use = self.in_use + 1
            self.in_use = in_use
            self.total_gets += 1
            if in_use > self.peak_in_use:
                self.peak_in_use = in_use
            return True
        return False


#: The member-write surface of the engine components: every attribute
#: that simulator code outside this module reads or writes *directly*
#: (the batched DRAM paths poke `_next_free`/`busy_time`, the ideal
#: policy overwrites `rate`, monitors read `busy_time`, ...). The
#: compiled backend must expose each of these on the matching type —
#: `repro.lint`'s PAR rule cross-checks this declaration against the
#: PyMemberDef/PyGetSetDef tables in `accel/_core.c`, and
#: `tests/test_engine_backends.py` pokes them at runtime. Adding an
#: attribute here without a compiled-side member is a lint failure.
ENGINE_MEMBER_SURFACE = {
    "Engine": ("now", "events_processed"),
    "Event": ("_engine", "triggered", "value"),
    "Process": ("_engine", "done_event", "finished", "result"),
    "BandwidthResource": (
        "_engine",
        "name",
        "rate",
        "latency",
        "_next_free",
        "busy_time",
        "units_moved",
        "transfers",
    ),
    "SlotPool": (
        "_engine",
        "name",
        "capacity",
        "in_use",
        "peak_in_use",
        "total_gets",
        "available",
    ),
}
