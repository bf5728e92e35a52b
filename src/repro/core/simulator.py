"""The trace-driven NDP GPU simulator.

Every warp task becomes a coroutine process on the event engine; every
memory access it issues runs as a chain of engine callbacks
(:class:`_MainAccess`, :class:`_StackAccess`, :class:`_StackLeg`),
not as processes of its own — an access is a fixed sequence of link and
vault reservations that never needs to suspend inside a function. A
task holds a main-SM warp slot for its lifetime and walks its segments
in order:

* plain segments execute on the main GPU: instructions reserve the
  SM's issue pipeline; memory accesses filter through L1 and the
  shared L2 and the misses travel ``TX link -> stack vault -> RX
  link`` (write-through stores always go off-chip);
* candidate segments first consult the offload controller. Offloaded
  instances pay the 10-cycle decision latency, ship an offload-request
  packet (live-in registers) on TX, wait for a stack-SM warp slot,
  run the coherence pre-steps, execute on the stack SM against local
  vaults (or remote stacks over the cross-stack links), and return an
  ack packet (live-out registers + dirty-line list) on RX, after which
  the requester invalidates the listed lines. Refused instances run
  inline on the main GPU.

With programmer-transparent data mapping the run starts in the
learning phase: everything executes on the main GPU out of *CPU*
memory over the PCI-E link while the memory-map analyzer watches
candidate instances; once the target instance count is reached the
learned hybrid mapping goes live (the delayed host-to-device copy the
paper piggybacks on is not charged, matching Section 4.3 step 5).

Fidelity notes (vs. the paper's GPGPU-Sim setup) are in DESIGN.md §4.

Observability: pass a :class:`repro.obs.TraceRecorder` to record every
offload decision, learning-phase outcome, per-access stack routing,
and windowed channel metrics as a structured event trace (see
``docs/OBSERVABILITY.md``); without one, the hooks are no-ops behind a
null recorder and results are bit-identical.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.metadata import MetadataEntry
from ..config import SystemConfig
from ..energy.model import EnergyModel
from ..errors import SimulationError
from ..guard import check_simulation_allowed
from ..gpu.sm import StreamingMultiprocessor
from ..gpu.warp import CandidateSegment, Segment, WarpAccess, WarpTask
from ..mapping.transparent import TransparentDataMapping, learn_offline
from ..memory.address_mapping import (
    AddressMapping,
    BaselineMapping,
    ConsecutiveBitMapping,
    HybridMapping,
)
from ..obs.recorder import NULL_RECORDER
from ..trace.generator import WorkloadTrace
from ..utils.bitops import ilog2
from ..utils.gcguard import gc_paused
from ..utils.simcore import Acquire, AllOf, Get, Put, Timeout
from .policies import MappingPolicy, OffloadPolicy, RunPolicy
from .results import OffloadSummary, SimulationResult
from .system import NDPSystem

_L2_HIT_LATENCY = 30.0

#: Process-local count of simulations actually executed (grid lanes
#: run this class too, so they count; deduplicated lanes do not). The
#: cache-resume tests assert this stays at zero on a warm re-run;
#: like :data:`repro.core.result_cache.stats` it never crosses
#: process boundaries, so run serially (``REPRO_JOBS=1``) to observe it.
stats = {"runs": 0}


class Simulator:
    """Runs one (trace, config, policy) combination."""

    def __init__(
        self,
        trace: WorkloadTrace,
        config: SystemConfig,
        policy: RunPolicy,
        oracle_position: Optional[int] = None,
        recorder=None,
        oracle_learned=None,
        engine_backend: Optional[str] = None,
    ) -> None:
        self.trace = trace
        self.config = config
        self.policy = policy
        # Observability (opt-in): the recorder defaults to the shared
        # null object, whose hooks are no-ops — every instrumentation
        # site below gates on the precomputed ``_trace_on`` bool, so an
        # untraced run pays one branch per hook and stays bit-identical.
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        self._trace_on = self._recorder.enabled
        # ``engine_backend`` selects the event-engine implementation
        # ("python"/"compiled"/"auto"); None defers to REPRO_ENGINE. The
        # two backends are bit-identical, so this is purely a speed knob.
        self.system = NDPSystem(
            config, policy, recorder=self._recorder, engine_backend=engine_backend
        )
        self._engine = self.system.engine
        if self._trace_on:
            self._recorder.bind(self._engine, self.system, config)
        self.line_bits = ilog2(config.messages.cache_line_bytes)

        self._tmap: Optional[TransparentDataMapping] = None
        self._static_mapping: AddressMapping = BaselineMapping(config)
        if policy.mapping is MappingPolicy.TMAP:
            self._tmap = TransparentDataMapping(
                config,
                trace.allocation_table,
                trace.total_candidate_instances,
                recorder=self._recorder,
            )
        elif policy.mapping is MappingPolicy.ORACLE:
            # Oracle mapping (Figure 3): the best consecutive-bit stack
            # index chosen with full-trace knowledge, applied — like the
            # real mechanism — to the allocations candidates touch,
            # with the baseline mapping elsewhere.
            #
            # ``oracle_learned`` lets the grid driver inject a learning
            # outcome it already computed for this trace (the analysis
            # is deterministic and leaves the trace untouched, so the
            # injected outcome, candidate pages included, is
            # bit-identical to recomputing it).
            learned = oracle_learned
            if learned is None:
                learned = learn_offline(
                    config, trace.tasks, 1.0, allocation_table=trace.allocation_table
                )
            if oracle_position is None:
                oracle_position = learned.position
            # Same fallback as the real mechanism: when even the best
            # bit position cannot co-locate (irregular workloads), the
            # "ideal" choice is to keep the baseline mapping.
            if learned.colocation >= config.control.min_learned_colocation:
                self._static_mapping = HybridMapping(
                    config,
                    ConsecutiveBitMapping(config, oracle_position),
                    candidate_pages=learned.candidate_pages,
                )
            self._oracle_position = oracle_position

        self._ideal_rr = 0  # round-robin destination for the IDEAL policy
        self._main_warp_instructions = 0
        self._stack_warp_instructions = 0
        self._learned_instance_ids: set = set()
        self._finished = False

    # -- mapping ---------------------------------------------------------

    @property
    def mapping(self) -> AddressMapping:
        if self._tmap is not None:
            return self._tmap.current_mapping
        return self._static_mapping

    @property
    def in_learning_phase(self) -> bool:
        return self._tmap is not None and self._tmap.in_learning_phase

    # -- top level --------------------------------------------------------

    def run(self) -> SimulationResult:
        if self._finished:
            raise SimulationError("a Simulator instance runs exactly once")
        check_simulation_allowed("Simulator.run")
        stats["runs"] += 1
        self._finished = True
        engine = self.system.engine
        # The event loop allocates enough containers to keep the
        # collector running, and each full collection walks the live
        # trace to no effect; pausing it saves ~19% of a LIB MEDIUM
        # simulate (utils/gcguard.py) and cannot change results.
        with gc_paused():
            if self.in_learning_phase:
                self._learning_prepass()
                engine.run()  # drain the learning phase before regular work
            for task in self.trace.tasks:
                engine.process(self._warp_process(task))
            cycles = engine.run()
            return self._collect(cycles)

    # -- learning phase ------------------------------------------------------

    def _learning_prepass(self) -> None:
        """Section 4.3 steps 2-5: the first ``learn_target`` candidate
        instances execute on the main GPU out of CPU memory (PCI-E)
        while the memory-map analyzer watches; regular execution starts
        only after the learned mapping is live. The instances executed
        here are skipped during regular execution (they ran once, as in
        the paper)."""
        assert self._tmap is not None
        remaining = self._tmap.learn_target
        engine = self.system.engine
        for task in self.trace.tasks:
            if remaining == 0:
                break
            for segment in task.segments:
                if remaining == 0:
                    break
                if isinstance(segment, CandidateSegment):
                    self._learned_instance_ids.add(id(segment))
                    engine.process(self._learning_instance(task.warp_id, segment))
                    remaining -= 1

    def _learning_instance(self, warp_id: int, segment: CandidateSegment):
        assert self._tmap is not None
        self._tmap.observe_instance(segment)
        sm = self.system.main_sm_for(warp_id)
        yield from self._run_on_main(sm, segment, learning=True)

    # -- warp process -------------------------------------------------------

    def _warp_process(self, task: WarpTask):
        launch_delay = task.warp_id * self.config.gpu.warp_launch_interval_cycles
        if launch_delay > 0:
            yield Timeout(launch_delay)
        sm = self.system.main_sm_for(task.warp_id)
        yield Get(sm.cta_slots)
        for segment in task.segments:
            if isinstance(segment, CandidateSegment):
                yield from self._candidate_segment(sm, segment)
            else:
                yield from self._run_on_main(sm, segment)
        yield Put(sm.cta_slots)

    def _candidate_segment(self, sm: StreamingMultiprocessor, segment: CandidateSegment):
        if id(segment) in self._learned_instance_ids:
            return  # executed during the learning pre-pass
        if not self.policy.offloads:
            yield from self._run_on_main(sm, segment)
            return

        entry = self.trace.metadata.lookup(segment.block_id)
        if self.policy.offload is OffloadPolicy.IDEAL:
            destination = self._ideal_rr % self.config.stacks.n_stacks
            self._ideal_rr += 1
            # Ideal offload ignores conditions: with zero overhead every
            # candidate instance benefits (Figure 2's premise). The
            # decision itself is foregone (no dynamic control, condition
            # stripped => always offload) but the call must still happen:
            # it increments the per-stack pending count that
            # ``complete()`` later decrements, and it keeps
            # candidates_considered honest for the offload summary.
            self.system.controller.decide(
                dataclasses.replace(entry, condition=None), destination, None
            )
            yield from self._run_offloaded(sm, segment, entry, destination, ideal=True)
            return

        destination = self._destination_for(segment)
        decision = self.system.controller.decide(
            entry, destination, segment.condition_value
        )
        yield Timeout(self.config.control.offload_decision_cycles)
        if decision.offload:
            yield from self._run_offloaded(sm, segment, entry, destination, ideal=False)
        else:
            yield from self._run_on_main(sm, segment)

    def _destination_for(self, segment: CandidateSegment) -> int:
        """Stack accessed by the block's first memory instruction
        (Section 4.2, step 3 of the dynamic decision)."""
        first = segment.accesses[0] if segment.accesses else None
        if first is None:
            return 0
        return int(self.mapping.stack_of(first.line_addresses[0]))

    # -- main-GPU execution ------------------------------------------------

    def _run_on_main(self, sm, segment: Segment, learning: bool = False):
        self._main_warp_instructions += segment.n_instructions
        yield Acquire(sm.issue, segment.n_instructions)
        if segment.accesses:
            chains = [
                _MainAccess(self, sm, access, learning) for access in segment.accesses
            ]
            yield AllOf(self._start_all(chains))

    # -- offloaded execution -------------------------------------------------

    def _run_offloaded(
        self,
        requester_sm,
        segment: CandidateSegment,
        entry: MetadataEntry,
        destination: int,
        ideal: bool,
    ):
        system = self.system
        fabric = system.fabric
        packets = system.packets
        warp_size = self.config.gpu.warp_size
        stack_sm = system.stack_sms[destination]

        if not ideal:
            yield Acquire(
                fabric.tx[destination],
                packets.offload_request(len(entry.live_in), warp_size),
            )
        yield Get(stack_sm.slots)
        if not ideal:
            yield Timeout(system.coherence.before_offload(stack_sm.l1))

        self._stack_warp_instructions += segment.n_instructions
        yield Acquire(stack_sm.issue, segment.n_instructions)
        if segment.accesses:
            chains = [
                _StackAccess(self, stack_sm, destination, access, ideal)
                for access in segment.accesses
            ]
            yield AllOf(self._start_all(chains))

        dirty = system.coherence.collect_dirty_lines(stack_sm.l1) if not ideal else set()
        yield Put(stack_sm.slots)
        if not ideal:
            yield Acquire(
                fabric.rx[destination],
                packets.offload_ack(len(entry.live_out), warp_size, len(dirty)),
            )
            yield Timeout(system.coherence.after_offload(requester_sm.l1, dirty))
        system.controller.complete(destination)

    # -- DRAM service times ------------------------------------------------

    def _dram_completion(self, stack: int, lines: Sequence[int]) -> float:
        """Book every line on its vault; returns when the slowest is done.

        Vault routing for the whole group comes from one batched
        ``vault_of_many`` call. When the group lands on a single vault
        it is booked with one ``service_batch`` call; otherwise — the
        common case, since vault interleaving spreads consecutive lines
        on purpose — one ``service_scatter`` call walks the lines with
        the vault booking inlined. Booking order is line order either
        way, so open-row state, stats, and times stay bit-identical."""
        line_bytes = self.config.messages.cache_line_bytes
        memory = self.system.stacks[stack]
        if len(lines) == 1:
            line = lines[0]
            return memory.service(int(self.mapping.vault_of(line)), line, line_bytes)
        vaults = self.mapping.vault_of_many(lines)
        first = vaults[0]
        if all(vault == first for vault in vaults):
            return memory.service_batch(first, lines, line_bytes)
        return memory.service_scatter(vaults, lines, line_bytes)

    def _local_completion(self, stack: int, lines: Sequence[int]) -> float:
        """Ideal-mode service: lines are forced onto the home stack's
        vaults (vault chosen by line bits for spread). Consecutive
        lines interleave across vaults, so the group books through one
        ``service_interleaved`` call that walks them in line order —
        bit-identical accounting, no grouping overhead."""
        line_bytes = self.config.messages.cache_line_bytes
        memory = self.system.stacks[stack]
        if len(lines) == 1:
            line = lines[0]
            vault = (line >> self.line_bits) % self.config.stacks.vaults_per_stack
            return memory.service(vault, line, line_bytes)
        return memory.service_interleaved(lines, line_bytes, self.line_bits)

    def _walk_completion(self, walk) -> float:
        """Section 4.4.1: one page-table read for a stack-SM TLB miss,
        on the vault its address interleaves to."""
        memory = self.system.stacks[walk.page_table_stack]
        vault = (walk.address >> self.line_bits) % self.config.stacks.vaults_per_stack
        return memory.service(vault, walk.address, walk.n_bytes)

    # -- helpers ---------------------------------------------------------------

    def _start_all(self, chains: list) -> list:
        """Start access chains as engine callbacks (one spawn event
        each, in order); returns their ``done`` events to wait on."""
        schedule = self._engine.schedule
        for chain in chains:
            schedule(0.0, chain.start)
        return [chain.done for chain in chains]

    def _packet_sizes(
        self, access: WarpAccess, n_lines: int, total_lines: int
    ) -> Tuple[int, int]:
        """(request, reply) bytes for ``n_lines`` of an access's
        ``total_lines`` off-chip lines; a store group's request carries
        its share of the access's active lanes."""
        packets = self.system.packets
        if access.is_store:
            lanes = max(1, round(access.active_lanes * n_lines / total_lines))
            return packets.store_request(n_lines, lanes), packets.store_ack(n_lines)
        return packets.load_request(n_lines), packets.load_reply(n_lines)

    def _group_by_stack(self, lines: Sequence[int]) -> Dict[int, List[int]]:
        """Stack index for every line in one batched ``stack_of_many``
        call, grouped in first-occurrence order (identical to the old
        per-line ``setdefault`` walk)."""
        mapping = self.mapping
        if len(lines) == 1:
            return {int(mapping.stack_of(lines[0])): list(lines)}
        stacks = mapping.stack_of_many(lines)
        groups: Dict[int, List[int]] = {}
        for stack, line in zip(stacks, lines):
            group = groups.get(stack)
            if group is None:
                groups[stack] = [line]
            else:
                group.append(line)
        return groups

    # -- results -----------------------------------------------------------------

    def _collect(self, cycles: float) -> SimulationResult:
        system = self.system
        total_instr = self._main_warp_instructions + self._stack_warp_instructions
        energy = EnergyModel(self.config).compute(
            elapsed_cycles=cycles,
            warp_instructions=total_instr,
            n_sms_powered=system.n_sms_powered,
            link_active_bits=system.fabric.active_bits(),
            link_idle_bit_cycles=system.fabric.idle_bit_cycles(cycles),
            dram_activations=system.total_dram_activations(),
            dram_bytes=system.total_dram_bytes(),
            warp_size=self.config.gpu.warp_size,
        )
        offload = OffloadSummary(
            candidates_considered=system.controller.total_considered,
            candidates_offloaded=system.controller.total_offloaded,
            decision_breakdown=system.controller.decision_summary(),
            offloaded_warp_instructions=self._stack_warp_instructions,
            total_warp_instructions=total_instr,
            dirty_lines_reported=system.coherence.stats.dirty_lines_reported,
        )
        learned_position = None
        learned_colocation = None
        if self._tmap is not None and self._tmap.learned is not None:
            learned_position = self._tmap.learned.position
            learned_colocation = self._tmap.learned.colocation
        elif self.policy.mapping is MappingPolicy.ORACLE:
            learned_position = self._oracle_position

        l2_stats = system.l2.stats
        return SimulationResult(
            workload=self.trace.workload_name,
            policy_label=self.policy.label,
            cycles=cycles,
            warp_instructions=total_instr,
            warp_size=self.config.gpu.warp_size,
            traffic=system.fabric.traffic(),
            energy=energy,
            offload=offload,
            learned_bit_position=learned_position,
            learned_colocation=learned_colocation,
            l1_load_miss_rate=system.l1_load_miss_rate(),
            l2_load_miss_rate=l2_stats.load_miss_rate,
            dram_row_hit_rate=system.dram_row_hit_rate(),
        )


# -- access callback chains ----------------------------------------------------
#
# A warp access is a fixed chain of reservations that never needs to
# suspend mid-function, so it runs as engine callbacks on small slotted
# objects, not as processes. Each step makes the engine calls a process
# would make, at the same points and in the same order: a spawn is one
# ``schedule(0.0, start)``; a link transfer is ``reserve`` then
# ``schedule_at(completion, next)``; a DRAM wait is ``schedule(delay,
# next)`` only when ``delay > 0`` (else the next step runs inline); a
# finished leg counts its parent down synchronously and the parent
# resumes through one ``schedule(0.0, ...)`` — the engine's own
# ``AllOf`` join. Events, their order and every result are therefore
# unchanged. No object stores a bound method of itself, so a finished
# chain is freed by reference counting, never left as cyclic garbage.


class _MainAccess:
    """One warp access on the main GPU: L1 and L2 filter its lines, the
    off-chip rest fans out as one :class:`_StackLeg` per stack (or one
    PCI-E transfer during the learning phase). ``done`` fires when the
    last line is back; the warp's ``AllOf`` waits on it."""

    __slots__ = ("sim", "sm", "access", "learning", "done", "lines", "pending")

    def __init__(self, sim: Simulator, sm, access: WarpAccess, learning: bool) -> None:
        self.sim = sim
        self.sm = sm
        self.access = access
        self.learning = learning
        self.done = sim._engine.event()

    def start(self) -> None:
        sim = self.sim
        access = self.access
        lines = access.line_addresses
        line_ids = access.line_ids(sim.line_bits)
        if access.is_store:
            self.sm.l1.store_all(line_ids)
            sim.system.l2.store_all(line_ids)
            self.lines = lines
        else:
            miss_lines, miss_ids = self.sm.l1.load_misses(lines, line_ids)
            self.lines = []
            if miss_ids:
                self.lines, _ = sim.system.l2.load_misses(miss_lines, miss_ids)
                if len(self.lines) < len(miss_lines):  # at least one L2 hit
                    sim._engine.schedule(_L2_HIT_LATENCY, self._issue)
                    return
        self._issue()

    def _issue(self) -> None:
        off_chip = self.lines
        if not off_chip:
            self.done.succeed()
            return
        sim = self.sim
        system = sim.system
        access = self.access
        if self.learning:
            # Data still lives in CPU memory (Section 4.3 step 2); the
            # PCI-E link carries both directions' bytes. The trace shows
            # where the lines would route under the mapping in force.
            if sim._trace_on:
                sim._recorder.access(
                    "pcie",
                    access.is_store,
                    {
                        stack: len(group)
                        for stack, group in sim._group_by_stack(off_chip).items()
                    },
                )
            packets = system.packets
            if access.is_store:
                n_bytes = packets.store_request(len(off_chip), access.active_lanes)
                n_bytes += packets.store_ack(len(off_chip))
            else:
                n_bytes = packets.load_request(len(off_chip))
                n_bytes += packets.load_reply(len(off_chip))
            sim._engine.schedule_at(
                system.fabric.pcie.reserve(n_bytes), self.done.succeed
            )
            return

        groups = sim._group_by_stack(off_chip)
        if sim._trace_on:
            sim._recorder.access(
                "gpu",
                access.is_store,
                {stack: len(group) for stack, group in groups.items()},
            )
        fabric = system.fabric
        schedule = sim._engine.schedule
        total = len(off_chip)
        for stack, group in groups.items():
            request, reply = sim._packet_sizes(access, len(group), total)
            leg = _StackLeg(
                self, sim, stack, group, None,
                fabric.tx[stack], request, fabric.rx[stack], reply,
            )
            schedule(0.0, leg.start)
        self.pending = len(groups)

    def joined(self) -> None:
        self.done.succeed()


class _StackAccess:
    """One warp access on a stack SM: TLB-miss page walks (when
    translation is on) run first, then the L1 misses fan out as one
    :class:`_StackLeg` per stack — the home stack's vaults directly,
    any other stack over the cross-stack links. Under the ideal policy
    every line is served by the home stack."""

    __slots__ = (
        "sim", "stack_sm", "home", "access", "ideal", "done", "lines", "pending",
        "routed",
    )

    def __init__(
        self, sim: Simulator, stack_sm, home: int, access: WarpAccess, ideal: bool
    ) -> None:
        self.sim = sim
        self.stack_sm = stack_sm
        self.home = home
        self.access = access
        self.ideal = ideal
        self.done = sim._engine.event()
        self.routed = False

    def start(self) -> None:
        sim = self.sim
        home = self.home
        access = self.access
        lines = access.line_addresses
        line_ids = access.line_ids(sim.line_bits)
        n_walks = 0
        translations = sim.system.translations
        if translations is not None and not self.ideal:
            # Section 4.4.1: a TLB miss walks the page table — locally,
            # or over the cross-stack links when the table page lives
            # in another stack.
            walks = translations[home].translate(lines)
            fabric = sim.system.fabric
            address_bytes = sim.config.messages.address_bytes
            schedule = sim._engine.schedule
            for walk in walks:
                table = walk.page_table_stack
                if table == home:
                    leg = _StackLeg(self, sim, table, None, walk)
                else:
                    there, back = fabric.cross_pair(home, table)
                    leg = _StackLeg(
                        self, sim, table, None, walk,
                        there, address_bytes, back, walk.n_bytes,
                    )
                schedule(0.0, leg.start)
            n_walks = len(walks)

        if access.is_store:
            self.stack_sm.l1.store_all(line_ids)
            self.lines = lines
        else:
            self.lines, _ = self.stack_sm.l1.load_misses(lines, line_ids)
        if n_walks:
            self.pending = n_walks
        else:
            self._route()

    def _route(self) -> None:
        off_chip = self.lines
        if not off_chip:
            self.done.succeed()
            return
        sim = self.sim
        home = self.home
        access = self.access
        engine = sim._engine
        if self.ideal:
            # Perfect co-location: every line is served by the home stack.
            if sim._trace_on:
                sim._recorder.access(
                    f"stack{home}", access.is_store, {home: len(off_chip)}
                )
            now = engine.now
            delay = sim._local_completion(home, off_chip) - now
            if delay > 0:
                engine.schedule(delay, self.done.succeed)
            else:
                self.done.succeed()
            return

        groups = sim._group_by_stack(off_chip)
        if sim._trace_on:
            sim._recorder.access(
                f"stack{home}",
                access.is_store,
                {stack: len(group) for stack, group in groups.items()},
            )
        fabric = sim.system.fabric
        total = len(off_chip)
        for stack, group in groups.items():
            if stack == home:
                leg = _StackLeg(self, sim, home, group, None)
            else:
                request, reply = sim._packet_sizes(access, len(group), total)
                there, back = fabric.cross_pair(home, stack)
                leg = _StackLeg(
                    self, sim, stack, group, None, there, request, back, reply
                )
            engine.schedule(0.0, leg.start)
        self.pending = len(groups)
        self.routed = True

    def joined(self) -> None:
        if self.routed:
            self.done.succeed()
        else:
            self._route()  # the page walks are done


class _StackLeg:
    """One access's work on one stack: an optional request-link
    transfer, the DRAM service (a line group, or a page-table read when
    ``walk`` is set), an optional reply-link transfer, then one tick of
    the parent's countdown. Covers GPU off-chip groups (TX/RX links),
    remote groups and remote page walks (cross-stack links), and
    home-stack groups and local page walks (no links)."""

    __slots__ = (
        "parent", "sim", "stack", "lines", "walk",
        "request", "request_bytes", "reply", "reply_bytes",
    )

    def __init__(
        self, parent, sim: Simulator, stack: int, lines, walk,
        request=None, request_bytes=0, reply=None, reply_bytes=0,
    ) -> None:
        self.parent = parent
        self.sim = sim
        self.stack = stack
        self.lines = lines
        self.walk = walk
        self.request = request
        self.request_bytes = request_bytes
        self.reply = reply
        self.reply_bytes = reply_bytes

    def start(self) -> None:
        request = self.request
        if request is None:
            self._serve()
        else:
            self.sim._engine.schedule_at(
                request.reserve(self.request_bytes), self._serve
            )

    def _serve(self) -> None:
        sim = self.sim
        engine = sim._engine
        now = engine.now
        if self.walk is None:
            completion = sim._dram_completion(self.stack, self.lines)
        else:
            completion = sim._walk_completion(self.walk)
        delay = completion - now
        if delay > 0:
            engine.schedule(delay, self._reply)
        else:
            self._reply()

    def _reply(self) -> None:
        reply = self.reply
        if reply is None:
            self._finish()
        else:
            self.sim._engine.schedule_at(
                reply.reserve(self.reply_bytes), self._finish
            )

    def _finish(self) -> None:
        parent = self.parent
        parent.pending -= 1
        if parent.pending == 0:
            self.sim._engine.schedule(0.0, parent.joined)


def simulate(
    trace: WorkloadTrace,
    config: SystemConfig,
    policy: RunPolicy,
    oracle_position: Optional[int] = None,
    recorder=None,
    engine_backend: Optional[str] = None,
) -> SimulationResult:
    """Convenience one-shot API."""
    return Simulator(
        trace,
        config,
        policy,
        oracle_position,
        recorder=recorder,
        engine_backend=engine_backend,
    ).run()
