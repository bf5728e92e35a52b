"""The trace-driven NDP GPU simulator.

Every warp task becomes a coroutine process on the event engine. A
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
from typing import Dict, List, Optional, Sequence

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
#: campaign skip tests assert this stays at zero on a warm re-run;
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
        if self._trace_on:
            self._recorder.bind(self.system.engine, self.system, config)
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
            # is deterministic and table-independent, so the injected
            # result is bit-identical to recomputing it). The
            # caller then owns the allocation-table candidate marks that
            # ``learn_offline`` would have made as a side effect.
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
                    candidate_pages=trace.allocation_table.candidate_pages(),
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
        # The event loop allocates millions of short-lived objects, many
        # in Process<->Event cycles that automatic collection keeps
        # scanning to no effect; pausing the collector for the run is
        # worth ~30% of wall time and cannot change results.
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
            engine = self.system.engine
            procs = [
                engine.process(self._main_access(sm, access, learning))
                for access in segment.accesses
            ]
            yield AllOf(procs)

    def _main_access(self, sm, access: WarpAccess, learning: bool):
        lines = access.line_addresses
        line_ids = access.line_ids(self.line_bits)
        if access.is_store:
            sm.l1.store_all(line_ids)
            self.system.l2.store_all(line_ids)
            off_chip: Sequence[int] = lines
        else:
            miss_lines, miss_ids = sm.l1.load_misses(lines, line_ids)
            off_chip = []
            if miss_ids:
                off_chip, _ = self.system.l2.load_misses(miss_lines, miss_ids)
                if len(off_chip) < len(miss_lines):  # at least one L2 hit
                    yield Timeout(_L2_HIT_LATENCY)
        if not off_chip:
            return

        if learning:
            yield from self._pcie_access(off_chip, access)
            return

        groups = self._group_by_stack(off_chip)
        if self._trace_on:
            self._recorder.access(
                "gpu",
                access.is_store,
                {stack: len(group) for stack, group in groups.items()},
            )
        engine = self.system.engine
        procs = [
            engine.process(
                self._gpu_offchip_group(stack, group, access, len(off_chip))
            )
            for stack, group in groups.items()
        ]
        yield AllOf(procs)

    def _pcie_access(self, lines: Sequence[int], access: WarpAccess):
        """Learning phase: data still lives in CPU memory (Section 4.3
        step 2); the PCI-E link carries both directions' bytes."""
        packets = self.system.packets
        if access.is_store:
            n_bytes = packets.store_request(len(lines), access.active_lanes)
            n_bytes += packets.store_ack(len(lines))
        else:
            n_bytes = packets.load_request(len(lines)) + packets.load_reply(len(lines))
        yield Acquire(self.system.fabric.pcie, n_bytes)

    def _gpu_offchip_group(
        self, stack: int, lines: Sequence[int], access: WarpAccess, total_lines: int
    ):
        """One warp access's lines bound for one memory stack."""
        fabric = self.system.fabric
        packets = self.system.packets
        lanes = max(1, round(access.active_lanes * len(lines) / total_lines))
        if access.is_store:
            yield Acquire(fabric.tx[stack], packets.store_request(len(lines), lanes))
        else:
            yield Acquire(fabric.tx[stack], packets.load_request(len(lines)))
        yield from self._dram_service(stack, lines)
        if access.is_store:
            yield Acquire(fabric.rx[stack], packets.store_ack(len(lines)))
        else:
            yield Acquire(fabric.rx[stack], packets.load_reply(len(lines)))

    def _dram_service(self, stack: int, lines: Sequence[int]):
        """Book every line on its vault; wait for the slowest.

        Vault routing for the whole group comes from one batched
        ``vault_of_many`` call. When the group lands on a single vault
        it is booked with one ``service_batch`` call; otherwise — the
        common case, since vault interleaving spreads consecutive lines
        on purpose — one ``service_scatter`` call walks the lines with
        the vault booking inlined. Booking order is line order either
        way, so open-row state, stats, and times stay bit-identical."""
        line_bytes = self.config.messages.cache_line_bytes
        memory = self.system.stacks[stack]
        engine = self.system.engine
        now = engine.now
        if len(lines) == 1:
            line = lines[0]
            vault = int(self.mapping.vault_of(line))
            completion = memory.service(vault, line, line_bytes)
            if completion < now:
                completion = now
        else:
            vaults = self.mapping.vault_of_many(lines)
            first = vaults[0]
            if all(vault == first for vault in vaults):
                completion = memory.service_batch(first, lines, line_bytes)
                if completion < now:
                    completion = now
            else:
                completion = memory.service_scatter(vaults, lines, line_bytes)
        delay = completion - now
        if delay > 0:
            yield Timeout(delay)

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
            engine = system.engine
            procs = [
                engine.process(
                    self._stack_access(stack_sm, destination, access, ideal)
                )
                for access in segment.accesses
            ]
            yield AllOf(procs)

        dirty = system.coherence.collect_dirty_lines(stack_sm.l1) if not ideal else set()
        yield Put(stack_sm.slots)
        if not ideal:
            yield Acquire(
                fabric.rx[destination],
                packets.offload_ack(len(entry.live_out), warp_size, len(dirty)),
            )
            yield Timeout(system.coherence.after_offload(requester_sm.l1, dirty))
        system.controller.complete(destination)

    def _stack_access(self, stack_sm, home: int, access: WarpAccess, ideal: bool):
        lines = access.line_addresses
        line_ids = access.line_ids(self.line_bits)
        walk_procs = []
        if self.system.translations is not None and not ideal:
            walks = self.system.translations[home].translate(lines)
            engine = self.system.engine
            walk_procs = [
                engine.process(self._page_walk(home, walk)) for walk in walks
            ]

        if access.is_store:
            stack_sm.l1.store_all(line_ids)
            off_chip: Sequence[int] = lines
        else:
            off_chip, _ = stack_sm.l1.load_misses(lines, line_ids)
        if walk_procs:
            yield AllOf(walk_procs)
        if not off_chip:
            return
        if ideal:
            # Perfect co-location: every line is served by the home stack.
            if self._trace_on:
                self._recorder.access(
                    f"stack{home}", access.is_store, {home: len(off_chip)}
                )
            yield from self._dram_service_local(home, off_chip)
            return

        groups = self._group_by_stack(off_chip)
        if self._trace_on:
            self._recorder.access(
                f"stack{home}",
                access.is_store,
                {stack: len(group) for stack, group in groups.items()},
            )
        engine = self.system.engine
        procs = []
        for stack, group in groups.items():
            if stack == home:
                procs.append(engine.process(self._dram_service(home, group)))
            else:
                procs.append(
                    engine.process(
                        self._remote_group(home, stack, group, access, len(off_chip))
                    )
                )
        yield AllOf(procs)

    def _page_walk(self, home: int, walk):
        """Section 4.4.1: a stack-SM TLB miss walks the page table —
        locally, or over the cross-stack links when the table page
        lives in another stack."""
        memory = self.system.stacks[walk.page_table_stack]
        n_vaults = self.config.stacks.vaults_per_stack
        vault = (walk.address >> self.line_bits) % n_vaults
        if walk.page_table_stack == home:
            completion = memory.service(vault, walk.address, walk.n_bytes)
            delay = completion - self.system.engine.now
            if delay > 0:
                yield Timeout(delay)
            return
        fabric = self.system.fabric
        yield Acquire(
            fabric.cross_link(home, walk.page_table_stack),
            self.config.messages.address_bytes,
        )
        completion = memory.service(vault, walk.address, walk.n_bytes)
        delay = completion - self.system.engine.now
        if delay > 0:
            yield Timeout(delay)
        yield Acquire(
            fabric.cross_link(walk.page_table_stack, home), walk.n_bytes
        )

    def _dram_service_local(self, stack: int, lines: Sequence[int]):
        """Ideal-mode service: lines are forced onto the home stack's
        vaults (vault chosen by line bits for spread). Consecutive
        lines interleave across vaults, so the group books through one
        ``service_interleaved`` call that walks them in line order —
        bit-identical accounting, no grouping overhead."""
        line_bytes = self.config.messages.cache_line_bytes
        memory = self.system.stacks[stack]
        now = self.system.engine.now
        if len(lines) == 1:
            line = lines[0]
            vault = (line >> self.line_bits) % self.config.stacks.vaults_per_stack
            completion = memory.service(vault, line, line_bytes)
            if completion < now:
                completion = now
        else:
            completion = memory.service_interleaved(lines, line_bytes, self.line_bits)
        delay = completion - now
        if delay > 0:
            yield Timeout(delay)

    def _remote_group(
        self, home: int, stack: int, lines: Sequence[int], access: WarpAccess, total: int
    ):
        """Stack-SM access to data in a different stack: request over the
        cross-stack link, DRAM service there, reply back."""
        fabric = self.system.fabric
        packets = self.system.packets
        lanes = max(1, round(access.active_lanes * len(lines) / total))
        if access.is_store:
            request = packets.store_request(len(lines), lanes)
            reply = packets.store_ack(len(lines))
        else:
            request = packets.load_request(len(lines))
            reply = packets.load_reply(len(lines))
        there, back = fabric.cross_pair(home, stack)
        yield Acquire(there, request)
        yield from self._dram_service(stack, lines)
        yield Acquire(back, reply)

    # -- helpers ---------------------------------------------------------------

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
