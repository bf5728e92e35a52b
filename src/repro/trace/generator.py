"""Trace generation: kernel + pattern model -> warp tasks.

The dynamic structure of a trace is *derived from the kernel*: the
compiler's candidate selection partitions the instruction stream into
candidate regions and plain gaps; each warp then executes the kernel
once, producing one :class:`~repro.gpu.warp.CandidateSegment` per
candidate region (with a per-warp iteration count) and plain segments
for the gaps (repeated ``plain_repeat`` times to model non-candidate
dynamic work). Memory instructions draw their per-lane addresses from
the workload's pattern model and are coalesced on the spot.

Everything is deterministic under (workload, config, scale, seed).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..compiler.candidates import SelectionResult, select_candidates
from ..compiler.metadata import OffloadMetadataTable
from ..config import SystemConfig
from ..errors import TraceError
from ..gpu.coalescer import Coalescer
from ..guard import check_simulation_allowed
from ..gpu.warp import CandidateSegment, PlainSegment, WarpAccess, WarpTask
from ..isa.kernel import Kernel
from ..memory.allocation import MemoryAllocationTable
from ..utils.gcguard import gc_paused
from .patterns import AccessContext, Pattern


class TraceScale(enum.Enum):
    """Trace size presets; the value is the warp count."""

    TINY = 96
    SMALL = 384
    MEDIUM = 1024
    LARGE = 4096

    @property
    def n_warps(self) -> int:
        return self.value


@dataclass
class WorkloadTrace:
    """A fully generated trace plus everything needed to simulate it."""

    workload_name: str
    kernel: Kernel
    selection: SelectionResult
    metadata: OffloadMetadataTable
    tasks: Tuple[WarpTask, ...]
    allocation_table: MemoryAllocationTable
    warp_size: int
    measured_coalescing: float
    #: the coalescer's line size: accesses carry line ids at its shift
    line_bytes: int

    @property
    def n_warps(self) -> int:
        return len(self.tasks)

    @property
    def total_instructions(self) -> int:
        return sum(task.total_instructions for task in self.tasks)

    @property
    def total_candidate_instances(self) -> int:
        return sum(task.n_candidate_instances for task in self.tasks)

    def candidate_segments(self) -> List[CandidateSegment]:
        segments: List[CandidateSegment] = []
        for task in self.tasks:
            segments.extend(task.candidate_segments)
        return segments


class TraceModel:
    """What a workload must provide to generate traces.

    Subclasses (one per paper workload) override the hooks; the
    defaults describe a regular, fully-occupied, streaming kernel.
    """

    #: printable name / paper abbreviation, e.g. "LIB"
    name = "workload"
    #: multiplies each plain gap's dynamic instruction count
    plain_repeat = 1
    #: default loop iteration count for runtime-bound candidate loops
    default_iterations = 8
    #: array alignment; large so inter-array offsets keep many
    #: power-of-two factors available to the mapping sweep
    array_alignment_bytes = 1 << 16

    def build_kernel(self) -> Kernel:
        raise NotImplementedError

    def array_specs(self) -> List[Tuple[str, int]]:
        """(name, bytes) for every global array the kernel touches."""
        raise NotImplementedError

    def pattern_for(self, array: Optional[str], access_id: int) -> Pattern:
        """Pattern for one static memory instruction."""
        raise NotImplementedError

    def iterations_for(self, block_id: int, warp_id: int, rng: np.random.Generator) -> int:
        """Dynamic trip count of candidate loop ``block_id`` for one warp."""
        return self.default_iterations

    def active_lanes(self, warp_id: int, rng: np.random.Generator) -> int:
        """Active lanes per warp (branch divergence); 32 = full warp."""
        return 32


def build_trace(
    model: TraceModel,
    config: SystemConfig,
    scale: TraceScale = TraceScale.SMALL,
    seed: int = 0,
) -> WorkloadTrace:
    """Generate the full trace for one workload."""
    check_simulation_allowed("build_trace")
    kernel = model.build_kernel()
    selection = select_candidates(
        kernel, config.compiler, config.messages, config.gpu.warp_size
    )
    metadata = OffloadMetadataTable(selection)

    table = MemoryAllocationTable(page_bytes=config.mapping.page_bytes)
    for name, n_bytes in model.array_specs():
        aligned = max(n_bytes, 1)
        table.allocate(name, aligned, guard_pages=_guard_pages(model, config))

    patterns = _bind_patterns(model, kernel, table)
    regions = _partition(kernel, selection)
    coalescer = Coalescer(config.messages.cache_line_bytes)
    rng = np.random.default_rng(seed)

    n_warps = scale.n_warps
    total_instances = n_warps * sum(1 for r in regions if r.block_id is not None)
    instance_counter = 0
    tasks: List[WarpTask] = []

    # Trace generation allocates one GC-tracked access per warp
    # instruction, all of which stay live; pausing automatic GC for the
    # build (as Simulator.run does for the event loop) avoids repeated
    # whole-heap scans of them (utils/gcguard.py). The coalescer and its
    # intern tables are dropped when this function returns.
    with gc_paused():
        for warp_id in range(n_warps):
            lanes = model.active_lanes(warp_id, rng)
            if not 1 <= lanes <= config.gpu.warp_size:
                raise TraceError(f"active_lanes returned {lanes}")
            lane_ids = np.arange(lanes, dtype=np.int64)
            segments = []
            for region in regions:
                if region.block_id is None:
                    segments.append(
                        _plain_segment(
                            model, kernel, region, patterns, coalescer, warp_id,
                            instance_counter, total_instances, lane_ids, rng,
                        )
                    )
                else:
                    segments.append(
                        _candidate_segment(
                            model, kernel, selection, region, patterns, coalescer,
                            warp_id, instance_counter, total_instances, lane_ids, rng,
                        )
                    )
                    instance_counter += 1
            tasks.append(WarpTask(warp_id=warp_id, segments=tuple(segments)))

    return WorkloadTrace(
        workload_name=model.name,
        kernel=kernel,
        selection=selection,
        metadata=metadata,
        tasks=tuple(tasks),
        allocation_table=table,
        warp_size=config.gpu.warp_size,
        measured_coalescing=coalescer.average_ratio,
        line_bytes=coalescer.line_bytes,
    )


def trace_fingerprint(config: SystemConfig) -> str:
    """Canonical form of every config field :func:`build_trace` reads:
    two configs with equal fingerprints produce identical traces for
    the same (workload, scale, seed), so their points can share one
    trace and one result-cache trace identity."""
    payload = {
        "compiler": dataclasses.asdict(config.compiler),
        "messages": dataclasses.asdict(config.messages),
        "warp_size": config.gpu.warp_size,
        "page_bytes": config.mapping.page_bytes,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def trace_digest(config: SystemConfig) -> str:
    """SHA-256 of :func:`trace_fingerprint`: the identity of the trace
    built from ``config``, computed once per config instance and kept
    on the (frozen) instance, like the result cache's config digest."""
    digest = config.__dict__.get("_trace_digest")
    if digest is None:
        digest = hashlib.sha256(trace_fingerprint(config).encode()).hexdigest()
        object.__setattr__(config, "_trace_digest", digest)
    return digest


def _guard_pages(model: TraceModel, config: SystemConfig) -> int:
    """Guard pages that round allocation starts up to the model's
    alignment (the bump allocator is sequential, so padding after one
    array aligns the next)."""
    return max(1, model.array_alignment_bytes // config.mapping.page_bytes)


@dataclass(frozen=True)
class _Region:
    start: int
    end: int
    block_id: Optional[int]  # None = plain gap


def _partition(kernel: Kernel, selection: SelectionResult) -> List[_Region]:
    regions: List[_Region] = []
    cursor = 0
    for candidate in selection.candidates:
        if candidate.start > cursor:
            regions.append(_Region(cursor, candidate.start, None))
        regions.append(_Region(candidate.start, candidate.end, candidate.block_id))
        cursor = candidate.end
    if cursor < len(kernel):
        regions.append(_Region(cursor, len(kernel), None))
    return regions


def _bind_patterns(
    model: TraceModel, kernel: Kernel, table: MemoryAllocationTable
) -> Dict[int, Pattern]:
    patterns: Dict[int, Pattern] = {}
    for instr in kernel.memory_instructions:
        pattern = model.pattern_for(instr.array, instr.access_id)
        patterns[instr.access_id] = pattern.bind(table)
    return patterns


def _accesses_for_range(
    kernel: Kernel,
    start: int,
    end: int,
    patterns: Dict[int, Pattern],
    coalescer: Coalescer,
    warp_id: int,
    instance_index: int,
    total_instances: int,
    iterations: int,
    lane_ids: np.ndarray,
    rng: np.random.Generator,
    warp_size: int,
) -> List[WarpAccess]:
    accesses: List[WarpAccess] = []
    mem_instrs = [
        kernel.instructions[i]
        for i in range(start, end)
        if kernel.instructions[i].is_global_memory
    ]
    line_bits = coalescer.line_bits
    for iteration in range(iterations):
        ctx = AccessContext(
            warp_id=warp_id,
            instance_index=instance_index,
            total_instances=total_instances,
            iteration=iteration,
            total_iterations=iterations,
            lane_ids=lane_ids,
            rng=rng,
            warp_size=warp_size,
        )
        for instr in mem_instrs:
            pattern = patterns[instr.access_id]
            coalesced = coalescer.coalesce(pattern.lane_address_list(ctx))
            accesses.append(
                WarpAccess(
                    access_id=instr.access_id,
                    is_store=instr.is_store,
                    line_addresses=coalesced.line_addresses,
                    active_lanes=coalesced.active_lanes,
                    ids=coalesced.line_ids,
                    ids_shift=line_bits,
                )
            )
    return accesses


def _weighted_instructions(kernel: Kernel, start: int, end: int) -> int:
    """Dynamic warp-instruction slots for one pass over [start, end),
    charging divides/transcendentals their expansion factor."""
    from ..isa.instructions import dynamic_weight

    return sum(
        dynamic_weight(kernel.instructions[i].opcode) for i in range(start, end)
    )


def _plain_segment(
    model, kernel, region, patterns, coalescer, warp_id,
    instance_index, total_instances, lane_ids, rng,
) -> PlainSegment:
    repeat = model.plain_repeat
    accesses = _accesses_for_range(
        kernel, region.start, region.end, patterns, coalescer, warp_id,
        instance_index, total_instances, repeat, lane_ids, rng,
        warp_size=lane_ids.size if lane_ids.size > 32 else 32,
    )
    n_instructions = _weighted_instructions(kernel, region.start, region.end) * repeat
    return PlainSegment(n_instructions=n_instructions, accesses=tuple(accesses))


def _candidate_segment(
    model, kernel, selection, region, patterns, coalescer, warp_id,
    instance_index, total_instances, lane_ids, rng,
) -> CandidateSegment:
    candidate = selection.candidate_by_block(region.block_id)
    if candidate.is_loop:
        iterations = model.iterations_for(candidate.block_id, warp_id, rng)
        if iterations < 1:
            raise TraceError(
                f"iterations_for({candidate.block_id}, {warp_id}) returned "
                f"{iterations}"
            )
        if candidate.trip is not None and candidate.trip.static_count is not None:
            iterations = candidate.trip.static_count
    else:
        iterations = 1
    accesses = _accesses_for_range(
        kernel, region.start, region.end, patterns, coalescer, warp_id,
        instance_index, total_instances, iterations, lane_ids, rng,
        warp_size=32,
    )
    return CandidateSegment(
        block_id=candidate.block_id,
        n_instructions=_weighted_instructions(kernel, region.start, region.end)
        * iterations,
        accesses=tuple(accesses),
        iterations=iterations,
        condition_value=iterations,
    )
