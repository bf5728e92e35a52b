"""Trace serialization: save a generated workload trace to disk and
reload it bit-identically.

Traces are deterministic given (workload, config, scale, seed), but
generating a LARGE trace takes tens of seconds; serializing lets a
benchmarking pipeline generate once and fan out many policy runs, and
lets a bug report ship the exact trace that triggered it.

Format: a single ``.npz`` (numpy archive) holding flattened segment
tables plus a JSON header. Everything needed to rebuild the
``WorkloadTrace`` — kernel assembly text, allocation layout, selection
— is re-derived from the embedded generation parameters, which keeps
the format small and guards against archive/library version skew: on
load, the header's library version and a structural checksum are
verified.
"""

from __future__ import annotations

import json
from typing import List

import numpy as np

from ..errors import TraceError
from ..gpu.coalescer import Coalescer
from ..gpu.warp import CandidateSegment, PlainSegment, WarpAccess, WarpTask
from .generator import WorkloadTrace

FORMAT_VERSION = 1

_PLAIN = 0
_CANDIDATE = 1


def trace_checksum(trace: WorkloadTrace) -> int:
    """A cheap structural checksum over segment shapes and addresses."""
    mask = (1 << 61) - 1
    total = trace.total_instructions & mask
    for task in trace.tasks:
        for segment in task.segments:
            for access in segment.accesses:
                total = (total * 31 + (sum(access.line_addresses) & 0x7FFFFFFF)) & mask
    return total


def save_trace(trace: WorkloadTrace, path: str) -> None:
    """Write the trace's dynamic structure to ``path`` (.npz)."""
    seg_meta: List[List[int]] = []  # per segment: warp, kind, block, instrs, iters, cond, n_acc
    acc_meta: List[List[int]] = []  # per access: access_id, is_store, lanes, n_lines
    lines: List[int] = []
    for task in trace.tasks:
        for segment in task.segments:
            if isinstance(segment, CandidateSegment):
                seg_meta.append(
                    [
                        task.warp_id,
                        _CANDIDATE,
                        segment.block_id,
                        segment.n_instructions,
                        segment.iterations,
                        segment.condition_value or 0,
                        len(segment.accesses),
                    ]
                )
            else:
                seg_meta.append(
                    [task.warp_id, _PLAIN, -1, segment.n_instructions, 1, 0,
                     len(segment.accesses)]
                )
            for access in segment.accesses:
                acc_meta.append(
                    [
                        access.access_id,
                        int(access.is_store),
                        access.active_lanes,
                        access.n_lines,
                    ]
                )
                lines.extend(access.line_addresses)

    header = {
        "format": FORMAT_VERSION,
        "workload": trace.workload_name,
        "warp_size": trace.warp_size,
        "measured_coalescing": trace.measured_coalescing,
        "checksum": trace_checksum(trace),
        "kernel_dump": trace.kernel.dump(),
        "allocations": [
            {"name": r.name, "start": r.start, "length": r.length}
            for r in trace.allocation_table
        ],
    }
    np.savez_compressed(
        path,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        segments=np.asarray(seg_meta, dtype=np.int64),
        accesses=np.asarray(acc_meta, dtype=np.int64),
        lines=np.asarray(lines, dtype=np.int64),
    )


def load_trace(path: str, reference: WorkloadTrace) -> WorkloadTrace:
    """Load a trace saved by :func:`save_trace`.

    ``reference`` supplies the static context (kernel, selection,
    metadata, allocation table) — typically a freshly generated trace
    for the same workload/config; the archive's dynamic structure
    replaces the reference's tasks after the kernel dump and
    allocation layout are verified to match.
    """
    with np.load(path) as archive:
        header = json.loads(bytes(archive["header"]).decode())
        segments = archive["segments"]
        accesses = archive["accesses"]
        lines = archive["lines"]

    if header.get("format") != FORMAT_VERSION:
        raise TraceError(
            f"trace archive format {header.get('format')} != {FORMAT_VERSION}"
        )
    if header["workload"] != reference.workload_name:
        raise TraceError(
            f"archive holds {header['workload']!r}, reference is "
            f"{reference.workload_name!r}"
        )
    if header["kernel_dump"] != reference.kernel.dump():
        raise TraceError("archive kernel differs from the reference kernel")
    ref_allocs = [
        {"name": r.name, "start": r.start, "length": r.length}
        for r in reference.allocation_table
    ]
    if header["allocations"] != ref_allocs:
        raise TraceError("archive allocation layout differs from the reference")

    if np.any(lines & (reference.line_bytes - 1)):
        raise TraceError(
            f"archive line addresses are not {reference.line_bytes}-byte aligned"
        )
    # The loaded accesses go through the coalescer's interning, like a
    # built trace's: one int object per distinct line, ids carried.
    coalescer = Coalescer(reference.line_bytes)
    line_bits = coalescer.line_bits
    line_ids = (lines >> line_bits).tolist()
    access_rows = accesses.tolist()

    tasks: List[WarpTask] = []
    current_warp = None
    current_segments: List = []
    access_cursor = 0
    line_cursor = 0
    for warp_id, kind, block_id, n_instr, iters, cond, n_acc in segments.tolist():
        if current_warp is not None and warp_id != current_warp:
            tasks.append(WarpTask(warp_id=current_warp,
                                  segments=tuple(current_segments)))
            current_segments = []
        current_warp = warp_id
        warp_accesses = []
        for access_id, is_store, lanes, n_lines in access_rows[
            access_cursor : access_cursor + n_acc
        ]:
            ids, addresses = coalescer.intern(
                line_ids[line_cursor : line_cursor + n_lines]
            )
            line_cursor += n_lines
            warp_accesses.append(
                WarpAccess(
                    access_id=access_id,
                    is_store=bool(is_store),
                    line_addresses=addresses,
                    active_lanes=lanes,
                    ids=ids,
                    ids_shift=line_bits,
                )
            )
        access_cursor += n_acc
        if kind == _CANDIDATE:
            current_segments.append(
                CandidateSegment(
                    block_id=block_id,
                    n_instructions=n_instr,
                    accesses=tuple(warp_accesses),
                    iterations=iters,
                    condition_value=cond or None,
                )
            )
        else:
            current_segments.append(
                PlainSegment(n_instructions=n_instr, accesses=tuple(warp_accesses))
            )
    if current_warp is not None:
        tasks.append(WarpTask(warp_id=current_warp, segments=tuple(current_segments)))

    loaded = WorkloadTrace(
        workload_name=reference.workload_name,
        kernel=reference.kernel,
        selection=reference.selection,
        metadata=reference.metadata,
        tasks=tuple(tasks),
        allocation_table=reference.allocation_table,
        warp_size=header["warp_size"],
        measured_coalescing=header["measured_coalescing"],
        line_bytes=reference.line_bytes,
    )
    if trace_checksum(loaded) != header["checksum"]:
        raise TraceError("trace archive failed its structural checksum")
    return loaded
