"""Warp-task trace structures consumed by the simulator.

A workload trace is a list of :class:`WarpTask`; each task models one
warp's dynamic execution as an ordered list of segments:

* :class:`PlainSegment` — code with no offloading candidate: executes
  on the main GPU unconditionally.
* :class:`CandidateSegment` — one dynamic *instance* of an offloading
  candidate block (Section 3.2.1 calls this an "offloading candidate
  instance"): the offload controller decides at run time whether it
  runs on a stack SM or inline on the main GPU.

Memory accesses are stored post-coalescing as tuples of line-start byte
addresses, which is exactly the granularity every downstream consumer
(mapping sweep, cache, DRAM, link packets) operates at. Each access
also carries the coalescer's line ids (address >> line bits), the
caches' keys, so the simulator never re-derives them.

The trace is the largest live structure of a run, so it is compact:
:class:`WarpAccess` is slotted (no per-instance ``__dict__``), and the
coalescer that builds a trace interns its ints, so each distinct line
is one address object and one id object shared by every access that
touches it (``docs/PERFORMANCE.md``, "Compact traces").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import TraceError


def _shifted(addresses: Tuple[int, ...], line_bits: int) -> Tuple[int, ...]:
    """Line ids of ``addresses`` at shift ``line_bits``."""
    return tuple([address >> line_bits for address in addresses])


@dataclass(frozen=True, slots=True)
class WarpAccess:
    """One warp-level memory instruction instance, already coalesced.

    ``ids`` holds ``line_ids(ids_shift)``: the coalescer passes the ids
    its merge produced, and an access built without them fills the
    slots on its first ``line_ids`` call. Neither slot takes part in
    equality or hashing."""

    access_id: int
    is_store: bool
    line_addresses: Tuple[int, ...]
    active_lanes: int = 32
    ids: Tuple[int, ...] = field(default=(), compare=False, repr=False)
    ids_shift: int = field(default=-1, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.line_addresses:
            raise TraceError(f"access {self.access_id} has no lines")
        if self.active_lanes < 1:
            raise TraceError(f"access {self.access_id} has no active lanes")

    @property
    def n_lines(self) -> int:
        return len(self.line_addresses)

    def line_ids(self, line_bits: int) -> Tuple[int, ...]:
        """Cache-line ids (address >> line_bits); the carried tuple when
        ``line_bits`` is its shift, else computed and kept in its place."""
        if line_bits == self.ids_shift:
            return self.ids
        ids = _shifted(self.line_addresses, line_bits)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "ids_shift", line_bits)
        return ids


@dataclass(frozen=True)
class PlainSegment:
    """Non-candidate code: ``n_instructions`` dynamic warp instructions
    (including the memory instructions listed in ``accesses``)."""

    n_instructions: int
    accesses: Tuple[WarpAccess, ...] = ()

    def __post_init__(self) -> None:
        if self.n_instructions < len(self.accesses):
            raise TraceError("segment has more accesses than instructions")


@dataclass(frozen=True)
class CandidateSegment:
    """One dynamic instance of an offloading-candidate block.

    ``iterations`` is the number of loop iterations this instance
    executes (1 for straight-line candidates); ``condition_value`` is
    the runtime value the offload controller compares against a
    conditional candidate's threshold (for the paper's loops this is
    the loop trip count); ``n_instructions``/``accesses`` cover the
    whole instance (all iterations flattened).
    """

    block_id: int
    n_instructions: int
    accesses: Tuple[WarpAccess, ...]
    iterations: int = 1
    condition_value: Optional[int] = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise TraceError(f"candidate instance with {self.iterations} iterations")
        if self.n_instructions < 1:
            raise TraceError("candidate instance with no instructions")

    @property
    def n_loads(self) -> int:
        return sum(1 for a in self.accesses if not a.is_store)

    @property
    def n_stores(self) -> int:
        return sum(1 for a in self.accesses if a.is_store)

    def all_line_addresses(self) -> List[int]:
        """Every line address of the instance, in access order (a fresh
        list on each call)."""
        return self.line_address_array().tolist()

    def line_address_array(self) -> np.ndarray:
        """Every line address of the instance, in access order, as a
        read-only int64 array built once per segment: the memory-map
        analyzer's vectorized mapping sweep re-reads it for every
        learning observation, and the colocation study and gridrun's
        candidate marks read it too. The array is the only copy the
        segment keeps; the accesses hold the addresses themselves."""
        try:
            return self._line_array_cache  # type: ignore[attr-defined]
        except AttributeError:
            lines: List[int] = []
            for access in self.accesses:
                lines.extend(access.line_addresses)
            array = np.asarray(lines, dtype=np.int64)
            array.setflags(write=False)
            object.__setattr__(self, "_line_array_cache", array)
            return array


Segment = Union[PlainSegment, CandidateSegment]


@dataclass(frozen=True)
class WarpTask:
    """One warp's dynamic execution, in segment order."""

    warp_id: int
    segments: Tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise TraceError(f"warp task {self.warp_id} has no segments")

    @property
    def total_instructions(self) -> int:
        return sum(s.n_instructions for s in self.segments)

    @property
    def candidate_segments(self) -> List[CandidateSegment]:
        return [s for s in self.segments if isinstance(s, CandidateSegment)]

    @property
    def n_candidate_instances(self) -> int:
        return len(self.candidate_segments)


def count_candidate_instances(tasks: Sequence[WarpTask]) -> int:
    return sum(task.n_candidate_instances for task in tasks)


def total_trace_instructions(tasks: Sequence[WarpTask]) -> int:
    return sum(task.total_instructions for task in tasks)
