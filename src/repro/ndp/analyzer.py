"""The Memory Map Analyzer (component 3 in Figure 7) — implements the
learning half of Section 3.2's programmer-transparent data mapping
(the Section 4.3 hardware realization).

During the learning phase the analyzer watches every offloading
candidate instance's memory accesses and, for each potential stack
mapping (consecutive-bit positions 7..16 in a 4-stack system),
accumulates how concentrated the instance's accesses would be on a
single stack. When the pre-determined number of instances has been
observed it interrupts the GPU runtime, which:

* picks the bit position with the highest average co-location, and
* marks every allocation range that candidate instances touched, so
  only those ranges get the learned mapping when data is finally
  copied to GPU memory.

The marks are the analyzer's own: it looks ranges up in the (read-only)
allocation table and hands the pages of the marked ranges out with the
:class:`LearnedMapping`, so every run learns from a clean slate.

The hardware cost modelled in Section 6.6 is 40 bits per in-flight
candidate instance (10 mappings x 4-bit stack counters), 48 warps/SM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

import numpy as np

from ..config import SystemConfig
from ..errors import AnalysisError
from ..gpu.warp import CandidateSegment
from ..memory.address_mapping import ConsecutiveBitMapping, sweep_positions
from ..memory.allocation import AllocationRange, MemoryAllocationTable

#: Section 6.6 storage accounting.
BITS_PER_MAPPING_OPTION = 4
N_MAPPING_OPTIONS = 10
BITS_PER_INSTANCE = BITS_PER_MAPPING_OPTION * N_MAPPING_OPTIONS  # 40


@dataclass(frozen=True)
class LearnedMapping:
    """Outcome of the learning phase. ``candidate_pages`` are the page
    indices of the allocation ranges the observed instances touched —
    the pages the hybrid mapping places with the learned position."""

    position: int
    colocation: float
    instances_observed: int
    per_position_colocation: Dict[int, float]
    candidate_pages: FrozenSet[int]


class MemoryMapAnalyzer:
    """Accumulates per-mapping co-location over observed instances."""

    def __init__(
        self,
        config: SystemConfig,
        allocation_table: Optional[MemoryAllocationTable] = None,
    ) -> None:
        self.config = config
        self.allocation_table = allocation_table
        self.positions = sweep_positions(config)
        self._mappings = [ConsecutiveBitMapping(config, p) for p in self.positions]
        self._colocation_sum: Dict[int, float] = {p: 0.0 for p in self.positions}
        self._modal_stack_counts: Dict[int, np.ndarray] = {
            p: np.zeros(config.stacks.n_stacks, dtype=np.int64)
            for p in self.positions
        }
        self.instances_observed = 0
        # Ranges candidates touched, keyed by start (the candidate bit).
        self._marked: Dict[int, AllocationRange] = {}

    def observe(self, segment: CandidateSegment) -> None:
        """Record one candidate instance's accesses (learning phase)."""
        addresses = segment.line_address_array()
        if addresses.size == 0:
            return
        for position, mapping in zip(self.positions, self._mappings):
            stacks = mapping.stack_of(addresses)
            counts = np.bincount(stacks, minlength=self.config.stacks.n_stacks)
            self._colocation_sum[position] += counts.max() / addresses.size
            self._modal_stack_counts[position][int(counts.argmax())] += 1
        self.instances_observed += 1
        table = self.allocation_table
        if table is not None:
            # Page-deduplicated addresses are enough to find every
            # touched range without walking each line.
            for address in (np.unique(addresses >> 12) << 12).tolist():
                entry = table.lookup(address)
                if entry is not None:
                    self._marked[entry.start] = entry

    def candidate_pages(self) -> FrozenSet[int]:
        """Page indices covered by the ranges marked so far."""
        pages: set = set()
        if self.allocation_table is not None:
            page_bytes = self.allocation_table.page_bytes
            for entry in self._marked.values():
                first = entry.start // page_bytes
                last = (entry.end - 1) // page_bytes
                pages.update(range(first, last + 1))
        return frozenset(pages)

    def best_mapping(self) -> LearnedMapping:
        """The bit position with the highest mean co-location.

        Positions within 2% of the best co-location are tied and the
        lowest one wins (see the comment below).
        """
        if self.instances_observed == 0:
            raise AnalysisError("learning phase observed no candidate instances")
        averages = {
            position: total / self.instances_observed
            for position, total in self._colocation_sum.items()
        }
        best_avg = max(averages.values())
        tied = [p for p in self.positions if averages[p] >= best_avg - 0.02]
        # Lowest position among the near-ties: the finest interleave
        # granularity that still co-locates, so that independent warps
        # spread across stacks and the per-stack RX links stay balanced
        # for whatever the dynamic controller leaves on the main GPU.
        best_position = min(tied)
        return LearnedMapping(
            position=best_position,
            colocation=averages[best_position],
            instances_observed=self.instances_observed,
            per_position_colocation=averages,
            candidate_pages=self.candidate_pages(),
        )

    @property
    def storage_bits_per_sm(self) -> int:
        """1,920 bits: 40 bits x 48 concurrent warps (Section 6.6)."""
        return BITS_PER_INSTANCE * self.config.gpu.warps_per_sm
