"""Programmer-transparent data mapping (Sections 3.2.3 and 4.3).

The runtime state machine:

1. **Learning phase** — kernels run on the main GPU with their data
   still in *CPU* memory (the driver delayed the host-to-device copy),
   so every global access crosses PCI-E. The memory-map analyzer
   watches candidate instances.
2. When the target number of instances (``learn_fraction`` of the
   total, at least ``min_learn_instances``) has been observed, the GPU
   runtime is interrupted: the best consecutive-bit mapping is chosen,
   candidate-touched ranges are marked (by this run's analyzer — the
   trace's allocation table stays read-only), and the delayed memory copy
   places those ranges with the learned mapping — everything else keeps
   the baseline mapping. There is no remapping cost beyond the copy
   that would have happened anyway.
3. **Regular execution** — the hybrid mapping is live.

:func:`learn_offline` runs the same analysis over a whole trace at
once; the figure drivers use it for the oracle bars of Figures 3 and 6.
"""

from __future__ import annotations

import enum
import math
from typing import List, Optional, Sequence

from ..config import SystemConfig
from ..errors import AnalysisError
from ..gpu.warp import CandidateSegment, WarpTask
from ..memory.address_mapping import (
    AddressMapping,
    BaselineMapping,
    ConsecutiveBitMapping,
    HybridMapping,
)
from ..memory.allocation import MemoryAllocationTable
from ..ndp.analyzer import LearnedMapping, MemoryMapAnalyzer
from ..obs.recorder import NULL_RECORDER


class MappingPhase(enum.Enum):
    """Where the tmap runtime is in its learning -> regular lifecycle."""

    LEARNING = "learning"
    REGULAR = "regular"


class TransparentDataMapping:
    """Runtime driver of the learning phase -> hybrid mapping switch."""

    def __init__(
        self,
        config: SystemConfig,
        allocation_table: MemoryAllocationTable,
        total_candidate_instances: int,
        recorder=NULL_RECORDER,
    ) -> None:
        self.config = config
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        self.analyzer = MemoryMapAnalyzer(config, allocation_table)
        # Target: learn_fraction of all instances, floored at
        # min_learn_instances — but capped at 1/512 (about 0.2%) of the
        # trace's instances, never below that floor, so that
        # the deliberately small traces used here (thousands of
        # instances, not the paper's millions) do not spend a distorted
        # share of their run in the PCI-E-bound learning phase.
        minimum = config.control.min_learn_instances
        target = max(
            minimum,
            math.ceil(config.control.learn_fraction * total_candidate_instances),
        )
        cap = max(minimum, total_candidate_instances // 512)
        self.learn_target = max(1, min(target, cap, total_candidate_instances))
        self.phase = (
            MappingPhase.LEARNING
            if total_candidate_instances > 0
            else MappingPhase.REGULAR
        )
        self.learned: Optional[LearnedMapping] = None
        self._mapping: AddressMapping = BaselineMapping(config)

    @property
    def in_learning_phase(self) -> bool:
        return self.phase is MappingPhase.LEARNING

    @property
    def current_mapping(self) -> AddressMapping:
        return self._mapping

    def observe_instance(self, segment: CandidateSegment) -> bool:
        """Feed one candidate instance; returns True when this
        observation completed the learning phase."""
        if self.phase is not MappingPhase.LEARNING:
            return False
        self.analyzer.observe(segment)
        if self.analyzer.instances_observed >= self.learn_target:
            self._finalize()
            return True
        return False

    def _finalize(self) -> None:
        self.learned = self.analyzer.best_mapping()
        if self._recorder.enabled:
            self._recorder.learning(
                position=self.learned.position,
                colocation=self.learned.colocation,
                instances_observed=self.learned.instances_observed,
                scores=self.learned.per_position_colocation,
            )
        if self.learned.colocation >= self.config.control.min_learned_colocation:
            learned_mapping = ConsecutiveBitMapping(self.config, self.learned.position)
            self._mapping = HybridMapping(
                self.config,
                learned_mapping,
                candidate_pages=self.learned.candidate_pages,
            )
        # else: no observed mapping co-locates (irregular accesses) —
        # concentrating pages would cost main-GPU bandwidth for no NDP
        # benefit, so the baseline mapping stays in force.
        self.phase = MappingPhase.REGULAR


def candidate_instances(tasks: Sequence[WarpTask]) -> List[CandidateSegment]:
    """All candidate instances of a trace in warp order."""
    instances: List[CandidateSegment] = []
    for task in tasks:
        instances.extend(task.candidate_segments)
    return instances


def learn_offline(
    config: SystemConfig,
    tasks: Sequence[WarpTask],
    fraction: float = 1.0,
    allocation_table: Optional[MemoryAllocationTable] = None,
) -> LearnedMapping:
    """Run the analyzer over the first ``fraction`` of candidate
    instances of a trace without simulating time (Figure 6 bars). With
    the trace's ``allocation_table`` the outcome also carries the
    candidate pages (empty without one)."""
    if not 0.0 < fraction <= 1.0:
        raise AnalysisError(f"fraction must be in (0, 1], got {fraction}")
    instances = candidate_instances(tasks)
    if not instances:
        raise AnalysisError("trace has no offloading candidate instances")
    n_observe = max(1, math.ceil(fraction * len(instances)))
    analyzer = MemoryMapAnalyzer(config, allocation_table)
    for segment in instances[:n_observe]:
        analyzer.observe(segment)
    return analyzer.best_mapping()


def colocation_under_mapping(
    mapping: AddressMapping,
    tasks: Sequence[WarpTask],
    n_stacks: int,
) -> float:
    """Mean per-instance modal-stack fraction under ``mapping`` — the
    'probability of accessing one memory stack in an offloading
    candidate instance' metric of Figures 3 and 6."""
    import numpy as np

    instances = candidate_instances(tasks)
    if not instances:
        raise AnalysisError("trace has no offloading candidate instances")
    total = 0.0
    counted = 0
    for segment in instances:
        addresses = segment.line_address_array()
        if addresses.size == 0:
            continue
        stacks = mapping.stack_of(addresses)
        counts = np.bincount(stacks, minlength=n_stacks)
        total += counts.max() / addresses.size
        counted += 1
    if counted == 0:
        raise AnalysisError("no candidate instance had memory accesses")
    return total / counted
