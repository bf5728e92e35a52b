"""Compute/data co-location analysis (Sections 3.2.1-3.2.2, Figure 6).

Co-location of one candidate instance = the fraction of its memory
accesses that land on its modal memory stack; a workload's co-location
is the mean over instances. Figure 6 compares the baseline mapping
against the best consecutive-bit mapping learned from the first 0.1%,
0.5%, 1%, and 100% (oracle) of candidate instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..config import SystemConfig
from ..mapping.transparent import colocation_under_mapping, learn_offline
from ..memory.address_mapping import (
    BaselineMapping,
    ConsecutiveBitMapping,
)
from ..trace.generator import WorkloadTrace

#: Figure 6's learning fractions, in bar order.
LEARNING_FRACTIONS = (0.001, 0.005, 0.01, 1.0)


def fraction_label(fraction: float) -> str:
    if fraction >= 1.0:
        return "all NDP blocks"
    return f"first {fraction:.1%} NDP blocks"


@dataclass(frozen=True)
class ColocationStudy:
    """Per-workload Figure 6 data: co-location per mapping choice."""

    workload: str
    baseline: float
    by_fraction: Dict[float, float]
    learned_positions: Dict[float, int]

    @property
    def oracle(self) -> float:
        return self.by_fraction[1.0]

    def series(self) -> Dict[str, float]:
        result = {"baseline mapping": self.baseline}
        for fraction in LEARNING_FRACTIONS:
            result[fraction_label(fraction)] = self.by_fraction[fraction]
        return result


def study_colocation(
    trace: WorkloadTrace,
    config: SystemConfig,
    fractions: Sequence[float] = LEARNING_FRACTIONS,
) -> ColocationStudy:
    """Run the Figure 6 analysis for one workload trace."""
    n_stacks = config.stacks.n_stacks
    baseline = colocation_under_mapping(
        BaselineMapping(config), trace.tasks, n_stacks
    )
    by_fraction: Dict[float, float] = {}
    positions: Dict[float, int] = {}
    for fraction in fractions:
        learned = learn_offline(config, trace.tasks, fraction)
        mapping = ConsecutiveBitMapping(config, learned.position)
        by_fraction[fraction] = colocation_under_mapping(
            mapping, trace.tasks, n_stacks
        )
        positions[fraction] = learned.position
    return ColocationStudy(
        workload=trace.workload_name,
        baseline=baseline,
        by_fraction=by_fraction,
        learned_positions=positions,
    )
