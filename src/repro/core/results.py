"""Simulation results: the metrics every figure is built from.

The paper's primary metric is IPC normalized to the baseline GPU
(Section 5.3); traffic is total bytes over all off-chip links split by
channel category (Figure 9); energy is the Figure 10 three-way split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..energy.model import EnergyBreakdown
from ..errors import AnalysisError
from ..interconnect.links import TrafficBreakdown


@dataclass(frozen=True)
class OffloadSummary:
    """Runtime offloading behaviour of one simulation."""

    candidates_considered: int
    candidates_offloaded: int
    decision_breakdown: Dict[str, int]
    offloaded_warp_instructions: int
    total_warp_instructions: int
    dirty_lines_reported: int

    @property
    def offload_rate(self) -> float:
        if self.candidates_considered == 0:
            return 0.0
        return self.candidates_offloaded / self.candidates_considered

    @property
    def offloaded_instruction_fraction(self) -> float:
        """Fraction of all executed instructions that ran on stack SMs
        (Section 6.1 quotes 46.4% no-ctrl -> 15.7% ctrl)."""
        if self.total_warp_instructions == 0:
            return 0.0
        return self.offloaded_warp_instructions / self.total_warp_instructions


#: Fields in :meth:`SimulationResult.to_row`.
_ROW_LENGTH = 24


@dataclass(frozen=True)
class SimulationResult:
    """Everything measured in one run."""

    workload: str
    policy_label: str
    cycles: float
    warp_instructions: int
    warp_size: int
    traffic: TrafficBreakdown
    energy: EnergyBreakdown
    offload: OffloadSummary
    learned_bit_position: Optional[int] = None
    learned_colocation: Optional[float] = None
    l1_load_miss_rate: float = 0.0
    l2_load_miss_rate: float = 0.0
    dram_row_hit_rate: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def thread_instructions(self) -> int:
        return self.warp_instructions * self.warp_size

    @property
    def ipc(self) -> float:
        if self.cycles <= 0:
            raise AnalysisError(f"run {self.policy_label!r} has no elapsed cycles")
        return self.thread_instructions / self.cycles

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """IPC ratio; both runs must execute the same trace."""
        if baseline.warp_instructions != self.warp_instructions:
            raise AnalysisError(
                "speedup between runs of different traces "
                f"({baseline.warp_instructions} vs {self.warp_instructions} "
                "warp instructions)"
            )
        return self.ipc / baseline.ipc

    def traffic_ratio_over(self, baseline: "SimulationResult") -> float:
        base = baseline.traffic.off_chip_total
        if base <= 0:
            raise AnalysisError("baseline run moved no off-chip bytes")
        return self.traffic.off_chip_total / base

    def energy_ratio_over(self, baseline: "SimulationResult") -> float:
        base = baseline.energy.total_j
        if base <= 0:
            raise AnalysisError("baseline run consumed no energy")
        return self.energy.total_j / base

    def to_row(self) -> list:
        """The stored fields as one flat list, each breakdown's fields
        inlined in field order: the result cache's entry body. The
        order is the cache's schema, so changing it means bumping the
        cache's format version. Derived values (ipc, totals, rates) are
        not stored."""
        traffic, energy, offload = self.traffic, self.energy, self.offload
        return [
            self.workload, self.policy_label, self.cycles,
            self.warp_instructions, self.warp_size,
            traffic.gpu_memory_rx, traffic.gpu_memory_tx,
            traffic.memory_memory, traffic.pcie,
            energy.sm_j, energy.links_j, energy.dram_j,
            offload.candidates_considered, offload.candidates_offloaded,
            offload.decision_breakdown, offload.offloaded_warp_instructions,
            offload.total_warp_instructions, offload.dirty_lines_reported,
            self.learned_bit_position, self.learned_colocation,
            self.l1_load_miss_rate, self.l2_load_miss_rate,
            self.dram_row_hit_rate, self.extra,
        ]

    @classmethod
    def from_row(cls, row: list) -> "SimulationResult":
        """Inverse of :meth:`to_row` for a row parsed from JSON; the
        result owns the row's dicts. Raises ``ValueError`` unless
        ``row`` is a list of :meth:`to_row`'s length whose decision
        breakdown and extras are objects."""
        if type(row) is not list or len(row) != _ROW_LENGTH:
            raise ValueError(f"not a {_ROW_LENGTH}-field result row")
        if type(row[14]) is not dict or type(row[23]) is not dict:
            raise ValueError("decisions and extra must be objects")
        return cls(
            *row[:5],
            TrafficBreakdown(*row[5:9]),
            EnergyBreakdown(*row[9:12]),
            OffloadSummary(*row[12:18]),
            *row[18:],
        )

    def summary_line(self) -> str:
        return (
            f"{self.workload:>4s} {self.policy_label:<14s} "
            f"cycles={self.cycles:>12.0f} ipc={self.ipc:8.2f} "
            f"offchip_bytes={self.traffic.off_chip_total:>12.0f} "
            f"energy_mj={self.energy.total_j * 1e3:8.3f} "
            f"offloaded={self.offload.offloaded_instruction_fraction:6.1%}"
        )
