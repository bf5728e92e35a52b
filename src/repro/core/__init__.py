"""Core: policies, system assembly, simulator, experiment drivers."""

from .experiment import (
    WorkloadRunner,
    run_suite,
    suite_ratios,
    suite_speedups,
)
from .policies import (
    BASELINE,
    FIGURE8_GRID,
    IDEAL_NDP,
    NDP_CTRL_BMAP,
    NDP_CTRL_ORACLE,
    NDP_CTRL_TMAP,
    NDP_NOCTRL_BMAP,
    NDP_NOCTRL_ORACLE,
    NDP_NOCTRL_TMAP,
    TOM,
    MappingPolicy,
    OffloadPolicy,
    RunPolicy,
)
from .results import OffloadSummary, SimulationResult
from .simulator import Simulator, simulate
from .supervisor import (
    JobFailure,
    JobOutcome,
    SupervisorConfig,
    run_supervised,
)
from .system import NDPSystem

__all__ = [
    "BASELINE",
    "FIGURE8_GRID",
    "IDEAL_NDP",
    "JobFailure",
    "JobOutcome",
    "MappingPolicy",
    "NDPSystem",
    "NDP_CTRL_BMAP",
    "NDP_CTRL_ORACLE",
    "NDP_CTRL_TMAP",
    "NDP_NOCTRL_BMAP",
    "NDP_NOCTRL_ORACLE",
    "NDP_NOCTRL_TMAP",
    "OffloadPolicy",
    "OffloadSummary",
    "RunPolicy",
    "SimulationResult",
    "Simulator",
    "SupervisorConfig",
    "TOM",
    "WorkloadRunner",
    "run_suite",
    "run_supervised",
    "simulate",
    "suite_ratios",
    "suite_speedups",
]
