"""repro — a reproduction of TOM: Transparent Offloading and Mapping
(Hsieh et al., ISCA 2016) as a trace-driven near-data-processing GPU
simulator.

Quick start::

    from repro import WorkloadRunner, TOM, TraceScale

    runner = WorkloadRunner("LIB", scale=TraceScale.SMALL)
    result = runner.run(TOM)
    print(f"TOM speedup on LIB: {runner.speedup(TOM):.2f}x")

Layers (see DESIGN.md for the full inventory):

* :mod:`repro.isa` / :mod:`repro.compiler` — the mini-PTX IR and the
  Section 3.1 offload-candidate selection pass;
* :mod:`repro.memory` / :mod:`repro.interconnect` / :mod:`repro.gpu` —
  the hardware substrates (mappings, caches, DRAM, links, SMs);
* :mod:`repro.ndp` / :mod:`repro.mapping` — TOM's hardware/runtime
  (offload controller, busy monitor, map analyzer, coherence,
  programmer-transparent data mapping);
* :mod:`repro.workloads` / :mod:`repro.trace` — the Table 2 suite and
  trace generation;
* :mod:`repro.core` — policies, the event-driven simulator, and
  experiment drivers;
* :mod:`repro.analysis` — figure-level analyses and text reports.
"""

from .config import (
    SystemConfig,
    baseline_config,
    ndp_config,
)
from .core import (
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
    JobFailure,
    JobOutcome,
    MappingPolicy,
    OffloadPolicy,
    RunPolicy,
    SimulationResult,
    Simulator,
    SupervisorConfig,
    WorkloadRunner,
    run_suite,
    run_supervised,
    simulate,
    suite_ratios,
    suite_speedups,
)
from .errors import JobExecutionError, ReproError
from .trace.generator import TraceScale, WorkloadTrace, build_trace
from .workloads import PAPER, SUITE_ORDER, full_suite, make_workload

__version__ = "1.0.0"

__all__ = [
    "BASELINE",
    "FIGURE8_GRID",
    "IDEAL_NDP",
    "JobExecutionError",
    "JobFailure",
    "JobOutcome",
    "MappingPolicy",
    "NDP_CTRL_BMAP",
    "NDP_CTRL_ORACLE",
    "NDP_CTRL_TMAP",
    "NDP_NOCTRL_BMAP",
    "NDP_NOCTRL_ORACLE",
    "NDP_NOCTRL_TMAP",
    "OffloadPolicy",
    "PAPER",
    "ReproError",
    "RunPolicy",
    "SUITE_ORDER",
    "SimulationResult",
    "Simulator",
    "SupervisorConfig",
    "SystemConfig",
    "TOM",
    "TraceScale",
    "WorkloadRunner",
    "WorkloadTrace",
    "baseline_config",
    "build_trace",
    "full_suite",
    "make_workload",
    "ndp_config",
    "run_suite",
    "run_supervised",
    "simulate",
    "suite_ratios",
    "suite_speedups",
    "__version__",
]
