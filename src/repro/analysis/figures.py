"""Figure/table drivers: one function per paper experiment.

Each driver runs the required simulations and returns a
:class:`FigureResult` whose ``rows`` mirror the paper's figure (series
-> workload -> value) and whose ``render()`` produces the text table
printed by the corresponding benchmark and recorded in EXPERIMENTS.md.

Scale defaults to ``TraceScale.SMALL`` and can be raised globally via
the ``REPRO_BENCH_SCALE`` environment variable (TINY/SMALL/MEDIUM/
LARGE) — tmap's learning-phase overhead is a fixed cost, so larger
scales track the paper more closely at the price of run time.

Every timing driver submits its simulations through
:func:`repro.core.experiment.run_suite`, which fans out across worker
processes (``REPRO_JOBS``) and reuses the persistent result cache
(``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE``); see docs/PERFORMANCE.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..compiler.metadata import ENTRY_BITS, TABLE_ENTRIES
from ..config import SystemConfig, env_text, ndp_config
from ..core.experiment import run_suite, suite_ratios, suite_speedups
from ..core.policies import (
    FIGURE8_GRID,
    IDEAL_NDP,
    NDP_CTRL_TMAP,
    NDP_NOCTRL_BMAP,
    NDP_NOCTRL_ORACLE,
)
from ..core.results import SimulationResult
from ..energy.area import estimate_area
from ..errors import ConfigError
from ..memory.allocation import TABLE_BITS as ALLOC_TABLE_BITS
from ..ndp.analyzer import BITS_PER_INSTANCE
from ..trace.generator import TraceScale, build_trace
from ..utils.stats import geometric_mean
from ..workloads.suite import SUITE_ORDER
from .colocation import LEARNING_FRACTIONS, fraction_label, study_colocation
from .offsets import BUCKETS, analyze_block_offsets, bucket_distribution, fraction_with_fixed_offset
from .reporting import format_table

SuiteResults = Dict[str, Dict[str, SimulationResult]]


def default_scale() -> TraceScale:
    name = env_text("REPRO_BENCH_SCALE", "SMALL").upper()
    try:
        return TraceScale[name]
    except KeyError:
        raise ConfigError(
            f"REPRO_BENCH_SCALE must be one of {', '.join(TraceScale.__members__)}"
            f" (any case), got {name!r}"
        ) from None


@dataclass
class FigureResult:
    figure_id: str
    title: str
    columns: List[str]
    rows: "Dict[str, Dict[str, float]]"
    value_format: str = "{:.2f}"
    note: Optional[str] = None

    def render(self) -> str:
        return format_table(
            f"{self.figure_id}: {self.title}",
            self.columns,
            self.rows,
            value_format=self.value_format,
            note=self.note,
        )

    def series(self, name: str) -> Dict[str, float]:
        return self.rows[name]


def _suite_columns() -> List[str]:
    return list(SUITE_ORDER) + ["AVG"]


def _with_avg(values: Dict[str, float], kind: str = "geo") -> Dict[str, float]:
    """Speedups/ratios average geometrically (the paper's convention);
    fraction-valued series (which may contain zeros) arithmetically."""
    samples = [v for k, v in values.items() if k != "AVG"]
    out = dict(values)
    if kind == "geo":
        out["AVG"] = geometric_mean(samples)
    else:
        out["AVG"] = sum(samples) / len(samples)
    return out


# -- Figure 2: ideal NDP speedup --------------------------------------------


def figure2(scale: Optional[TraceScale] = None, seed: int = 0) -> FigureResult:
    scale = scale or default_scale()
    results = run_suite((IDEAL_NDP,), scale=scale, seed=seed)
    speedups = {
        name: per_policy[IDEAL_NDP.label].speedup_over(per_policy["baseline"])
        for name, per_policy in results.items()
    }
    return FigureResult(
        figure_id="Figure 2",
        title="Ideal speedup with near-data processing (no offload cost, "
        "perfect co-location)",
        columns=_suite_columns(),
        rows={"ideal NDP": _with_avg(speedups)},
        note="paper: 1.58x average, up to 2.19x",
    )


# -- Figure 3: ideal (oracle-bit) memory mapping ------------------------------


def figure3(scale: Optional[TraceScale] = None, seed: int = 0) -> FigureResult:
    scale = scale or default_scale()
    # Footnote 9: the motivation study predates dynamic control, so the
    # comparison runs on the uncontrolled NDP system (no baseline runs
    # needed — the ratio is oracle over bmap).
    results = run_suite(
        (NDP_NOCTRL_BMAP, NDP_NOCTRL_ORACLE),
        scale=scale,
        seed=seed,
        include_baseline=False,
    )
    speedups = {
        name: per_policy[NDP_NOCTRL_ORACLE.label].ipc
        / per_policy[NDP_NOCTRL_BMAP.label].ipc
        for name, per_policy in results.items()
    }
    return FigureResult(
        figure_id="Figure 3",
        title="Effect of ideal (oracle best-2-bit) memory mapping on NDP "
        "performance, vs. baseline GPU mapping (uncontrolled NDP)",
        columns=_suite_columns(),
        rows={"ideal mapping": _with_avg(speedups)},
        note="paper: ~1.13x average",
    )


# -- Figure 5: fixed-offset analysis -----------------------------------------


def figure5(scale: Optional[TraceScale] = None, seed: int = 0) -> FigureResult:
    scale = scale or default_scale()
    config = ndp_config()
    rows: Dict[str, Dict[str, float]] = {bucket: {} for bucket in BUCKETS}
    with_fixed: Dict[str, float] = {}
    for name in SUITE_ORDER:
        trace = build_trace(
            __import__("repro.workloads", fromlist=["make_workload"]).make_workload(name),
            config,
            scale,
            seed,
        )
        profiles = analyze_block_offsets(trace.tasks)
        distribution = bucket_distribution(profiles)
        for bucket in BUCKETS:
            rows[bucket][name] = distribution[bucket]
        with_fixed[name] = fraction_with_fixed_offset(profiles)
    rows["has any fixed offset"] = _with_avg(with_fixed, kind="arith")
    return FigureResult(
        figure_id="Figure 5",
        title="Accessed memory address offsets in offloading candidates "
        "(fraction of candidate blocks per bucket)",
        columns=_suite_columns(),
        rows=rows,
        note="paper: 85% of candidates have fixed-offset accesses; six "
        "workloads are entirely fixed offset",
    )


# -- Figure 6: mapping predictability ------------------------------------------


def figure6(
    scale: Optional[TraceScale] = None,
    seed: int = 0,
    fractions: Sequence[float] = LEARNING_FRACTIONS,
) -> FigureResult:
    scale = scale or default_scale()
    config = ndp_config()
    from ..workloads import make_workload

    rows: Dict[str, Dict[str, float]] = {"baseline mapping": {}}
    for fraction in fractions:
        rows[f"best mapping in {fraction_label(fraction)}"] = {}
    for name in SUITE_ORDER:
        trace = build_trace(make_workload(name), config, scale, seed)
        study = study_colocation(trace, config, fractions)
        rows["baseline mapping"][name] = study.baseline
        for fraction in fractions:
            rows[f"best mapping in {fraction_label(fraction)}"][name] = (
                study.by_fraction[fraction]
            )
    for series in rows:
        rows[series] = _with_avg(rows[series], kind="arith")
    return FigureResult(
        figure_id="Figure 6",
        title="Probability of accessing one memory stack per candidate "
        "instance, by mapping learned from initial instances",
        columns=_suite_columns(),
        rows=rows,
        note="paper: baseline 38%, first-0.1% 72%, oracle 75%",
    )


# -- Figure 8/9/10: the main evaluation grid -----------------------------------


def run_figure8_suite(
    scale: Optional[TraceScale] = None,
    seed: int = 0,
    configuration: Optional[SystemConfig] = None,
) -> SuiteResults:
    scale = scale or default_scale()
    return run_suite(
        FIGURE8_GRID, scale=scale, seed=seed, ndp_configuration=configuration
    )


def figure8(
    results: Optional[SuiteResults] = None,
    scale: Optional[TraceScale] = None,
    seed: int = 0,
) -> FigureResult:
    results = results or run_figure8_suite(scale, seed)
    rows = {
        policy.label: suite_speedups(results, policy.label)
        for policy in FIGURE8_GRID
    }
    return FigureResult(
        figure_id="Figure 8",
        title="Speedup with NDP offloading and memory mapping policies "
        "(normalized to the no-NDP baseline)",
        columns=_suite_columns(),
        rows=rows,
        note="paper: ctrl+tmap 1.30x avg (up to 1.76x); no-ctrl slows down",
    )


def figure9(
    results: Optional[SuiteResults] = None,
    scale: Optional[TraceScale] = None,
    seed: int = 0,
) -> FigureResult:
    results = results or run_figure8_suite(scale, seed)
    rows = {
        policy.label: suite_ratios(results, policy.label, metric="traffic")
        for policy in FIGURE8_GRID
    }
    # channel split of the TOM configuration, as extra rows
    split: Dict[str, Dict[str, float]] = {
        "ctrl+tmap RX share": {},
        "ctrl+tmap TX share": {},
        "ctrl+tmap mem-mem share": {},
    }
    for name, per_policy in results.items():
        traffic = per_policy[NDP_CTRL_TMAP.label].traffic
        total = traffic.off_chip_total
        if total > 0:
            split["ctrl+tmap RX share"][name] = traffic.gpu_memory_rx / total
            split["ctrl+tmap TX share"][name] = traffic.gpu_memory_tx / total
            split["ctrl+tmap mem-mem share"][name] = traffic.memory_memory / total
    rows.update(
        {name: _with_avg(values, kind="arith") for name, values in split.items()}
    )
    return FigureResult(
        figure_id="Figure 9",
        title="Off-chip memory traffic, normalized to baseline",
        columns=_suite_columns(),
        rows=rows,
        note="paper: no-ctrl+tmap 0.62x (up to 0.01x), ctrl+tmap 0.87x",
    )


def figure10(
    results: Optional[SuiteResults] = None,
    scale: Optional[TraceScale] = None,
    seed: int = 0,
) -> FigureResult:
    results = results or run_figure8_suite(scale, seed)
    rows = {
        policy.label: suite_ratios(results, policy.label, metric="energy")
        for policy in FIGURE8_GRID
    }
    segments: Dict[str, Dict[str, float]] = {
        "baseline SM share": {},
        "baseline link share": {},
        "baseline DRAM share": {},
    }
    for name, per_policy in results.items():
        energy = per_policy["baseline"].energy
        segments["baseline SM share"][name] = energy.fraction("sm")
        segments["baseline link share"][name] = energy.fraction("links")
        segments["baseline DRAM share"][name] = energy.fraction("dram")
    rows.update(
        {name: _with_avg(values, kind="arith") for name, values in segments.items()}
    )
    return FigureResult(
        figure_id="Figure 10",
        title="Energy consumption, normalized to baseline",
        columns=_suite_columns(),
        rows=rows,
        note="paper: ctrl+tmap 0.89x avg (down to 0.63x); baseline is "
        "~77% SM, ~7% links",
    )


# -- Figures 11/12: stack-SM warp capacity --------------------------------------


def warp_capacity_sweep(
    multipliers: Sequence[int] = (1, 2, 4),
    scale: Optional[TraceScale] = None,
    seed: int = 0,
) -> Dict[int, SuiteResults]:
    scale = scale or default_scale()
    sweeps: Dict[int, SuiteResults] = {}
    for multiplier in multipliers:
        config = ndp_config(warp_capacity_multiplier=multiplier)
        sweeps[multiplier] = run_suite(
            (NDP_CTRL_TMAP,), scale=scale, seed=seed, ndp_configuration=config
        )
    return sweeps


def figure11(
    sweeps: Optional[Dict[int, SuiteResults]] = None,
    scale: Optional[TraceScale] = None,
    seed: int = 0,
) -> FigureResult:
    sweeps = sweeps or warp_capacity_sweep(scale=scale, seed=seed)
    rows = {
        f"ctrl {multiplier}x warps": suite_speedups(results, NDP_CTRL_TMAP.label)
        for multiplier, results in sweeps.items()
    }
    return FigureResult(
        figure_id="Figure 11",
        title="Speedup vs. stack-SM warp capacity (ctrl+tmap)",
        columns=_suite_columns(),
        rows=rows,
        note="paper: 4x capacity keeps ~1.29x avg; RD regresses at 4x "
        "(ALU-heavy offloaded blocks)",
    )


def figure12(
    sweeps: Optional[Dict[int, SuiteResults]] = None,
    scale: Optional[TraceScale] = None,
    seed: int = 0,
) -> FigureResult:
    sweeps = sweeps or warp_capacity_sweep(scale=scale, seed=seed)
    rows = {
        f"ctrl {multiplier}x warps": suite_ratios(
            results, NDP_CTRL_TMAP.label, metric="traffic"
        )
        for multiplier, results in sweeps.items()
    }
    return FigureResult(
        figure_id="Figure 12",
        title="Off-chip traffic vs. stack-SM warp capacity (ctrl+tmap, "
        "normalized to baseline)",
        columns=_suite_columns(),
        rows=rows,
        note="paper: 4x warp capacity reaches 0.66x of baseline traffic",
    )


# -- Figure 13: internal stack bandwidth -----------------------------------------


def figure13(scale: Optional[TraceScale] = None, seed: int = 0) -> FigureResult:
    scale = scale or default_scale()
    rows: Dict[str, Dict[str, float]] = {}
    for ratio, label in ((2.0, "2x internal BW"), (1.0, "1x internal BW")):
        config = ndp_config(internal_bandwidth_ratio=ratio)
        results = run_suite(
            (NDP_CTRL_TMAP,), scale=scale, seed=seed, ndp_configuration=config
        )
        rows[label] = suite_speedups(results, NDP_CTRL_TMAP.label)
    return FigureResult(
        figure_id="Figure 13",
        title="Speedup with different internal bandwidth in memory stacks "
        "(ctrl+tmap)",
        columns=_suite_columns(),
        rows=rows,
        note="paper: 1x internal BW averages within ~2% of 2x (1.28x vs 1.30x)",
    )


# -- Section 6.5: cross-stack bandwidth sweep --------------------------------------


def section65(
    ratios: Sequence[float] = (0.125, 0.25, 0.5, 1.0),
    scale: Optional[TraceScale] = None,
    seed: int = 0,
) -> FigureResult:
    scale = scale or default_scale()
    rows: Dict[str, Dict[str, float]] = {}
    for ratio in ratios:
        config = ndp_config(cross_stack_ratio=ratio)
        results = run_suite(
            (NDP_CTRL_TMAP,), scale=scale, seed=seed, ndp_configuration=config
        )
        rows[f"cross-stack {ratio}x"] = suite_speedups(results, NDP_CTRL_TMAP.label)
    return FigureResult(
        figure_id="Section 6.5",
        title="Speedup vs. cross-stack link bandwidth (ratio of the "
        "GPU-to-stack links; ctrl+tmap)",
        columns=_suite_columns(),
        rows=rows,
        note="paper: 1.17x @0.125x, 1.29x @0.25x, 1.30x @0.5x, 1.31x @1x",
    )


# -- Section 6.6: area ---------------------------------------------------------------


def section66() -> FigureResult:
    config = ndp_config()
    estimate = estimate_area(config)
    rows = {
        "storage bits": {
            "analyzer/SM": float(estimate.analyzer_bits_per_sm),
            "metadata/SM": float(estimate.metadata_bits_per_sm),
            "alloc table": float(estimate.allocation_table_bits),
            "total": float(estimate.total_bits),
        },
        "area": {
            "total mm^2": estimate.total_mm2,
            "GPU fraction": estimate.gpu_fraction,
        },
    }
    return FigureResult(
        figure_id="Section 6.6",
        title="Area estimation of TOM's added storage",
        columns=[
            "analyzer/SM",
            "metadata/SM",
            "alloc table",
            "total",
            "total mm^2",
            "GPU fraction",
        ],
        rows=rows,
        value_format="{:.6g}",
        note=f"paper: 1,920 + 10,320 bits/SM ({ENTRY_BITS}b x {TABLE_ENTRIES} "
        f"entries), {ALLOC_TABLE_BITS} shared bits, 0.11 mm^2 = 0.018% "
        f"of the GPU at 40 nm; analyzer = {BITS_PER_INSTANCE}b x 48 warps",
    )


#: Every figure driver by its external name — the single source of
#: truth the CLI (``repro-tom figure``) and the bundle exporter resolve
#: figure names through. Each value accepts ``scale``/``seed`` keyword
#: arguments where the figure is parameterized by them (``section66``
#: is not).
FIGURE_BUILDERS = {
    "fig2": figure2,
    "fig3": figure3,
    "fig5": figure5,
    "fig6": figure6,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "fig11": figure11,
    "fig12": figure12,
    "fig13": figure13,
    "sec65": section65,
    "sec66": section66,
}
