"""Grid-run cold benchmark (docs/PERFORMANCE.md §5).

Not one of the paper's figures: this is the tracked perf baseline for
the grid driver (``repro.core.gridrun``) — the default path for every
multi-policy cold run. Every grid lane that simulates runs the scalar
``Simulator``; what the grid adds is one trace build per workload and
lane deduplication. Two scenarios, both on the BFS SMALL trace with
results asserted bit-identical to the scalar reference:

* **policy grid** — the 7-policy Figure-8 job shape (baseline, the
  four Figure-8 points, ctrl+oracle, ideal+bmap) on one configuration,
  the shape ``execute_job`` routes through the grid driver.
* **variant grid** — the same 7 policies crossed with 3
  ``channel_busy_threshold`` variants (21 points), the
  policies-x-variants sweep shape. The baseline is one cache key, so
  one lane, for all three variants; cross-variant lane deduplication
  carries the rest of the win.

Each scenario prints the scalar reference wall time (fresh
``WorkloadRunner`` per variant, policies sequential — the pre-grid cold
path), the grid wall time, the speedup, and the unique-simulation /
deduplicated lane counts.

Standalone usage (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_grid_lockstep.py

``--json PATH`` additionally emits the machine-readable baseline that
``tools/bench_compare.py`` diffs against the checked-in
``benchmarks/BENCH_grid.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import time

from repro.config import ndp_config
from repro.core.experiment import WorkloadRunner
from repro.core.policies import (
    BASELINE,
    FIGURE8_GRID,
    IDEAL_NDP,
    NDP_CTRL_ORACLE,
)
from repro.trace.generator import TraceScale

WORKLOAD = "BFS"
SCALE = TraceScale.SMALL
POLICIES = (BASELINE,) + FIGURE8_GRID + (NDP_CTRL_ORACLE, IDEAL_NDP)
THRESHOLDS = (0.90, 0.85, 0.95)


def _variant(threshold: float):
    config = ndp_config()
    return dataclasses.replace(
        config,
        control=dataclasses.replace(
            config.control, channel_busy_threshold=threshold
        ),
    )


def _scalar_reference(variants):
    """The pre-grid cold path: one fresh runner per variant, policies
    sequential, caches bypassed."""
    start = time.perf_counter()
    results = []
    for configuration in variants:
        runner = WorkloadRunner(
            WORKLOAD, scale=SCALE, ndp_configuration=configuration
        )
        results.append(
            {p.label: runner.run(p, cache=False) for p in POLICIES}
        )
    return results, time.perf_counter() - start


def _grid(variants):
    start = time.perf_counter()
    runner = WorkloadRunner(
        WORKLOAD, scale=SCALE, ndp_configuration=variants[0]
    )
    if len(variants) == 1:
        results = [runner.run_grid(POLICIES, cache=False)]
    else:
        results = runner.run_grid(POLICIES, variants=variants, cache=False)
    return results, time.perf_counter() - start, runner.last_grid_report


def run_scenario(name: str, variants) -> dict:
    points = len(variants) * len(POLICIES)
    grid_results, grid_wall, report = _grid(variants)
    lanes = len(report.results)
    scalar_results, scalar_wall = _scalar_reference(variants)
    for index in range(len(variants)):
        for policy in POLICIES:
            if grid_results[index][policy.label] != scalar_results[index][policy.label]:
                raise AssertionError(
                    f"{name}: grid result differs from scalar for "
                    f"variant {index}, {policy.label}"
                )
    speedup = scalar_wall / grid_wall
    print(
        f"{name:>12}: scalar {scalar_wall:6.2f}s -> grid {grid_wall:6.2f}s "
        f"({speedup:.2f}x; {points} points, {lanes} lanes, "
        f"{report.simulated} simulated, "
        f"{report.deduplicated} deduplicated, bit-identical)"
    )
    return {
        "scalar_wall": scalar_wall,
        "grid_wall": grid_wall,
        "speedup": speedup,
        "lanes": lanes,
        "simulated": report.simulated,
        "deduplicated": report.deduplicated,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="emit the machine-readable baseline document",
    )
    args = parser.parse_args()

    print(f"grid run with lane deduplication, {WORKLOAD} {SCALE.name}, cold run:")
    policy_grid = run_scenario("policy grid", [_variant(THRESHOLDS[0])])
    variant_grid = run_scenario(
        "variant grid", [_variant(t) for t in THRESHOLDS]
    )
    if args.json:
        from _baseline import emit, metric

        emit(
            args.json,
            "grid_lockstep",
            {
                "policy_grid_wall": metric([policy_grid["grid_wall"]]),
                "variant_grid_wall": metric([variant_grid["grid_wall"]]),
                "variant_grid_speedup": metric(
                    [variant_grid["speedup"]], unit="x", direction="higher"
                ),
            },
            workload=WORKLOAD,
            scale=SCALE.name,
            policies=len(POLICIES),
            thresholds=list(THRESHOLDS),
        )


def test_grid_lockstep_smoke(benchmark):
    """TINY-scale smoke for the pytest-benchmark harness: the grid path
    runs, dedups, and matches scalar."""
    import repro.trace.generator as generator

    global SCALE
    previous = SCALE
    SCALE = generator.TraceScale.TINY
    try:
        stats = benchmark.pedantic(
            run_scenario,
            args=("policy grid", [_variant(THRESHOLDS[0])]),
            rounds=1,
            iterations=1,
        )
    finally:
        SCALE = previous
    assert stats["simulated"] >= 1
    assert stats["simulated"] + stats["deduplicated"] == stats["lanes"]


if __name__ == "__main__":
    main()
