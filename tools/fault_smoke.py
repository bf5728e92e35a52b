#!/usr/bin/env python
"""End-to-end fault-injection drill (gating in CI; docs/ROBUSTNESS.md).

Four acts over one small suite grid:

1. a clean run — the reference results;
2. the same run with an injected worker crash and a manifest — the
   crashing workload must fail *structurally* (a JobFailure, not a
   dead suite) while every healthy point stays bit-identical;
3. a ``resume`` after the fault clears — only the failed workload may
   re-run, and the final results must match the reference exactly;
4. a fault injected into one *grid lane* — the lane must be evicted to
   a fresh scalar replay while the rest of the grid runs on, with every
   result still bit-identical.

Run from the repository root::

    PYTHONPATH=src python tools/fault_smoke.py
"""

from __future__ import annotations

import os
import sys
import tempfile

WORKLOADS = ["SP", "RD", "LIB"]
CRASH_TARGET = "SP"
LANE_TARGET = "RD"
LANE_POLICY = "ctrl+tmap"


def fail(message: str) -> None:
    print(f"FAULT SMOKE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    # Isolate from any real cache and force actual simulation.
    os.environ["REPRO_NO_CACHE"] = "1"
    os.environ.pop("REPRO_FAULTS", None)
    os.environ.pop("REPRO_FAULTS_STATE", None)

    from repro import NDP_CTRL_BMAP, NDP_CTRL_TMAP, TraceScale
    from repro.core.experiment import run_suite_supervised

    policies = (NDP_CTRL_BMAP, NDP_CTRL_TMAP)

    def run(**kwargs):
        return run_suite_supervised(
            policies,
            scale=TraceScale.TINY,
            workloads=WORKLOADS,
            jobs=2,
            max_retries=0,
            **kwargs,
        )

    print("[1/4] clean reference run ...")
    clean = run()
    if clean.failures or sorted(clean.results) != sorted(WORKLOADS):
        fail(f"clean run did not complete: {clean.failures}")

    with tempfile.TemporaryDirectory() as tmp:
        manifest = os.path.join(tmp, "run.jsonl")

        print(f"[2/4] crash injected into job/{CRASH_TARGET} ...")
        os.environ["REPRO_FAULTS"] = f"crash@job/{CRASH_TARGET}"
        broken = run(manifest_path=manifest)
        del os.environ["REPRO_FAULTS"]

        if [f.workload for f in broken.failures] != [CRASH_TARGET]:
            fail(f"expected exactly one {CRASH_TARGET} failure, got {broken.failures}")
        if broken.failures[0].kind != "crash":
            fail(f"expected kind=crash, got {broken.failures[0].kind!r}")
        healthy = [name for name in WORKLOADS if name != CRASH_TARGET]
        for name in healthy:
            if broken.results.get(name) != clean.results[name]:
                fail(f"healthy workload {name} diverged under fault injection")
        print(f"      {CRASH_TARGET} failed structurally; "
              f"{', '.join(healthy)} bit-identical to clean run")

        print("[3/4] resume after the fault cleared ...")
        resumed = run(manifest_path=manifest, resume=True)
        reran = [outcome.job.workload for outcome in resumed.outcomes]
        if reran != [CRASH_TARGET]:
            fail(f"resume re-ran {reran}, expected only [{CRASH_TARGET!r}]")
        if resumed.failures:
            fail(f"resume still failing: {resumed.failures}")
        for name in WORKLOADS:
            if resumed.results.get(name) != clean.results[name]:
                fail(f"resumed workload {name} diverged from clean run")
        print(f"      only {CRASH_TARGET} re-ran; full grid matches the reference")

    print(f"[4/4] fault injected into grid lane lane/{LANE_TARGET}/{LANE_POLICY} ...")
    from repro.core.experiment import WorkloadRunner

    os.environ["REPRO_FAULTS"] = f"raise@lane/{LANE_TARGET}/{LANE_POLICY}"
    runner = WorkloadRunner(LANE_TARGET, scale=TraceScale.TINY)
    lane_results = runner.run_grid(policies)
    del os.environ["REPRO_FAULTS"]

    report = runner.last_grid_report
    if report is None:
        fail("grid run did not engage the grid driver")
    if report.evicted != [LANE_POLICY]:
        fail(f"expected eviction of [{LANE_POLICY!r}] only, got {report.evicted}")
    if report.simulated < 1:
        fail("the rest of the grid must still run in the grid")
    for policy in policies:
        if lane_results[policy.label] != clean.results[LANE_TARGET][policy.label]:
            fail(f"lane-evicted grid diverged on {policy.label}")
    print(f"      {LANE_POLICY} evicted to scalar replay; "
          f"{report.simulated} lanes simulated in the grid; results bit-identical")

    print("FAULT SMOKE OK")


if __name__ == "__main__":
    main()
