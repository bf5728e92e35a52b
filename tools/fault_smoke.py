#!/usr/bin/env python
"""End-to-end fault-injection drill (gating in CI; docs/ROBUSTNESS.md).

Four acts over one small suite grid:

1. a clean run with the result cache off — the reference results;
2. the same run with an injected worker crash, the cache on in a fresh
   temporary directory — the crashing workload must fail
   *structurally* (a JobExecutionError carrying one JobFailure and the
   partial results, not a dead suite) while every healthy point stays
   bit-identical;
3. a plain re-run after the fault clears — the cache answers every
   completed point, so only the failed workload's job may be
   dispatched, and the final results must match the reference exactly;
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
    # Acts 1 and 4 force actual simulation; acts 2-3 use a private cache.
    os.environ["REPRO_NO_CACHE"] = "1"
    os.environ["REPRO_MAX_RETRIES"] = "0"
    os.environ.pop("REPRO_FAULTS", None)
    os.environ.pop("REPRO_FAULTS_STATE", None)

    from repro import NDP_CTRL_BMAP, NDP_CTRL_TMAP, TraceScale
    from repro.core import experiment
    from repro.errors import JobExecutionError

    policies = (NDP_CTRL_BMAP, NDP_CTRL_TMAP)

    # Record which workloads each run dispatches to the supervisor.
    dispatched = []
    supervise = experiment.run_supervised

    def recording(jobs, **kwargs):
        dispatched.extend(job.workload for job in jobs)
        return supervise(jobs, **kwargs)

    experiment.run_supervised = recording

    def run():
        """(results, failures) of one supervised suite run."""
        dispatched.clear()
        try:
            results = experiment.run_suite(
                policies, scale=TraceScale.TINY, workloads=WORKLOADS, jobs=2
            )
        except JobExecutionError as error:
            return error.results, error.failures
        return results, []

    print("[1/4] clean reference run ...")
    clean, failures = run()
    if failures or sorted(clean) != sorted(WORKLOADS):
        fail(f"clean run did not complete: {failures}")

    with tempfile.TemporaryDirectory() as tmp:
        del os.environ["REPRO_NO_CACHE"]
        os.environ["REPRO_CACHE_DIR"] = tmp

        print(f"[2/4] crash injected into job/{CRASH_TARGET} ...")
        os.environ["REPRO_FAULTS"] = f"crash@job/{CRASH_TARGET}"
        broken, failures = run()
        del os.environ["REPRO_FAULTS"]

        if [f.workload for f in failures] != [CRASH_TARGET]:
            fail(f"expected exactly one {CRASH_TARGET} failure, got {failures}")
        if failures[0].kind != "crash":
            fail(f"expected kind=crash, got {failures[0].kind!r}")
        healthy = [name for name in WORKLOADS if name != CRASH_TARGET]
        if sorted(broken) != sorted(healthy):
            fail(f"partial results hold {sorted(broken)}, expected {healthy}")
        for name in healthy:
            if broken[name] != clean[name]:
                fail(f"healthy workload {name} diverged under fault injection")
        print(f"      {CRASH_TARGET} failed structurally; "
              f"{', '.join(healthy)} bit-identical to clean run")

        print("[3/4] plain re-run after the fault cleared ...")
        rerun, failures = run()
        if dispatched != [CRASH_TARGET]:
            fail(f"re-run simulated {dispatched}, expected only [{CRASH_TARGET!r}]")
        if failures:
            fail(f"re-run still failing: {failures}")
        for name in WORKLOADS:
            if rerun.get(name) != clean[name]:
                fail(f"re-run workload {name} diverged from clean run")
        print(f"      only {CRASH_TARGET} re-simulated; full grid matches the reference")
        os.environ["REPRO_NO_CACHE"] = "1"

    print(f"[4/4] fault injected into grid lane lane/{LANE_TARGET}/{LANE_POLICY} ...")
    os.environ["REPRO_FAULTS"] = f"raise@lane/{LANE_TARGET}/{LANE_POLICY}"
    runner = experiment.WorkloadRunner(LANE_TARGET, scale=TraceScale.TINY)
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
        if lane_results[policy.label] != clean[LANE_TARGET][policy.label]:
            fail(f"lane-evicted grid diverged on {policy.label}")
    print(f"      {LANE_POLICY} evicted to scalar replay; "
          f"{report.simulated} lanes simulated in the grid; results bit-identical")

    print("FAULT SMOKE OK")


if __name__ == "__main__":
    main()
