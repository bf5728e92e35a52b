#!/usr/bin/env python
"""End-to-end fault-injection drill (gating in CI; docs/ROBUSTNESS.md).

Five acts over one small suite grid:

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
   result still bit-identical;
5. the grid stored under ``corrupt-cache:mode=flip``, then under
   ``mode=truncate``, each into a fresh cache — the next fault-free run
   must quarantine every damaged entry, re-simulate every point, and
   match the reference bit for bit.

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
    # Acts 1 and 4 force actual simulation; acts 2-3 and 5 use private
    # caches.
    os.environ["REPRO_NO_CACHE"] = "1"
    os.environ["REPRO_MAX_RETRIES"] = "0"
    os.environ.pop("REPRO_FAULTS", None)
    os.environ.pop("REPRO_FAULTS_STATE", None)

    from repro import NDP_CTRL_BMAP, NDP_CTRL_TMAP, TraceScale
    from repro.core import experiment, result_cache
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

    print("[1/5] clean reference run ...")
    clean, failures = run()
    if failures or sorted(clean) != sorted(WORKLOADS):
        fail(f"clean run did not complete: {failures}")

    with tempfile.TemporaryDirectory() as tmp:
        del os.environ["REPRO_NO_CACHE"]
        os.environ["REPRO_CACHE_DIR"] = tmp

        print(f"[2/5] crash injected into job/{CRASH_TARGET} ...")
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

        print("[3/5] plain re-run after the fault cleared ...")
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

    print(f"[4/5] fault injected into grid lane lane/{LANE_TARGET}/{LANE_POLICY} ...")
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

    for mode in ("flip", "truncate"):
        print(f"[5/5] every entry stored under corrupt-cache:mode={mode} ...")
        with tempfile.TemporaryDirectory() as tmp:
            del os.environ["REPRO_NO_CACHE"]
            os.environ["REPRO_CACHE_DIR"] = tmp
            os.environ["REPRO_FAULTS"] = f"corrupt-cache:mode={mode}"
            damaged_run, failures = run()
            del os.environ["REPRO_FAULTS"]
            if failures or damaged_run != clean:
                fail(f"{mode}: the run that stored damaged entries diverged")
            damaged = sorted(name for name in os.listdir(tmp) if name.endswith(".json"))
            if not damaged:
                fail(f"{mode}: no entries were stored")

            result_cache.reset_stats()
            healed, failures = run()
            quarantine = result_cache.quarantine_dir()
            quarantined = sorted(os.listdir(quarantine)) if quarantine.is_dir() else []
            if result_cache.stats["corrupt"] != len(damaged) or quarantined != damaged:
                fail(
                    f"{mode}: {len(damaged)} damaged entries, "
                    f"{result_cache.stats['corrupt']} caught, "
                    f"{len(quarantined)} quarantined"
                )
            if result_cache.stats["hits"] or sorted(dispatched) != sorted(WORKLOADS):
                fail(f"{mode}: a damaged entry answered a point ({dispatched})")
            if failures or healed != clean:
                fail(f"{mode}: the healed grid diverged from the reference")
            os.environ["REPRO_NO_CACHE"] = "1"
        print(f"      {len(damaged)} damaged entries quarantined and re-simulated; "
              "grid matches the reference")

    print("FAULT SMOKE OK")


if __name__ == "__main__":
    main()
