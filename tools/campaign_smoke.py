#!/usr/bin/env python
"""End-to-end campaign drill (gating in CI; docs/CAMPAIGNS.md).

Four acts over one tiny declared product:

1. a cold ``campaign run`` of a 2x2 product (2 workloads x 2 policies,
   TINY) — every point must simulate exactly once;
2. the same campaign again — **zero** simulations allowed: every point
   must be answered by the result cache (this is the acceptance
   criterion of the campaign layer, checked against the simulator's
   process-local run counter, hence ``REPRO_JOBS=1`` inline execution);
3. ``campaign status`` — must classify the campaign as complete and
   exit 0 semantics (done);
4. a pass over a fresh cache with a fault injected into BFS's job — it
   must come back partial — then a plain pass, which must simulate
   exactly BFS's points: the result cache is the only completion record.

Run from the repository root::

    PYTHONPATH=src python tools/campaign_smoke.py
"""

from __future__ import annotations

import os
import sys
import tempfile

WORKLOADS = ["BP", "BFS"]
POLICIES = ["baseline", "ctrl+bmap"]


def fail(message: str) -> None:
    print(f"CAMPAIGN SMOKE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    scratch = tempfile.mkdtemp(prefix="repro-campaign-smoke-")
    # Isolated cache; serial inline execution so the in-process
    # simulator.stats counter sees every run.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(scratch, "cache")
    os.environ["REPRO_JOBS"] = "1"
    os.environ.pop("REPRO_NO_CACHE", None)
    os.environ.pop("REPRO_FAULTS", None)

    from repro.campaign import CampaignDriver, CampaignSpec
    from repro.core import simulator

    spec = CampaignSpec.from_dict(
        {
            "name": "ci-smoke",
            "workloads": WORKLOADS,
            "policies": POLICIES,
            "scales": ["TINY"],
            "seeds": [0],
        }
    )
    expected = len(WORKLOADS) * len(POLICIES)

    print(f"[1/4] cold campaign run ({expected} points) ...")
    simulator.stats["runs"] = 0
    first = CampaignDriver(spec).run()
    if not first.ok:
        fail(f"cold run failed: {[f.message for f in first.failures]}")
    if first.executed != expected or simulator.stats["runs"] != expected:
        fail(
            f"cold run executed {first.executed} points / "
            f"{simulator.stats['runs']} simulations, expected {expected}"
        )

    print("[2/4] re-run over the completed product (zero simulations) ...")
    simulator.stats["runs"] = 0
    second = CampaignDriver(spec).run()
    if not second.ok or second.cache_hits != expected:
        fail(
            f"re-run not fully cache-answered: {second.cache_hits}/"
            f"{expected} hits, ok={second.ok}"
        )
    if simulator.stats["runs"] != 0:
        fail(f"re-run performed {simulator.stats['runs']} simulations")

    print("[3/4] campaign status ...")
    status = CampaignDriver(spec).status()
    if not status.done or status.pending:
        fail(f"status not done: {status.describe()}")

    print("[4/4] fault in BFS's job, then a plain re-run over a fresh cache ...")
    os.environ["REPRO_CACHE_DIR"] = os.path.join(scratch, "cache-fault")
    os.environ["REPRO_FAULTS"] = "raise@job/BFS"
    partial = CampaignDriver(spec).run(max_retries=0)
    del os.environ["REPRO_FAULTS"]
    if partial.ok or {p.workload for p in partial.failed_points} != {"BFS"}:
        fail(f"faulted pass not partial on BFS: {partial.describe()}")
    simulator.stats["runs"] = 0
    healed = CampaignDriver(spec).run()
    bfs_points = len(POLICIES)
    if not healed.ok or healed.executed != bfs_points:
        fail(f"re-run executed {healed.executed} points, expected {bfs_points}")
    if simulator.stats["runs"] != bfs_points:
        fail(f"re-run performed {simulator.stats['runs']} simulations, expected {bfs_points}")
    if healed.results != first.results:
        fail("re-run results diverged from the cold run")

    print("CAMPAIGN SMOKE OK")


if __name__ == "__main__":
    main()
