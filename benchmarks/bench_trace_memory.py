"""Memory held by a built warp trace (tracemalloc MB, bytes per access).

Not one of the paper's figures: every figure replays a coalesced warp
trace, and the trace is the largest live structure of a run, so this
is the tracked baseline for its footprint. For each workload it builds
the trace once under ``tracemalloc`` and reports:

* ``trace_mb`` — memory still allocated when ``build_trace`` returns,
  with the trace alive (the kernel, selection and allocation table are
  included; they are a few kB);
* ``build_peak_mb`` — the allocation peak during the build;
* ``bytes_per_access`` / ``bytes_per_line`` — ``trace_mb`` divided by
  the warp accesses and by the line references they hold;
* ``distinct_lines`` and ``line_objects`` — how many distinct line
  addresses the trace touches, and how many distinct int objects
  carry the line addresses and line ids (2 × ``distinct_lines`` when
  every line is one shared address object plus one shared id object).

Standalone usage::

    PYTHONPATH=src python benchmarks/bench_trace_memory.py --scale MEDIUM
"""

from __future__ import annotations

import argparse
import gc
import tracemalloc
from typing import Dict, List

from repro import TraceScale, build_trace, make_workload, ndp_config
from repro.utils.bitops import ilog2

WORKLOADS = ("KM", "LIB", "RD", "BFS")
MB = 1 << 20


def measure(name: str, scale: TraceScale) -> Dict[str, float]:
    """Build one trace under tracemalloc and return its footprint."""
    config = ndp_config()
    model = make_workload(name)
    # The first build of a process imports modules lazily (~0.7 MB);
    # build once untraced so that one-time cost is not counted.
    build_trace(model, config, TraceScale.TINY, 0)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        trace = build_trace(model, config, scale, 0)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    line_bits = ilog2(config.messages.cache_line_bytes)
    n_accesses = 0
    n_lines = 0
    distinct = set()
    objects = set()
    for task in trace.tasks:
        for segment in task.segments:
            for access in segment.accesses:
                n_accesses += 1
                n_lines += access.n_lines
                distinct.update(access.line_addresses)
                objects.update(map(id, access.line_addresses))
                objects.update(map(id, access.line_ids(line_bits)))
    trace_bytes = after - before
    return {
        "workload": name,
        "scale": scale.name,
        "accesses": n_accesses,
        "line_refs": n_lines,
        "distinct_lines": len(distinct),
        "line_objects": len(objects),
        "trace_mb": round(trace_bytes / MB, 2),
        "build_peak_mb": round((peak - before) / MB, 2),
        "bytes_per_access": round(trace_bytes / n_accesses, 1),
        "bytes_per_line": round(trace_bytes / n_lines, 1),
    }


def test_trace_memory(benchmark):
    """TINY-scale smoke: every workload's trace holds one address and
    one id object per distinct line."""
    rows = benchmark.pedantic(
        lambda: [measure(name, TraceScale.TINY) for name in WORKLOADS],
        rounds=1,
        iterations=1,
    )
    for row in rows:
        assert row["line_objects"] <= 2 * row["distinct_lines"] < 2 * row["line_refs"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", default="MEDIUM", choices=[s.name for s in TraceScale]
    )
    args = parser.parse_args()

    rows: List[Dict[str, float]] = [
        measure(name, TraceScale[args.scale]) for name in WORKLOADS
    ]
    columns = list(rows[0])
    print("  ".join(f"{c:>16}" for c in columns))
    for row in rows:
        print("  ".join(f"{row[c]!s:>16}" for c in columns))


if __name__ == "__main__":
    main()
