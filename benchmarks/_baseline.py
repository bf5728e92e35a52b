"""Machine-readable perf baselines for the microbenchmark smoke steps.

Each tracked microbenchmark (``bench_engine_throughput``,
``bench_memory_subsystem``, ``bench_grid_lockstep``,
``bench_warm_lookup``) can emit a small
JSON document — median-of-k wall times per metric plus a fingerprint of
the machine and parameters it was measured on — via ``--json PATH``.
The repository checks in one such document per benchmark
(``benchmarks/BENCH_*.json``): the perf-trajectory point zero.
``tools/bench_compare.py`` diffs a fresh emission against the checked-in
baseline and flags >15% regressions (the CI step is non-gating — shared
runners are too noisy to fail the build on, but the trend line is
visible in every run's log).

Refreshing a checked-in baseline after an intentional perf change::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --json benchmarks/BENCH_engine.json
"""

from __future__ import annotations

import json
import platform
import statistics
from typing import Dict, List, Optional

FORMAT = 1


def fingerprint(**params) -> Dict:
    """Where and with what parameters the numbers were measured —
    compared loudly (but non-fatally) by ``bench_compare``."""
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "params": dict(sorted(params.items())),
    }


def metric(
    samples: List[float], unit: str = "s", direction: str = "lower"
) -> Dict:
    """One tracked quantity: the median of the samples is the compared
    value; ``direction`` says which way is better."""
    if direction not in ("lower", "higher"):
        raise ValueError(f"direction must be lower/higher, got {direction!r}")
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "direction": direction,
        "samples": list(samples),
    }


def emit(path: Optional[str], bench: str, metrics: Dict[str, Dict], **params) -> Dict:
    """Assemble (and, when ``path`` is set, write) a baseline document."""
    payload = {
        "format": FORMAT,
        "bench": bench,
        "fingerprint": fingerprint(**params),
        "metrics": metrics,
    }
    if path:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline written to {path}")
    return payload
