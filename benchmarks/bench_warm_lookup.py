"""Warm result-cache lookups: what one cached point costs to answer.

Not one of the paper's figures: Figures 8, 9 and 10 are three views of
one 50-point grid and the §6.5 sweep reuses its baseline, so a warm
figure costs one ``result_cache.cache_key`` plus one ``load`` per
point. This is the tracked baseline for that cost
(docs/PERFORMANCE.md §2). It reports, per call:

* ``fresh_config_digest_us`` — building an NDP config from scratch
  and serializing it for its digest: what every caller paid per
  query before ``ndp_config()`` returned a shared instance, and what
  a process still pays once per distinct config;
* ``shared_config_digest_us`` — ``ndp_config()`` plus its digest as a
  caller pays it now (the digest is memoized on the shared instance);
* ``cache_key_us`` — ``cache_key`` with both digests memoized;
* ``load_hit_us`` — ``load`` of one stored TINY result (read, hash,
  header check, parse);

and, after a cold TINY pass has filled a private cache directory, the
wall time of one warm ``figure8`` query (50 points) and one warm
``section65`` query (4 cross-stack ratios, 80 points over 50 entries:
the baseline is one entry for all four ratios) in ms.

Standalone usage::

    PYTHONPATH=src python benchmarks/bench_warm_lookup.py

``--json PATH`` additionally emits the machine-readable baseline that
``tools/bench_compare.py`` diffs against the checked-in
``benchmarks/BENCH_warm.json``. The run uses a temporary cache
directory and removes it afterwards.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from typing import Callable, Dict, List

from repro.analysis import figures
from repro.config import ndp_config
from repro.core import result_cache
from repro.core.experiment import WorkloadRunner
from repro.core.policies import NDP_CTRL_BMAP
from repro.trace.generator import TraceScale

SCALE = TraceScale.TINY
#: Timed repetitions per metric; each metric reports their median.
REPEATS = 9
#: Calls per repetition of the per-call metrics.
CALLS = 2000


def _per_call_us(call: Callable[[], object], calls: int) -> List[float]:
    """``REPEATS`` samples of the mean time of one ``call`` (µs)."""
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(calls):
            call()
        samples.append(1e6 * (time.perf_counter() - started) / calls)
    return samples


def _per_query_ms(query: Callable[[], object]) -> List[float]:
    """``REPEATS`` samples of one warm ``query`` (ms)."""
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        query()
        samples.append(1e3 * (time.perf_counter() - started))
    return samples


def _fresh_config_digest() -> str:
    return result_cache._config_digest(ndp_config.__wrapped__())


def _shared_config_digest() -> str:
    return result_cache._config_digest(ndp_config())


def lookup_costs(calls: int = CALLS) -> Dict[str, List[float]]:
    """Per-call samples (µs) of the config, key and load steps. Needs
    the cache enabled; stores one TINY SP result."""
    config = ndp_config()
    key = result_cache.cache_key("SP", NDP_CTRL_BMAP.label, SCALE, 0, config, config)
    result = WorkloadRunner("SP", scale=SCALE).run(NDP_CTRL_BMAP, cache=False)
    result_cache.store(key, result)
    if result_cache.load(key) != result:
        raise AssertionError("a stored result must load back equal")
    return {
        "fresh_config_digest_us": _per_call_us(_fresh_config_digest, calls // 10),
        "shared_config_digest_us": _per_call_us(_shared_config_digest, calls),
        "cache_key_us": _per_call_us(
            lambda: result_cache.cache_key(
                "SP", NDP_CTRL_BMAP.label, SCALE, 0, config, config
            ),
            calls,
        ),
        "load_hit_us": _per_call_us(lambda: result_cache.load(key), calls // 10),
    }


def warm_queries() -> Dict[str, List[float]]:
    """Fill the cache with one cold TINY ``figure8`` and ``section65``,
    then time warm re-queries (ms). Every warm query must hit all of
    its 50 entries."""
    figures.figure8(scale=SCALE)
    figures.section65(scale=SCALE)
    samples = {}
    for name, query in (
        ("figure8_warm_ms", lambda: figures.figure8(scale=SCALE)),
        ("section65_warm_ms", lambda: figures.section65(scale=SCALE)),
    ):
        misses = result_cache.stats["misses"]
        samples[name] = _per_query_ms(query)
        if result_cache.stats["misses"] != misses:
            raise AssertionError(f"{name}: a warm query missed the cache")
    return samples


def test_warm_lookup_smoke(benchmark, tmp_path, monkeypatch):
    """Quick smoke for the pytest-benchmark harness: every per-call
    step runs and a stored result loads back equal."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    costs = benchmark.pedantic(lookup_costs, args=(100,), rounds=1, iterations=1)
    assert all(min(samples) > 0 for samples in costs.values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="emit the machine-readable baseline document",
    )
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="bench-warm-") as directory:
        os.environ["REPRO_CACHE_DIR"] = directory
        os.environ.pop("REPRO_NO_CACHE", None)
        samples = lookup_costs()
        samples.update(warm_queries())

    print(f"warm result-cache lookups, {SCALE.name}, median of {REPEATS}:")
    for name, values in samples.items():
        unit = "us" if name.endswith("_us") else "ms"
        print(f"  {name:>24}: {sorted(values)[len(values) // 2]:9.2f} {unit}")
    if args.json:
        from _baseline import emit, metric

        emit(
            args.json,
            "warm_lookup",
            {
                name: metric(values, unit="us" if name.endswith("_us") else "ms")
                for name, values in samples.items()
            },
            scale=SCALE.name,
            repeats=REPEATS,
            calls=CALLS,
        )


if __name__ == "__main__":
    main()
