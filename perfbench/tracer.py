"""Span and counter recording around the program's public functions.

The traced run installs wrappers from outside: every ``repro`` module
attribute (or class method) that holds one of the functions named in
:func:`install` is replaced by a wrapper that records a span — name,
start, end, parent span — and, after the call, counters taken at the
same boundary. Nothing inside the program is edited, and
:meth:`Tracer.restore` puts every original back.

Spans and counters stay in memory; :meth:`Tracer.dump` writes them out
once, at the end of the run. A layer's self time is its span's
duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple


class Tracer:
    def __init__(self) -> None:
        #: [span id, parent id (-1 for a root), name, start, end]
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self.distinct_traces: set = set()
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def call(self, name: str, fn: Callable, args, kwargs, after=None):
        span_id = len(self.spans)
        record = [span_id, self._stack[-1] if self._stack else -1, name, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(span_id)
        record[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            after(result, args, kwargs)
        return result

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the benchmark's root span)."""
        return self.call(name, fn, args, kwargs)

    # -- installing wrappers ---------------------------------------------

    def _wrapper(self, name: str, original: Callable, after) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, after)

        return traced

    def wrap_function(self, module_name: str, attr: str, name: str, after=None) -> None:
        """Wrap ``module_name.attr`` everywhere a loaded ``repro`` module
        bound it, so calls through ``from x import f`` names are seen too."""
        original = getattr(importlib.import_module(module_name), attr)
        traced = self._wrapper(name, original, after)
        for module_key, module in sorted(sys.modules.items()):
            if module_key.split(".")[0] != "repro" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, traced)

    def wrap_method(self, cls: type, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(name, original, after))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Summed span duration per name (nested same-name spans count once)."""
        names = {record[0]: record[2] for record in self.spans}
        totals: Dict[str, float] = defaultdict(float)
        for span_id, parent, name, start, end in self.spans:
            if parent < 0 or names[parent] != name:
                totals[name] += end - start
        return dict(totals)

    def self_times(self) -> Dict[str, float]:
        """Per name: span durations minus the time their child spans cover."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            out[name] += (end - start) - child_time[span_id]
        return dict(out)

    def dump(self, path, header: Dict) -> None:
        payload = {
            **header,
            "counters": dict(sorted(self.counters.items())),
            "self_s": dict(sorted(self.self_times().items())),
            "total_s": dict(sorted(self.totals().items())),
            "span_fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read at.

    ``repro`` must be imported first (the wrappers replace bound names).
    """
    from repro.compiler import candidates
    from repro.core import gridrun
    from repro.core.simulator import Simulator
    from repro.trace import generator

    counters = tracer.counters
    build_signature = inspect.signature(generator.build_trace)

    def after_build(trace, args, kwargs) -> None:
        bound = build_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        call = bound.arguments
        counters["trace.builds"] += 1
        tracer.distinct_traces.add(
            (
                call["model"].name,
                call["scale"].name,
                call["seed"],
                gridrun.trace_fingerprint(call["config"]),
            )
        )

    def after_run(result, args, kwargs) -> None:
        counters["core.simulator.runs"] += 1
        counters["core.simulator.events"] += args[0].system.engine.events_processed

    def after_grid(report, args, kwargs) -> None:
        counters["core.gridrun.lanes"] += len(report.results)
        counters["core.gridrun.simulated"] += report.simulated
        counters["core.gridrun.deduplicated"] += report.deduplicated
        counters["core.gridrun.evicted"] += len(report.evicted)

    def after_load(result, args, kwargs) -> None:
        counters["core.result_cache.hits" if result is not None else "core.result_cache.misses"] += 1

    def after_store(result, args, kwargs) -> None:
        counters["core.result_cache.stores"] += 1

    def after_supervised(outcomes, args, kwargs) -> None:
        counters["core.supervisor.calls"] += 1
        counters["core.supervisor.jobs"] += len(args[0] if args else kwargs["jobs"])

    tracer.wrap_function("repro.trace.generator", "build_trace", "trace.build", after_build)
    tracer.wrap_function(candidates.__name__, "select_candidates", "compiler.select")
    tracer.wrap_method(Simulator, "run", "core.simulator.run", after_run)
    tracer.wrap_function("repro.core.gridrun", "run_grid", "core.gridrun.run_grid", after_grid)
    tracer.wrap_function("repro.core.result_cache", "cache_key", "core.result_cache.key")
    tracer.wrap_function("repro.core.result_cache", "load", "core.result_cache.load", after_load)
    tracer.wrap_function("repro.core.result_cache", "store", "core.result_cache.store", after_store)
    tracer.wrap_function("repro.core.manifest", "job_key", "core.manifest.job_key")
    tracer.wrap_function("repro.core.experiment", "run_suite", "core.experiment.run_suite")
    tracer.wrap_function(
        "repro.core.supervisor", "run_supervised", "core.supervisor", after_supervised
    )
    for attr in ("run_figure8_suite", "figure8", "figure9", "figure10", "section65"):
        tracer.wrap_function("repro.analysis.figures", attr, "analysis.figures")


def wrapper_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Median extra seconds a traced call costs over a bare one."""

    def noop() -> None:
        return None

    traced = Tracer()._wrapper("noop", noop, None)
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            traced()
        samples.append((time.perf_counter() - started - bare) / calls)
    return statistics.median(samples)


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced pass: name -> (value, unit)."""
    self_s = tracer.self_times()
    counters = tracer.counters
    run_s = self_s.get("core.simulator.run", 0.0)  # no wrapped call nests inside a run
    events = counters["core.simulator.events"]
    builds = counters["trace.builds"]

    def seconds(span: str) -> Tuple[float, str]:
        return (self_s.get(span, 0.0), "s")

    def count(key: str) -> Tuple[float, str]:
        return (counters[key], "count")

    return {
        "trace.build_s": seconds("trace.build"),
        "trace.builds": count("trace.builds"),
        "trace.reuse_ratio": (len(tracer.distinct_traces) / builds if builds else 0.0, "ratio"),
        "compiler.select_s": seconds("compiler.select"),
        "core.simulator.run_s": seconds("core.simulator.run"),
        "core.simulator.runs": count("core.simulator.runs"),
        "core.simulator.events": count("core.simulator.events"),
        "core.simulator.us_per_event": (1e6 * run_s / events if events else 0.0, "us"),
        "core.gridrun.run_grid_s": seconds("core.gridrun.run_grid"),
        "core.gridrun.lanes": count("core.gridrun.lanes"),
        "core.gridrun.simulated": count("core.gridrun.simulated"),
        "core.gridrun.deduplicated": count("core.gridrun.deduplicated"),
        "core.gridrun.evicted": count("core.gridrun.evicted"),
        "core.result_cache.key_s": seconds("core.result_cache.key"),
        "core.result_cache.load_s": seconds("core.result_cache.load"),
        "core.result_cache.store_s": seconds("core.result_cache.store"),
        "core.result_cache.hits": count("core.result_cache.hits"),
        "core.result_cache.misses": count("core.result_cache.misses"),
        "core.result_cache.stores": count("core.result_cache.stores"),
        "core.manifest.job_key_s": seconds("core.manifest.job_key"),
        "core.experiment.run_suite_self_s": seconds("core.experiment.run_suite"),
        "core.supervisor.self_s": seconds("core.supervisor"),
        "core.supervisor.jobs": count("core.supervisor.jobs"),
        "core.supervisor.calls": count("core.supervisor.calls"),
        "analysis.figures.self_s": seconds("analysis.figures"),
    }


def model_metrics(points: Dict[str, object]) -> Dict[str, Tuple[float, str]]:
    """Simulated statistics summed or averaged over a pass's points;
    deterministic, so a change that only speeds the program up leaves
    every one of them identical."""
    results = list(points.values())
    n = len(results)
    learned = [r.learned_colocation for r in results if r.learned_colocation is not None]
    offloaded = sum(r.offload.offloaded_warp_instructions for r in results)
    total = sum(r.offload.total_warp_instructions for r in results)
    return {
        "sim.cycles": (sum(r.cycles for r in results), "cycles"),
        "memory.l1_miss_rate": (sum(r.l1_load_miss_rate for r in results) / n, "ratio"),
        "memory.l2_miss_rate": (sum(r.l2_load_miss_rate for r in results) / n, "ratio"),
        "memory.dram_row_hit_rate": (sum(r.dram_row_hit_rate for r in results) / n, "ratio"),
        "interconnect.offchip_bytes": (sum(r.traffic.off_chip_total for r in results), "bytes"),
        "ndp.offloaded_instr_frac": (offloaded / total if total else 0.0, "ratio"),
        "mapping.learned_colocation": (sum(learned) / len(learned) if learned else 0.0, "ratio"),
    }

