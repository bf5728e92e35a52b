"""The three benchmark workloads, driven through the program's public API.

Every driver runs one *cold pass* (the timed unit of work), exposes the
per-point simulation results its answer was built from (for the digest
check), the figure rows it answered (for the warm-equals-cold check),
and the simulated ctrl+tmap speedups it compares with the paper.

``repro`` is imported inside the drivers, after ``run.py`` has put the
source tree it set up on ``sys.path``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple


@dataclass
class ColdPass:
    """What one cold pass produced."""

    wall_s: float
    #: point id -> SimulationResult the pass's answer consumed
    points: Dict[str, object]
    #: paper key -> simulated ctrl+tmap speedup compared with the paper
    speedups: Dict[str, float]
    #: paper key -> published value
    paper: Dict[str, float] = field(default_factory=dict)
    #: answers that disagree with the points they were built from
    inconsistent: int = 0

    @property
    def warp_instructions(self) -> int:
        return sum(result.warp_instructions for result in self.points.values())

    @property
    def paper_err_pct(self) -> float:
        errors = [
            abs(self.speedups[key] - value) / value for key, value in self.paper.items()
        ]
        return 100.0 * sum(errors) / len(errors)


def point_digest(result) -> str:
    """SHA-256 over the statistics the output check pins: cycles,
    instructions, traffic, energy and the offload summary."""
    payload = {
        "cycles": result.cycles,
        "warp_instructions": result.warp_instructions,
        "traffic": dataclasses.asdict(result.traffic),
        "energy": dataclasses.asdict(result.energy),
        "offload": dataclasses.asdict(result.offload),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class Workload:
    """Base class: ``engine`` is the backend the workload pins,
    ``default_scale`` the trace scale of a measured run, ``warm_queries``
    the number of warm queries a measured run makes."""

    name = ""
    engine = "python"
    default_scale = "SMALL"
    warm_queries = 200

    def __init__(self, scale_name: str, trace_seed: int) -> None:
        from repro.trace.generator import TraceScale

        self.scale = TraceScale[scale_name]
        self.trace_seed = trace_seed
        #: figure id -> rows ({series: {column: value}}) the last cold pass answered
        self._answers: Dict[str, Dict[str, Dict[str, float]]] = {}

    def cold(self) -> ColdPass:
        raise NotImplementedError

    def finish(self, cold: ColdPass) -> None:
        """Untimed and untraced work after a cold pass: complete
        ``cold.points`` and prepare the warm phase."""

    def warm_query_plan(self, rng: random.Random, n: int) -> List:
        """``n`` warm queries, drawn from ``rng`` (the benchmark seed)."""
        raise NotImplementedError

    def warm_query(self, query) -> Dict[str, Dict[str, float]]:
        """Re-answer from the cache the last cold pass left."""
        raise NotImplementedError

    def warm_expected(self, query) -> Dict[str, Dict[str, float]]:
        """The cold pass's answer to the same query."""
        raise NotImplementedError


class Fig8Small(Workload):
    """Figures 8/9/10: 10 workloads x (baseline + 4 policies)."""

    name = "fig8-small-py"
    paper_keys = ("KM", "LIB", "RD", "BFS", "AVG")

    def _builders(self) -> Dict[str, Callable]:
        from repro.analysis import figures

        return {"fig8": figures.figure8, "fig9": figures.figure9, "fig10": figures.figure10}

    def cold(self) -> ColdPass:
        from repro.analysis import figures
        from repro.core.policies import NDP_CTRL_TMAP
        from repro.workloads.suite import PAPER

        builders = self._builders()
        started = time.perf_counter()
        results = figures.run_figure8_suite(self.scale, self.trace_seed)
        answers = {fid: build(results).rows for fid, build in builders.items()}
        wall = time.perf_counter() - started
        self._answers = answers
        points = {
            f"{workload}/{label}": result
            for workload, per_policy in results.items()
            for label, result in per_policy.items()
        }
        paper = PAPER["fig8_speedup_ctrl_tmap"]
        tmap_row = answers["fig8"][NDP_CTRL_TMAP.label]
        return ColdPass(
            wall_s=wall,
            points=points,
            speedups={key: tmap_row[key] for key in self.paper_keys},
            paper={key: paper[key] for key in self.paper_keys},
        )

    def warm_query_plan(self, rng: random.Random, n: int) -> List[str]:
        """Figures 8, 9 and 10 equally often, in a seeded order."""
        names = sorted(self._answers)
        return [names[i % len(names)] for i in rng.sample(range(n), n)]

    def warm_query(self, figure_id: str) -> Dict[str, Dict[str, float]]:
        build = self._builders()[figure_id]
        return build(scale=self.scale, seed=self.trace_seed).rows

    def warm_expected(self, figure_id: str) -> Dict[str, Dict[str, float]]:
        return self._answers[figure_id]


class Sec65Sweep(Workload):
    """Section 6.5: ctrl+tmap at four cross-stack bandwidth ratios."""

    name = "sec65-sweep-c"
    engine = "compiled"
    ratios: Tuple[float, ...] = (0.125, 0.25, 0.5, 1.0)
    paper_keys = {0.125: "0.125x", 0.25: "0.25x", 0.5: "0.5x", 1.0: "1x"}

    def cold(self) -> ColdPass:
        from repro.analysis import figures
        from repro.workloads.suite import PAPER

        started = time.perf_counter()
        rows = figures.section65(ratios=self.ratios, scale=self.scale, seed=self.trace_seed).rows
        wall = time.perf_counter() - started
        self._answers = {"sec65": rows}
        paper = PAPER["sec65_cross_stack_speedup"]
        return ColdPass(
            wall_s=wall,
            points={},
            speedups={
                key: rows[f"cross-stack {ratio}x"]["AVG"]
                for ratio, key in self.paper_keys.items()
            },
            paper={key: paper[key] for key in self.paper_keys.values()},
        )

    def finish(self, cold: ColdPass) -> None:
        """Read back every point the sweep consumed through the same
        public entry point, and tie it to the figure's answer."""
        from repro.config import ndp_config
        from repro.core.experiment import run_suite, suite_speedups
        from repro.core.policies import NDP_CTRL_TMAP

        rows = {}
        for ratio in self.ratios:
            per_suite = run_suite(
                (NDP_CTRL_TMAP,),
                scale=self.scale,
                seed=self.trace_seed,
                ndp_configuration=ndp_config(cross_stack_ratio=ratio),
            )
            rows[f"cross-stack {ratio}x"] = suite_speedups(per_suite, NDP_CTRL_TMAP.label)
            for workload, per_policy in per_suite.items():
                for label, result in per_policy.items():
                    cold.points[f"{ratio}x/{workload}/{label}"] = result
        cold.inconsistent += int(rows != self._answers["sec65"])

    def warm_query_plan(self, rng: random.Random, n: int) -> List[Tuple[float, ...]]:
        """Each warm query visits the four ratios in an order of its own."""
        return [tuple(rng.sample(self.ratios, len(self.ratios))) for _ in range(n)]

    def warm_query(self, order: Tuple[float, ...]) -> Dict[str, Dict[str, float]]:
        from repro.analysis import figures

        return figures.section65(ratios=order, scale=self.scale, seed=self.trace_seed).rows

    def warm_expected(self, order: Tuple[float, ...]) -> Dict[str, Dict[str, float]]:
        return self._answers["sec65"]


class TmapMedium(Workload):
    """Scalar build_trace + simulate() of baseline and ctrl+tmap at MEDIUM."""

    name = "tmap-medium-py"
    default_scale = "MEDIUM"
    warm_queries = 1000
    workloads: Tuple[str, ...] = ("KM", "LIB", "RD", "BFS")

    def _keys(self, workload: str) -> List[Tuple[str, str]]:
        """(label, result-cache key) of the two points of one workload."""
        from repro.config import baseline_config, ndp_config
        from repro.core import result_cache
        from repro.core.policies import BASELINE, NDP_CTRL_TMAP

        trace_config = ndp_config()
        return [
            (
                policy.label,
                result_cache.cache_key(
                    workload=workload,
                    policy_label=policy.label,
                    scale=self.scale,
                    seed=self.trace_seed,
                    trace_config=trace_config,
                    run_config=run_config,
                ),
            )
            for policy, run_config in (
                (BASELINE, baseline_config()),
                (NDP_CTRL_TMAP, trace_config),
            )
        ]

    def cold(self) -> ColdPass:
        from repro.config import baseline_config, ndp_config
        from repro.core import simulator
        from repro.core.policies import BASELINE, NDP_CTRL_TMAP
        from repro.trace import generator
        from repro.workloads import make_workload
        from repro.workloads.suite import PAPER

        points: Dict[str, object] = {}
        started = time.perf_counter()
        for workload in self.workloads:
            trace = generator.build_trace(
                make_workload(workload), ndp_config(), self.scale, self.trace_seed
            )
            points[f"{workload}/{BASELINE.label}"] = simulator.simulate(
                trace, baseline_config(), BASELINE
            )
            points[f"{workload}/{NDP_CTRL_TMAP.label}"] = simulator.simulate(
                trace, ndp_config(), NDP_CTRL_TMAP
            )
        wall = time.perf_counter() - started

        speedups = {
            workload: points[f"{workload}/{NDP_CTRL_TMAP.label}"].speedup_over(
                points[f"{workload}/{BASELINE.label}"]
            )
            for workload in self.workloads
        }
        self._answers = {"speedups": {"ctrl+tmap": speedups}}
        paper = PAPER["fig8_speedup_ctrl_tmap"]
        return ColdPass(
            wall_s=wall,
            points=points,
            speedups=speedups,
            paper={key: paper[key] for key in self.workloads},
        )

    def finish(self, cold: ColdPass) -> None:
        """The scalar path keeps no cache, so persist the answer the way
        a caller would; the warm phase reads it back."""
        from repro.core import result_cache

        for workload in self.workloads:
            for label, key in self._keys(workload):
                result_cache.store(key, cold.points[f"{workload}/{label}"])

    def warm_query_plan(self, rng: random.Random, n: int) -> List[Tuple[str, ...]]:
        """Each warm query reads the four workloads in an order of its own."""
        return [tuple(rng.sample(self.workloads, len(self.workloads))) for _ in range(n)]

    def warm_query(self, order: Tuple[str, ...]) -> Dict[str, Dict[str, float]]:
        from repro.core import result_cache

        speedups = {}
        for workload in order:
            loaded = {label: result_cache.load(key) for label, key in self._keys(workload)}
            if None in loaded.values():
                raise LookupError(f"{workload}: warm point missing from the cache")
            base, tom = loaded.values()
            speedups[workload] = tom.speedup_over(base)
        return {"ctrl+tmap": speedups}

    def warm_expected(self, order: Tuple[str, ...]) -> Dict[str, Dict[str, float]]:
        return self._answers["speedups"]


WORKLOADS = {cls.name: cls for cls in (Fig8Small, Sec65Sweep, TmapMedium)}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
