"""End-to-end benchmark of the TOM reproduction.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fig8-small-py --seed 1 --seconds 30 --trace 0

One run is one fresh interpreter driving one workload (see
``drivers.py``) through the program's public API, closed-loop (one
caller, one outstanding call):

1. set-up: private empty cache and campaign directories, for the
   compiled workload a private copy of ``src/`` with the C engine built
   into it, and a fresh interpreter importing the program;
2. cold passes, each from an empty result cache, for ``--seconds``
   seconds (at least one; another starts only if it should end in time);
3. a warm phase re-answering the workload's figures from the cache the
   last cold pass wrote;
4. ``setup_s``: the median of the set-up above and of two more, timed
   after the cold passes and after the warm phase and then discarded,
   so that its samples span the run;
5. the output check: every point's statistics against the reference
   digest in ``reference.json`` and every warm answer against the cold
   one.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one
serial pass (cold + warm) traced by ``tracer.py`` and prints the
per-layer metrics; spans and counters go to ``.perfbench/traces/``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 all outputs correct; 1 an output check failed (the
result line is still printed); 2 no source tree to benchmark; 3 set-up
failed (build error, or the engine backend is not the pinned one).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import drivers  # noqa: E402
import tracer as tracing  # noqa: E402

#: Worker processes of the measured runs (the traced run is serial).
JOBS = 2
#: Warm queries per pass of the traced run.
TRACE_WARM_QUERIES = 20
REFERENCE = HERE / "reference.json"

#: End-to-end metrics: name -> unit. The warm-query median is printed
#: but not among them: on a shared host it is bistable (see README.md).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "winst_per_s": "1/s",
    "warm_query_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "paper_err_pct": "%",
}

#: What a set-up's fresh interpreter imports; exits 3 when the engine
#: backend that resolves is not the one the workload pins.
PROBE = (
    "import sys, repro.analysis.figures, repro.core.experiment, "
    "repro.core.simulator, repro.accel as accel; "
    "sys.exit(0 if accel.get_backend().name == sys.argv[1] else 3)"
)


class SetupError(RuntimeError):
    pass


def scrub_env() -> Dict[str, str]:
    """Drop every inherited ``REPRO_*`` knob; returns the environment left."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    return dict(os.environ)


def set_up(root: Path, work: Path, engine: str, env: Dict[str, str]) -> Tuple[Path, Path]:
    """One set-up: private directories, the source tree to run (a
    private copy with the C engine built into it for the compiled
    backend) and a fresh interpreter importing the program.

    Returns (private directory, source tree)."""
    private = Path(tempfile.mkdtemp(prefix="setup-", dir=work))
    (private / "cache").mkdir()
    (private / "campaign").mkdir()
    src = root / "src"
    if engine == "compiled":
        src = private / "src"
        shutil.copytree(
            root / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyc")
        )
        for name in ("setup.py", "pyproject.toml"):
            shutil.copy2(root / name, private / name)
        build = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
            cwd=private,
            env=env,
            capture_output=True,
            text=True,
        )
        if build.returncode != 0 or not list((src / "repro" / "accel").glob("_core*.so")):
            raise SetupError(f"building the compiled engine failed:\n{build.stderr[-2000:]}")
    probe = subprocess.run(
        [sys.executable, "-c", PROBE, engine],
        env={**env, "PYTHONPATH": str(src), "REPRO_ENGINE": engine},
        capture_output=True,
        text=True,
    )
    if probe.returncode != 0:
        raise SetupError(
            f"the program did not import on the {engine} engine backend "
            f"(exit {probe.returncode}):\n{probe.stderr[-2000:]}"
        )
    return private, src


def timed_set_up(root: Path, work: Path, engine: str, env: Dict[str, str]):
    """One set-up; returns (seconds, private directory, source tree)."""
    started = time.perf_counter()
    private, src = set_up(root, work, engine, env)
    return time.perf_counter() - started, private, src


def spare_set_up(root: Path, work: Path, engine: str, env: Dict[str, str]) -> float:
    """Time one more set-up and discard it."""
    seconds, private, _ = timed_set_up(root, work, engine, env)
    shutil.rmtree(private)
    return seconds


def fingerprint(engine_requested: str) -> Dict[str, object]:
    import numpy

    import repro.accel as accel

    try:
        gcc = subprocess.run(
            ["gcc", "-dumpfullversion"], capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        gcc = "unavailable"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "engine_requested": engine_requested,
        "engine_backend": accel.get_backend().name,
        "gcc": gcc or "unavailable",
        "repro_jobs": os.environ.get("REPRO_JOBS"),
    }


class Run:
    """The mutable state of one benchmark run.

    ``attempted``/``failed`` count operations: one per point checked, per
    warm query and per failed consistency check. ``ok_ratio`` counts
    points: a point fails when its digest is wrong, or when an answer
    built from it — the figure of its cold pass, or a warm answer —
    differs from what it should be."""

    def __init__(self, workload: drivers.Workload, private: Path, expected: Optional[Dict]):
        self.workload = workload
        self.private = private
        self.expected = expected  # point id -> digest, or None when writing one
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.points_attempted = 0
        #: (cold pass number, point id) of every failed point
        self.failed_points: set = set()
        self._passes = 0
        self._last_points: List[str] = []
        self._caches = 0

    @property
    def ok_ratio(self) -> float:
        """Points completed and verified, over points attempted."""
        return 1.0 - len(self.failed_points) / self.points_attempted

    def fail(self, points, problem: str) -> None:
        """One failed operation, failing ``points`` of the last cold pass."""
        self.failed += 1
        self.failed_points.update((self._passes, point) for point in points)
        if len(self.problems) < 10:
            self.problems.append(problem)

    def fresh_cache(self) -> None:
        self._caches += 1
        cache = self.private / f"cache-{self._caches}"
        cache.mkdir()
        os.environ["REPRO_CACHE_DIR"] = str(cache)

    def check_points(self, cold: drivers.ColdPass) -> None:
        """Every point against the reference digest; an answer that
        disagrees with its own points fails all of them."""
        expected = self.expected if self.expected is not None else {}
        self._passes += 1
        self._last_points = sorted(set(cold.points) | set(expected))
        self.points_attempted += len(self._last_points)
        self.attempted += len(self._last_points) + cold.inconsistent
        if cold.inconsistent:
            self.fail(
                self._last_points, "the figure's answer disagrees with the points it was built from"
            )
        if self.expected is None:
            return
        for point, digest in self.expected.items():
            result = cold.points.get(point)
            if result is None or drivers.point_digest(result) != digest:
                self.fail([point], f"point {point}: statistics differ from the reference digest")
        for point in sorted(set(cold.points) - set(self.expected)):
            self.fail([point], f"point {point}: not in the reference")

    def cold_pass(self, tracer=None) -> drivers.ColdPass:
        self.fresh_cache()
        if tracer is None:
            cold = self.workload.cold()
        else:
            tracing.install(tracer)
            try:
                cold = tracer.span("perfbench.cold", self.workload.cold)
            finally:
                tracer.restore()
        self.workload.finish(cold)
        self.check_points(cold)
        return cold

    def warm_phase(self, rng: random.Random, n: int, tracer=None) -> List[float]:
        """``n`` warm queries, cache-only; returns their latencies (s).
        Every warm answer is built from all the points of the last cold
        pass, so one that is wrong fails them all."""
        from repro.guard import deny_simulation

        latencies: List[float] = []
        if tracer is not None:
            tracing.install(tracer)
        try:
            with deny_simulation():
                for query in self.workload.warm_query_plan(rng, n):
                    started = time.perf_counter()
                    try:
                        if tracer is None:
                            rows = self.workload.warm_query(query)
                        else:
                            rows = tracer.span("perfbench.warm", self.workload.warm_query, query)
                        problem = (
                            None
                            if rows == self.workload.warm_expected(query)
                            else f"warm {query}: answer differs from the cold answer"
                        )
                    except Exception as error:  # a failed query is data, not a crash
                        problem = f"warm {query}: {type(error).__name__}: {error}"
                    latencies.append(time.perf_counter() - started)
                    self.attempted += 1
                    if problem is not None:
                        self.fail(self._last_points, problem)
        finally:
            if tracer is not None:
                tracer.restore()
        return latencies


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(run: Run, rng: random.Random, seconds: float, warm_queries: int, setup_s, spare_set_up):
    """Cold passes for ``seconds``, then the warm phase, each followed by
    a spare set-up (``spare_set_up`` returns its seconds); ``setup_s``
    is the first set-up's. Returns (end-to-end values, last cold pass,
    report lines)."""
    passes: List[drivers.ColdPass] = []
    started = time.perf_counter()
    while True:
        passes.append(run.cold_pass())
        elapsed = time.perf_counter() - started
        if elapsed + passes[-1].wall_s > seconds:
            break
    spare = [spare_set_up()]
    latencies = run.warm_phase(rng, warm_queries)
    spare.append(spare_set_up())
    last = passes[-1]
    if len({p.paper_err_pct for p in passes}) != 1:
        run.fail(passes[-1].points, "paper error differs between cold passes")
    values = {
        "setup_s": statistics.median([setup_s, *spare]),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "winst_per_s": statistics.median(p.warp_instructions / p.wall_s for p in passes),
        "warm_query_p95_ms": 1e3 * drivers.percentile(latencies, 95),
        "peak_rss_mb": peak_rss_mb(),
        "paper_err_pct": last.paper_err_pct,
        "ok_ratio": run.ok_ratio,
    }
    notes = [
        f"cold passes: {len(passes)}",
        f"warm queries: {len(latencies)}, p50 {1e3 * drivers.percentile(latencies, 50):.4f} ms",
    ]
    return values, last, notes


def trace(run: Run, seed: int, warm_queries: int):
    """One traced pass (cold + warm); returns (per-layer metrics, tracer,
    traced cold pass).

    ``trace.overhead_pct`` is an estimate: the wrapped calls times the
    measured cost of one wrapper, against the traced pass's wall time
    less that cost. Timing a second, untraced pass instead measured host
    drift more than the tracer."""
    tracer = tracing.Tracer()
    traced = run.cold_pass(tracer)
    traced_s = traced.wall_s + sum(run.warm_phase(random.Random(seed), warm_queries, tracer))
    overhead_s = len(tracer.spans) * tracing.wrapper_cost_s()
    metrics = {
        **tracing.layer_metrics(tracer),
        **tracing.model_metrics(traced.points),
        "trace.overhead_pct": (100.0 * overhead_s / (traced_s - overhead_s), "%"),
    }
    return metrics, tracer, traced


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(drivers.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="orders the warm queries (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0, help="cold-pass budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-seed", type=int, default=0, help="seed of the simulated traces (default 0)"
    )
    parser.add_argument("--scale", help="trace scale override (self-tests use TINY)")
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="record this run's point digests in reference.json instead of checking them",
    )
    return parser.parse_args(argv)


def reference_key(args: argparse.Namespace, scale: str) -> Tuple[str, str, str]:
    return (args.workload, scale, str(args.trace_seed))


def load_reference(key: Tuple[str, str, str]) -> Optional[Dict[str, str]]:
    if not REFERENCE.is_file():
        return None
    table = json.loads(REFERENCE.read_text())
    return table.get(key[0], {}).get(key[1], {}).get(key[2])


def write_reference(key: Tuple[str, str, str], cold: drivers.ColdPass) -> None:
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    table.setdefault(key[0], {}).setdefault(key[1], {})[key[2]] = {
        point: drivers.point_digest(result) for point, result in sorted(cold.points.items())
    }
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    cls = drivers.WORKLOADS[args.workload]
    scale = (args.scale or cls.default_scale).upper()
    key = reference_key(args, scale)
    expected = None if args.write_reference else load_reference(key)
    if expected is None and not args.write_reference:
        print(f"no reference digest for {'/'.join(key)} in {REFERENCE}", file=sys.stderr)
        return 3

    work = root / ".perfbench" / "work" / f"{cls.name}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    # Temporary files (the C build's included) stay inside the checkout.
    os.environ["TMPDIR"] = str(work / "tmp")
    env = scrub_env()
    try:
        try:
            setup_s, private, src = timed_set_up(root, work, cls.engine, env)
        except SetupError as error:
            print(str(error), file=sys.stderr)
            return 3
        os.environ.update(
            {
                "PYTHONPATH": str(src),
                "REPRO_ENGINE": cls.engine,
                "REPRO_JOBS": str(1 if args.trace else JOBS),
                "REPRO_CAMPAIGN_DIR": str(private / "campaign"),
                "REPRO_CACHE_DIR": str(private / "cache"),
            }
        )
        sys.path.insert(0, str(src))
        workload = cls(scale, args.trace_seed)
        info = fingerprint(cls.engine)
        if info["engine_backend"] != cls.engine:
            print(f"engine backend is {info['engine_backend']}, not {cls.engine}", file=sys.stderr)
            return 3
        run = Run(workload, private, expected)
        if args.trace:
            layer, tracer, last = trace(run, args.seed, TRACE_WARM_QUERIES)
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
            out = root / ".perfbench" / "traces" / f"{cls.name}-seed{args.seed}.json"
            tracer.dump(out, {"fingerprint": info, "metrics": metrics})
            notes = [f"trace written to {out.relative_to(root)}"]
        else:
            values, last, notes = measure(
                run,
                random.Random(args.seed),
                args.seconds,
                workload.warm_queries,
                setup_s,
                lambda: spare_set_up(root, work, cls.engine, env),
            )
            metrics = {
                name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()
            }
        if args.write_reference and run.failed == 0:
            write_reference(key, last)
            notes.append(f"reference written for {'/'.join(key)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload: {cls.name} scale={scale} trace_seed={args.trace_seed} seed={args.seed}")
    print(f"fingerprint: {json.dumps(info, sort_keys=True)}")
    for line in notes + run.problems:
        print(line)
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    correct = run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
