"""High-level experiment drivers used by examples and benchmarks.

:class:`WorkloadRunner` generates one trace per (workload, scale, seed)
and runs any number of policies against it, so policy comparisons are
always apples-to-apples (same addresses, same iteration counts).
:func:`run_suite` sweeps the full 10-workload suite — in parallel
across workloads when ``REPRO_JOBS`` allows (see
:mod:`repro.core.supervisor`) and backed by the persistent on-disk
result cache (see :mod:`repro.core.result_cache`), so repeated figure
drivers re-simulate nothing.

:func:`run_suite` hands its workloads x configurations x policies
product to the one job planner, :func:`run_points`, which runs the
misses under :mod:`repro.core.supervisor` (per-job timeouts and
retries) and for which the persistent result cache is the only record
of finished points — a plain re-run re-simulates only what is missing
or failed. When jobs fail for good, :func:`run_suite` raises
:class:`~repro.errors.JobExecutionError` carrying the structured
failures and the partial results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..config import SystemConfig, baseline_config, ndp_config
from ..errors import ConfigError, JobExecutionError
from ..trace.generator import TraceScale, WorkloadTrace, build_trace, trace_digest
from ..utils.stats import geometric_mean
from ..workloads.base import PaperWorkload, make_workload
from ..workloads.suite import SUITE_ORDER
from . import gridrun, result_cache
from .policies import BASELINE, RunPolicy
from .results import SimulationResult
from .simulator import Simulator
from .supervisor import (
    JobFailure,
    JobOutcome,
    SuiteJob,
    SupervisorConfig,
    run_supervised,
)


def _run_configuration(
    policy: RunPolicy,
    ndp_configuration: SystemConfig,
    baseline_configuration: SystemConfig,
) -> SystemConfig:
    """The configuration ``policy`` runs on: offloading policies run on
    the NDP configuration, the baseline on the baseline one."""
    return ndp_configuration if policy.offloads else baseline_configuration


def result_key(
    workload: str,
    policy: RunPolicy,
    scale: TraceScale,
    seed: int,
    ndp_configuration: SystemConfig,
    baseline_configuration: SystemConfig,
    run_config: Optional[SystemConfig] = None,
    oracle_position: Optional[int] = None,
) -> str:
    """The result-cache key of ``policy`` on the trace of ``workload``
    at (``scale``, ``seed``) built from ``ndp_configuration``. The
    policy runs on ``run_config`` when one is given, else on the NDP
    configuration if it offloads and on ``baseline_configuration`` if
    not. Every cache probe and store of a simulated point goes through
    here, so all of them agree on every key."""
    if run_config is None:
        run_config = _run_configuration(
            policy, ndp_configuration, baseline_configuration
        )
    return result_cache.cache_key(
        workload=workload,
        policy_label=policy.label,
        scale=scale,
        seed=seed,
        trace_config=ndp_configuration,
        run_config=run_config,
        oracle_position=oracle_position,
    )


class WorkloadRunner:
    """One workload, one trace, many policies."""

    def __init__(
        self,
        workload: Union[str, PaperWorkload],
        scale: TraceScale = TraceScale.SMALL,
        seed: int = 0,
        ndp_configuration: Optional[SystemConfig] = None,
        baseline_configuration: Optional[SystemConfig] = None,
    ) -> None:
        self.model = (
            make_workload(workload) if isinstance(workload, str) else workload
        )
        # The persistent cache keys on the workload *name*; only the
        # registered suite workloads are guaranteed to be reconstructible
        # from their name alone, so ad-hoc workload objects stay
        # in-memory-cached only.
        self._persistent_ok = isinstance(workload, str)
        self.scale = scale
        self.seed = seed
        self.ndp_configuration = ndp_configuration or ndp_config()
        self.baseline_configuration = baseline_configuration or baseline_config()
        self._trace: Optional[WorkloadTrace] = None
        self._cache: Dict[str, SimulationResult] = {}
        # The GridReport of the most recent gridrun.run_grid call
        # (None until one runs) — benchmarks and the fault-injection
        # smoke read dedup/eviction counts off it.
        self.last_grid_report: Optional[gridrun.GridReport] = None

    @property
    def trace(self) -> WorkloadTrace:
        """The workload trace, built on first use. Laziness matters:
        when every requested policy is a persistent-cache hit the trace
        is never generated at all."""
        if self._trace is None:
            self._trace = build_trace(
                self.model, self.ndp_configuration, self.scale, self.seed
            )
        return self._trace

    def run(
        self,
        policy: RunPolicy,
        configuration: Optional[SystemConfig] = None,
        oracle_position: Optional[int] = None,
        cache: bool = True,
        recorder=None,
    ) -> SimulationResult:
        """Simulate one policy; results are cached per policy label in
        memory (unless a custom configuration is supplied) and in the
        persistent on-disk cache (for registered suite workloads).

        Passing an enabled ``recorder`` (:class:`repro.obs.TraceRecorder`)
        bypasses both caches — a cache hit would return a result without
        producing the event trace the recorder exists to capture — and
        does not store the result, so traced runs never perturb cached
        figure state."""
        tracing = recorder is not None and recorder.enabled
        if tracing:
            cache = False
        custom = configuration is not None
        key = policy.label
        if cache and not custom and key in self._cache:
            return self._cache[key]
        if configuration is None:
            configuration = _run_configuration(
                policy, self.ndp_configuration, self.baseline_configuration
            )
        persistent_key = None
        if cache and self._persistent_ok and result_cache.enabled():
            persistent_key = result_key(
                self.model.name,
                policy,
                self.scale,
                self.seed,
                self.ndp_configuration,
                self.baseline_configuration,
                run_config=configuration,
                oracle_position=oracle_position,
            )
            hit = result_cache.load(persistent_key)
            if hit is not None:
                if not custom:
                    self._cache[key] = hit
                return hit
        result = Simulator(
            self.trace, configuration, policy, oracle_position, recorder=recorder
        ).run()
        if persistent_key is not None:
            result_cache.store(persistent_key, result)
        if cache and not custom:
            self._cache[key] = result
        return result

    def run_grid(
        self,
        policies: Sequence[RunPolicy],
        variants: Optional[Sequence[SystemConfig]] = None,
        cache: bool = True,
        recorder=None,
    ) -> Union[Dict[str, SimulationResult], List[Dict[str, SimulationResult]]]:
        """Run many policies — optionally across NDP-configuration
        ``variants`` that build this runner's trace — through the grid
        driver (:mod:`repro.core.gridrun`).

        Returns ``{policy_label: result}`` when ``variants`` is None,
        else one such dict per variant. Every result is bit-identical
        to running its point alone on a fresh :class:`WorkloadRunner`.
        Points that share a result-cache key are one point: each
        distinct key is probed once in the persistent cache — before
        the trace is built, so a fully-warm grid builds nothing — and
        the rest run as one :class:`~repro.core.supervisor.SuiteJob`
        through :meth:`run_job`, the path every supervised job takes.
        A traced lane must simulate to emit its events, so an enabled
        ``recorder`` runs every point through :meth:`run` instead.
        Raises :class:`~repro.errors.ConfigError` for a variant that
        would build a different trace.
        """
        single = variants is None
        configs = [self.ndp_configuration] if single else list(variants)
        identity = trace_digest(self.ndp_configuration)
        if any(trace_digest(config) != identity for config in configs):
            raise ConfigError(
                "every variant must build the runner's trace "
                "(equal compiler, message, warp-size and page-size fields)"
            )
        results: List[Dict[str, SimulationResult]] = [{} for _ in configs]
        if recorder is not None and recorder.enabled:
            for config, answers in zip(configs, results):
                for policy in policies:
                    answers[policy.label] = self.run(
                        policy,
                        _run_configuration(
                            policy, config, self.baseline_configuration
                        ),
                        recorder=recorder,
                    )
            return results[0] if single else results

        remember = cache and single
        slots: Dict[str, List[Tuple[int, str]]] = {}
        requests: Dict[str, gridrun.GridRequest] = {}
        for index, config in enumerate(configs):
            for policy in policies:
                if remember and policy.label in self._cache:
                    results[index][policy.label] = self._cache[policy.label]
                    continue
                key = result_key(
                    self.model.name,
                    policy,
                    self.scale,
                    self.seed,
                    config,
                    self.baseline_configuration,
                )
                slots.setdefault(key, []).append((index, policy.label))
                requests.setdefault(
                    key,
                    gridrun.GridRequest(policy, config, self.baseline_configuration),
                )

        def answer(key: str, result: SimulationResult) -> None:
            for index, label in slots[key]:
                results[index][label] = result

        root = result_cache.active_root() if cache and self._persistent_ok else None
        missing: List[str] = []
        for key in slots:
            hit = result_cache.load(key, root) if root is not None else None
            if hit is None:
                missing.append(key)
            else:
                answer(key, hit)
        if missing:
            job = SuiteJob(
                workload=self.model.name,
                scale=self.scale,
                seed=self.seed,
                trace_config=self.ndp_configuration,
                points=tuple(requests[key] for key in missing),
                keys=tuple(missing) if root is not None else (),
            )
            for key, result in zip(missing, self.run_job(job)):
                answer(key, result)
        if remember:
            self._cache.update(results[0])
        return results[0] if single else results

    def run_job(self, job: SuiteJob) -> Tuple[SimulationResult, ...]:
        """Simulate exactly ``job.points`` over this runner's trace
        (which ``job.trace_config`` builds) through the grid driver,
        store each result under its key in ``job.keys``, and return the
        results in point order."""
        report = gridrun.run_grid(
            self.trace, job.points, trace_config=self.ndp_configuration
        )
        self.last_grid_report = report
        for key, result in zip(job.keys, report.results):
            result_cache.store(key, result)
        return tuple(report.results)

    def baseline(self) -> SimulationResult:
        return self.run(BASELINE)

    def speedup(self, policy: RunPolicy, **kwargs) -> float:
        return self.run(policy, **kwargs).speedup_over(self.baseline())

    def traffic_ratio(self, policy: RunPolicy, **kwargs) -> float:
        return self.run(policy, **kwargs).traffic_ratio_over(self.baseline())

    def energy_ratio(self, policy: RunPolicy, **kwargs) -> float:
        return self.run(policy, **kwargs).energy_ratio_over(self.baseline())


def _suite_policies(
    policies: Sequence[RunPolicy], include_baseline: bool
) -> Tuple[RunPolicy, ...]:
    """Baseline first (when wanted), duplicates dropped, order kept."""
    ordered: List[RunPolicy] = [BASELINE] if include_baseline else []
    for policy in policies:
        if policy not in ordered:
            ordered.append(policy)
    return tuple(ordered)


SuiteResults = Dict[str, Dict[str, SimulationResult]]


class SuitePoint(NamedTuple):
    """One point of a run grid: ``policy`` on the trace of ``workload``
    at (``scale``, ``seed``), with ``config`` as the NDP configuration
    (offloading policies run on it; the baseline runs on the paper's
    baseline configuration)."""

    workload: str
    scale: TraceScale
    seed: int
    config: SystemConfig
    policy: RunPolicy


@dataclass
class PointsReport:
    """What :func:`run_points` produced: ``results`` is parallel to the
    points it was given, ``None`` where the point's job failed."""

    results: List[Optional[SimulationResult]]
    failures: List[JobFailure] = field(default_factory=list)


def run_points(
    points: Sequence[SuitePoint],
    jobs: Optional[int] = None,
    recorder=None,
) -> PointsReport:
    """Answer every point from the result cache or by simulating it
    under supervision — the one job planner behind :func:`run_suite`.

    Each distinct point's result-cache key is computed once, and points
    that share a key (the baseline of every configuration of an NDP
    sweep, equal configurations) are one simulation: the cache
    directory is resolved once per call, each distinct key is probed
    once, and its answer goes to every point that shares it. The persistent result
    cache is the only completion record, so re-running a partial run
    re-simulates exactly the keys that are missing. Those are grouped
    into one :class:`~repro.core.supervisor.SuiteJob` per trace
    identity (workload, scale, seed, trace digest) carrying exactly
    its keys' points in first-seen order, so each trace is built once
    and each key simulated and stored once. All jobs go to one
    :func:`~repro.core.supervisor.run_supervised` call; a failing job
    becomes a structured failure and leaves its points ``None``. The
    supervisor's timeout and retries come from
    ``REPRO_JOB_TIMEOUT``/``REPRO_MAX_RETRIES``. A ``recorder`` with a
    ``job`` hook (e.g. :class:`repro.obs.TraceRecorder`) receives one
    job-lifecycle event per outcome.
    """
    base_config = baseline_config()
    report = PointsReport(results=[None] * len(points))
    slots: Dict[str, List[int]] = {}
    # One key per distinct (workload, policy, scale, seed, run config,
    # trace identity), so an NDP sweep's baseline is keyed once. Run
    # configs are told apart by identity; the points keep them alive.
    keys: Dict[tuple, str] = {}
    for index, point in enumerate(points):
        run_config = _run_configuration(point.policy, point.config, base_config)
        inputs = (
            point.workload,
            point.policy.label,
            point.scale,
            point.seed,
            id(run_config),
            trace_digest(point.config),
        )
        key = keys.get(inputs)
        if key is None:
            key = keys[inputs] = result_key(
                point.workload,
                point.policy,
                point.scale,
                point.seed,
                point.config,
                base_config,
                run_config,
            )
        slots.setdefault(key, []).append(index)

    root = result_cache.active_root()
    groups: Dict[Tuple[str, TraceScale, int, str], List[str]] = {}
    for key, members in slots.items():
        cached = result_cache.load(key, root) if root is not None else None
        if cached is not None:
            for index in members:
                report.results[index] = cached
            continue
        point = points[members[0]]
        identity = (point.workload, point.scale, point.seed, trace_digest(point.config))
        groups.setdefault(identity, []).append(key)

    pending: List[SuiteJob] = []
    for keys in groups.values():
        firsts = [points[slots[key][0]] for key in keys]
        pending.append(
            SuiteJob(
                workload=firsts[0].workload,
                scale=firsts[0].scale,
                seed=firsts[0].seed,
                trace_config=firsts[0].config,
                points=tuple(
                    gridrun.GridRequest(point.policy, point.config, base_config)
                    for point in firsts
                ),
                keys=tuple(keys) if root is not None else (),
            )
        )

    on_outcome = None
    if recorder is not None and getattr(recorder, "enabled", False):
        started = time.monotonic()

        def on_outcome(outcome: JobOutcome) -> None:
            # Streamed per outcome, in the supervising (parent) process.
            failure = outcome.failure
            recorder.job(
                workload=outcome.job.workload,
                policies=tuple(p.label for p in outcome.job.policies),
                status="ok" if outcome.ok else "failed",
                attempts=outcome.attempts,
                elapsed=outcome.elapsed,
                error=failure.message if failure is not None else None,
                at=time.monotonic() - started,
            )

    outcomes = run_supervised(
        pending,
        n_jobs=jobs,
        config=SupervisorConfig.from_env(),
        on_outcome=on_outcome,
    )
    # Outcomes are submission-ordered, i.e. parallel to the groups.
    for keys, outcome in zip(groups.values(), outcomes):
        if not outcome.ok:
            if outcome.failure is not None:
                report.failures.append(outcome.failure)
            continue
        for key, result in zip(keys, outcome.results):
            for index in slots[key]:
                report.results[index] = result
    return report


def run_suite(
    policies: Sequence[RunPolicy],
    scale: TraceScale = TraceScale.SMALL,
    seed: int = 0,
    workloads: Optional[Sequence[str]] = None,
    ndp_configuration: Optional[SystemConfig] = None,
    include_baseline: bool = True,
    jobs: Optional[int] = None,
    variants: Optional[Sequence[SystemConfig]] = None,
) -> Union[SuiteResults, List[SuiteResults]]:
    """Run every policy on every suite workload.

    Returns ``{workload: {policy_label: result}}``; the baseline run is
    included under ``"baseline"`` unless ``include_baseline=False``.
    With ``variants`` (a parameter sweep over NDP configurations,
    instead of the single ``ndp_configuration``) it returns one such
    dict per variant, mirroring ``WorkloadRunner.run_grid``.

    The workloads x configurations x policies product goes to
    :func:`run_points`: cached results (see
    :mod:`repro.core.result_cache`) are returned without simulating;
    points that share a key (the baseline of every variant) are one
    simulation; the remaining work is grouped into one job per workload
    — so each trace is built once and shared across that workload's
    variants and policies — and dispatched across ``jobs`` worker
    processes (default: ``REPRO_JOBS`` / CPU count; serial when 1).
    Serial and parallel execution produce bit-identical results. Every
    point keeps the cache key a one-variant run of its configuration
    would use.

    Raises :class:`~repro.errors.JobExecutionError` if any job failed
    permanently (the supervisor may retry first, per
    ``REPRO_MAX_RETRIES``). The error carries the structured failures
    and the partial results, in the shape a clean run returns; a
    workload whose job failed is absent from every variant. Re-running
    after such a run simulates only the failed points — unless the
    cache is off (``REPRO_NO_CACHE``), which by design keeps no
    completion record.
    """
    names = list(workloads) if workloads is not None else list(SUITE_ORDER)
    wanted = _suite_policies(policies, include_baseline)
    if variants is None:
        requested = [ndp_configuration or ndp_config()]
    elif ndp_configuration is not None:
        raise ConfigError("pass either ndp_configuration or variants, not both")
    else:
        requested = list(variants)
        if not requested:
            raise ConfigError("variants must hold at least one configuration")
    # Equal variants key alike, so run_points simulates them once.
    run = run_points(
        [
            SuitePoint(name, scale, seed, config, policy)
            for name in names
            for config in requested
            for policy in wanted
        ],
        jobs=jobs,
    )
    # Fold back in product order; a workload whose every point failed
    # stays absent, so callers can treat membership as "has data".
    per_config: List[SuiteResults] = [{} for _ in requested]
    answers = iter(run.results)
    for name in names:
        for results in per_config:
            for policy in wanted:
                result = next(answers)
                if result is not None:
                    results.setdefault(name, {})[policy.label] = result
    folded: Union[SuiteResults, List[SuiteResults]] = (
        per_config[0] if variants is None else per_config
    )
    if run.failures:
        raise JobExecutionError(run.failures, folded)
    return folded


def suite_speedups(
    results: SuiteResults, policy_label: str
) -> Dict[str, float]:
    """Per-workload speedups plus the suite average (AVG key)."""
    speedups: Dict[str, float] = {}
    for name, per_policy in results.items():
        if policy_label not in per_policy:
            raise ConfigError(f"no run of {policy_label!r} for {name}")
        speedups[name] = per_policy[policy_label].speedup_over(
            per_policy["baseline"]
        )
    speedups["AVG"] = geometric_mean(
        [v for k, v in speedups.items() if k != "AVG"]
    )
    return speedups


def suite_ratios(
    results: SuiteResults,
    policy_label: str,
    metric: str = "traffic",
) -> Dict[str, float]:
    """Per-workload traffic or energy ratios vs. baseline (+ AVG)."""
    ratios: Dict[str, float] = {}
    for name, per_policy in results.items():
        run = per_policy[policy_label]
        base = per_policy["baseline"]
        if metric == "traffic":
            ratios[name] = run.traffic_ratio_over(base)
        elif metric == "energy":
            ratios[name] = run.energy_ratio_over(base)
        else:
            raise ConfigError(f"unknown metric {metric!r}")
    ratios["AVG"] = geometric_mean([v for k, v in ratios.items() if k != "AVG"])
    return ratios
