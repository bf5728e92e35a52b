"""High-level experiment drivers used by examples and benchmarks.

:class:`WorkloadRunner` generates one trace per (workload, scale, seed)
and runs any number of policies against it, so policy comparisons are
always apples-to-apples (same addresses, same iteration counts).
:func:`run_suite` sweeps the full 10-workload suite — in parallel
across workloads when ``REPRO_JOBS`` allows (see
:mod:`repro.core.supervisor`) and backed by the persistent on-disk
result cache (see :mod:`repro.core.result_cache`), so repeated figure
drivers re-simulate nothing.

:func:`run_suite_supervised` is the fault-tolerant variant built on
:mod:`repro.core.supervisor`: per-job timeouts and retries, partial
results plus structured failures instead of a dead suite, an optional
JSONL run manifest streamed as outcomes land, and manifest-based
``resume`` that re-runs only missing or failed points.
:func:`run_suite` delegates to it and raises
:class:`~repro.errors.JobExecutionError` if anything failed — the
strict contract every figure driver expects.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..config import SystemConfig, baseline_config, ndp_config
from ..errors import ConfigError, JobExecutionError
from ..trace.generator import TraceScale, WorkloadTrace, build_trace
from ..utils.stats import geometric_mean
from ..workloads.base import PaperWorkload, make_workload
from ..workloads.suite import SUITE_ORDER
from . import gridrun
from . import manifest as manifest_mod
from . import result_cache
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
        # The GridReport of the most recent run_grid lockstep call
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

    def _persistent_key(
        self,
        policy: RunPolicy,
        configuration: SystemConfig,
        oracle_position: Optional[int],
    ) -> str:
        return result_cache.cache_key(
            workload=self.model.name,
            policy_label=policy.label,
            scale=self.scale,
            seed=self.seed,
            trace_config=self.ndp_configuration,
            run_config=configuration,
            oracle_position=oracle_position,
        )

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
            configuration = (
                self.baseline_configuration
                if not policy.offloads
                else self.ndp_configuration
            )
        persistent_key = None
        if cache and self._persistent_ok and result_cache.enabled():
            persistent_key = self._persistent_key(
                policy, configuration, oracle_position
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
        ``variants`` — through the lockstep grid engine
        (:mod:`repro.core.gridrun`) over one shared trace.

        Returns ``{policy_label: result}`` when ``variants`` is None,
        else one such dict per variant. Results are bit-identical to
        running each variant on its own :class:`WorkloadRunner` (the
        scalar engine remains the reference). Per-lane caching is
        unchanged: every lane probes the persistent cache under the
        exact key :meth:`run` would use — before the trace is built, so
        a fully-warm grid builds nothing — and stores its result back.
        Grid lanes bypass tracing the same way cache hits do, so an
        enabled ``recorder`` forces the sequential scalar path. Variants
        whose configuration would generate a different trace
        (compiler/message/warp/page fields) are evicted to their own
        scalar runners.
        """
        single = variants is None
        ndp_variants = (
            [self.ndp_configuration] if single else list(variants)
        )
        tracing = recorder is not None and recorder.enabled
        results: List[Dict[str, SimulationResult]] = [
            {} for _ in ndp_variants
        ]
        missing: List[Tuple[int, RunPolicy]] = []
        for index, ndp_cfg in enumerate(ndp_variants):
            for policy in policies:
                label = policy.label
                if tracing:
                    missing.append((index, policy))
                    continue
                if cache and single and label in self._cache:
                    results[index][label] = self._cache[label]
                    continue
                if cache and self._persistent_ok and result_cache.enabled():
                    run_config = (
                        self.baseline_configuration
                        if not policy.offloads
                        else ndp_cfg
                    )
                    hit = result_cache.load(
                        result_cache.cache_key(
                            workload=self.model.name,
                            policy_label=label,
                            scale=self.scale,
                            seed=self.seed,
                            trace_config=ndp_cfg,
                            run_config=run_config,
                            oracle_position=None,
                        )
                    )
                    if hit is not None:
                        results[index][label] = hit
                        if single:
                            self._cache[label] = hit
                        continue
                missing.append((index, policy))

        scalar_runners: Dict[int, "WorkloadRunner"] = {}

        def variant_runner(index: int) -> "WorkloadRunner":
            runner = scalar_runners.get(index)
            if runner is None:
                cfg = ndp_variants[index]
                if cfg == self.ndp_configuration and not any(
                    r is self for r in scalar_runners.values()
                ):
                    runner = self
                else:
                    runner = WorkloadRunner(
                        self.model.name if self._persistent_ok else self.model,
                        scale=self.scale,
                        seed=self.seed,
                        ndp_configuration=cfg,
                        baseline_configuration=self.baseline_configuration,
                    )
                scalar_runners[index] = runner
            return runner

        def run_scalar(index: int, policy: RunPolicy) -> SimulationResult:
            result = variant_runner(index).run(
                policy, cache=cache, recorder=recorder
            )
            if single and cache:
                self._cache.setdefault(policy.label, result)
            return result

        if tracing or len(missing) < 2:
            for index, policy in missing:
                results[index][policy.label] = run_scalar(index, policy)
            return results[0] if single else results

        own_fingerprint = gridrun.trace_fingerprint(self.ndp_configuration)
        grid_lanes: List[Tuple[int, RunPolicy]] = []
        for index, policy in missing:
            compatible = single or (
                gridrun.trace_fingerprint(ndp_variants[index])
                == own_fingerprint
            )
            if compatible:
                grid_lanes.append((index, policy))
            else:  # different trace: evict the lane to its own runner
                results[index][policy.label] = run_scalar(index, policy)
        if grid_lanes:
            requests = [
                gridrun.GridRequest(
                    policy=policy,
                    ndp_configuration=ndp_variants[index],
                    baseline_configuration=self.baseline_configuration,
                )
                for index, policy in grid_lanes
            ]
            report = gridrun.run_grid(
                self.trace, requests, trace_config=self.ndp_configuration
            )
            self.last_grid_report = report
            for (index, policy), result in zip(grid_lanes, report.results):
                label = policy.label
                results[index][label] = result
                if cache and self._persistent_ok and result_cache.enabled():
                    run_config = (
                        self.baseline_configuration
                        if not policy.offloads
                        else ndp_variants[index]
                    )
                    result_cache.store(
                        result_cache.cache_key(
                            workload=self.model.name,
                            policy_label=label,
                            scale=self.scale,
                            seed=self.seed,
                            trace_config=ndp_variants[index],
                            run_config=run_config,
                            oracle_position=None,
                        ),
                        result,
                    )
                if single and cache:
                    self._cache[label] = result
        return results[0] if single else results

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


@dataclass
class SuiteRunReport:
    """What a supervised suite run produced.

    ``results`` holds every completed point (possibly partial when jobs
    failed); ``failures`` the structured per-job failures; ``outcomes``
    every :class:`~repro.core.supervisor.JobOutcome` in submission
    order; ``resumed`` counts policy results restored from the manifest
    rather than simulated or cache-loaded.
    """

    results: Dict[str, Dict[str, SimulationResult]] = field(default_factory=dict)
    failures: List[JobFailure] = field(default_factory=list)
    outcomes: List[JobOutcome] = field(default_factory=list)
    resumed: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def run_suite_supervised(
    policies: Sequence[RunPolicy],
    scale: TraceScale = TraceScale.SMALL,
    seed: int = 0,
    workloads: Optional[Sequence[str]] = None,
    ndp_configuration: Optional[SystemConfig] = None,
    include_baseline: bool = True,
    jobs: Optional[int] = None,
    job_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    manifest_path=None,
    resume: bool = False,
    recorder=None,
) -> SuiteRunReport:
    """Run every policy on every suite workload under supervision.

    Like :func:`run_suite`, cached results are returned without
    simulating and the remaining work is grouped into one job per
    workload; unlike it, a failing job becomes a structured
    :class:`~repro.core.supervisor.JobFailure` in the report instead of
    killing the suite. ``job_timeout``/``max_retries`` configure the
    supervisor (env fallbacks ``REPRO_JOB_TIMEOUT``/``REPRO_MAX_RETRIES``).

    With ``manifest_path``, every outcome is appended to a JSONL run
    manifest as it lands; with ``resume=True`` the manifest is read
    first and points it records as completed are restored instead of
    re-run (``report.resumed`` counts them) — only missing or failed
    points execute. A ``recorder`` with a ``job`` hook (e.g.
    :class:`repro.obs.TraceRecorder`) receives one job-lifecycle event
    per outcome.
    """
    names = list(workloads) if workloads is not None else list(SUITE_ORDER)
    wanted = _suite_policies(policies, include_baseline)
    trace_config = ndp_configuration or ndp_config()
    base_config = baseline_config()

    report = SuiteRunReport(results={name: {} for name in names})
    results = report.results

    manifest_entries: Dict[str, Dict] = {}
    if resume:
        if not manifest_path:
            raise ConfigError("resume requires a manifest path")
        header, manifest_entries = manifest_mod.load_manifest(manifest_path)
        expected = manifest_mod.run_fingerprint(scale, seed, trace_config, base_config)
        if header is not None and header.get("run") not in (None, expected):
            raise ConfigError(
                f"manifest {manifest_path} belongs to a different run "
                f"(scale/seed/configuration changed)"
            )

    pending: List[SuiteJob] = []
    job_keys: Dict[str, str] = {}
    for name in names:
        key = manifest_mod.job_key(name, scale, seed, trace_config, base_config)
        job_keys[name] = key
        restored: Dict[str, SimulationResult] = {}
        if key in manifest_entries:
            restored = manifest_mod.completed_results(manifest_entries[key]) or {}
        missing: List[RunPolicy] = []
        for policy in wanted:
            run_config = trace_config if policy.offloads else base_config
            cached = None
            if result_cache.enabled():
                cached = result_cache.load(
                    result_cache.cache_key(
                        workload=name,
                        policy_label=policy.label,
                        scale=scale,
                        seed=seed,
                        trace_config=trace_config,
                        run_config=run_config,
                    )
                )
            if cached is not None:
                results[name][policy.label] = cached
            elif policy.label in restored:
                results[name][policy.label] = restored[policy.label]
                report.resumed += 1
            else:
                missing.append(policy)
        if missing:
            pending.append(
                SuiteJob(
                    workload=name,
                    policies=tuple(missing),
                    scale=scale,
                    seed=seed,
                    ndp_configuration=ndp_configuration,
                )
            )

    manifest: Optional[manifest_mod.RunManifest] = None
    if manifest_path:
        manifest = manifest_mod.RunManifest(
            manifest_path,
            header={
                "run": manifest_mod.run_fingerprint(
                    scale, seed, trace_config, base_config
                ),
                "scale": scale.name,
                "seed": seed,
                "policies": [policy.label for policy in wanted],
                "workloads": names,
            },
            append=resume,
        )

    started = time.monotonic()

    def on_outcome(outcome: JobOutcome) -> None:
        # Streamed per-outcome hooks: manifest line + job-lifecycle
        # event. Runs in the supervising (parent) process.
        if manifest is not None:
            manifest.record(job_keys[outcome.job.workload], outcome)
        if recorder is not None and getattr(recorder, "enabled", False):
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

    supervisor_config = SupervisorConfig.from_env(
        timeout=job_timeout, max_retries=max_retries
    )
    try:
        report.outcomes = run_supervised(
            pending,
            n_jobs=jobs,
            config=supervisor_config,
            on_outcome=on_outcome,
        )
    finally:
        if manifest is not None:
            manifest.close()

    for outcome in report.outcomes:
        if not outcome.ok:
            if outcome.failure is not None:
                report.failures.append(outcome.failure)
            continue
        job, job_results = outcome.job, outcome.results or {}
        for policy in job.policies:
            result = job_results[policy.label]
            results[job.workload][policy.label] = result
            # Workers store through their own WorkloadRunner; repeating
            # the store here covers the serial path and crashed workers'
            # surviving siblings alike (idempotent either way).
            if result_cache.enabled():
                run_config = trace_config if policy.offloads else base_config
                result_cache.store(
                    result_cache.cache_key(
                        workload=job.workload,
                        policy_label=policy.label,
                        scale=scale,
                        seed=seed,
                        trace_config=trace_config,
                        run_config=run_config,
                    ),
                    result,
                )
    # A workload whose every point failed contributes no results; drop
    # its empty dict so callers can treat membership as "has data".
    for name in names:
        if not results[name]:
            del results[name]
    return report


def run_suite(
    policies: Sequence[RunPolicy],
    scale: TraceScale = TraceScale.SMALL,
    seed: int = 0,
    workloads: Optional[Sequence[str]] = None,
    ndp_configuration: Optional[SystemConfig] = None,
    include_baseline: bool = True,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, SimulationResult]]:
    """Run every policy on every suite workload.

    Returns ``{workload: {policy_label: result}}``; the baseline run is
    included under ``"baseline"`` unless ``include_baseline=False``.

    Cached results (see :mod:`repro.core.result_cache`) are returned
    without simulating; the remaining work is grouped into one job per
    workload — so each trace is built once and shared across that
    workload's policies — and dispatched across ``jobs`` worker
    processes (default: ``REPRO_JOBS`` / CPU count; serial when 1).
    Serial and parallel execution produce bit-identical results.

    Strict: raises :class:`~repro.errors.JobExecutionError` if any job
    failed permanently (the supervised engine may retry first, per
    ``REPRO_MAX_RETRIES``); use :func:`run_suite_supervised` to get
    partial results plus structured failures instead.
    """
    report = run_suite_supervised(
        policies,
        scale=scale,
        seed=seed,
        workloads=workloads,
        ndp_configuration=ndp_configuration,
        include_baseline=include_baseline,
        jobs=jobs,
    )
    if report.failures:
        raise JobExecutionError(report.failures)
    return report.results


def suite_speedups(
    results: Dict[str, Dict[str, SimulationResult]], policy_label: str
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
    results: Dict[str, Dict[str, SimulationResult]],
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
