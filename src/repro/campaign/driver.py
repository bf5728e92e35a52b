"""Campaign driver: expand, skip what is answered, run the rest.

The driver turns an expanded :class:`~repro.campaign.spec.CampaignSpec`
into the minimum set of supervised jobs:

1. every point already answered by the persistent result cache
   (:mod:`repro.core.result_cache`) is a *cache hit* — no trace, no
   simulation;
2. every remaining point recorded as completed in the campaign's JSONL
   manifest (:mod:`repro.core.manifest`) is *resumed* — restored from
   the manifest's inline results, which works even with the cache
   disabled or invalidated;
3. what is left is grouped one job per (workload, scale, seed, config)
   — so each trace is built once and shared across that group's
   policies — and dispatched through the supervised executor
   (:func:`repro.core.supervisor.run_supervised`): per-job timeouts,
   retries, structured failures, and a manifest line appended as each
   outcome lands.

Re-running a completed campaign therefore performs **zero**
simulations (the CI smoke asserts exactly this via
``repro.core.simulator.stats``), and a campaign killed mid-flight
resumes from the last flushed manifest line.

A campaign manifest differs from a plain suite manifest in two ways:
its header carries the campaign name and spec fingerprint (so a
manifest can only resume the campaign that wrote it), and each job
entry is annotated with the scale / seed / config-name coordinates of
its grid — one campaign manifest spans many (scale, seed, config)
grids where a suite manifest spans exactly one. ``repro-tom report``
recognises the header and rolls the file up into per-grid summary
tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ..config import SystemConfig, baseline_config, env_text
from ..core import manifest as manifest_mod
from ..core import result_cache
from ..core.policies import POLICIES_BY_LABEL
from ..core.results import SimulationResult
from ..core.supervisor import (
    JobFailure,
    JobOutcome,
    SuiteJob,
    SupervisorConfig,
    run_supervised,
)
from ..errors import ConfigError
from .spec import CampaignPoint, CampaignSpec


def campaign_dir() -> Path:
    """Where campaign manifests live: ``REPRO_CAMPAIGN_DIR`` when set,
    else ``<result cache dir>/campaigns`` (so the test suite's
    per-test cache isolation isolates campaign state too)."""
    override = env_text("REPRO_CAMPAIGN_DIR").strip()
    if override:
        return Path(override)
    return result_cache.cache_dir() / "campaigns"


def default_manifest_path(spec: CampaignSpec) -> Path:
    """``<campaign dir>/<name>-<fingerprint12>.jsonl`` — the fingerprint
    keeps manifests of edited specs apart; editing a spec starts a new
    manifest rather than corrupting the old one's resume story."""
    return campaign_dir() / f"{spec.name}-{spec.fingerprint()[:12]}.jsonl"


@dataclass
class CampaignStatus:
    """Point-level classification of a campaign, without running it."""

    name: str
    fingerprint: str
    manifest_path: Path
    total: int = 0
    cached: int = 0
    completed: int = 0
    failed: int = 0
    pending: int = 0
    failed_points: List[CampaignPoint] = field(default_factory=list)
    pending_points: List[CampaignPoint] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.pending == 0 and self.failed == 0

    def describe(self) -> List[str]:
        lines = [
            f"campaign {self.name} ({self.fingerprint[:12]})",
            f"  manifest: {self.manifest_path}",
            f"  points: {self.total} total, {self.cached} cached, "
            f"{self.completed} in manifest, {self.failed} failed, "
            f"{self.pending} pending",
        ]
        for point in self.failed_points:
            lines.append(f"  failed: {point.describe()}")
        for point in self.pending_points:
            lines.append(f"  pending: {point.describe()}")
        return lines


@dataclass
class CampaignReport:
    """What one :meth:`CampaignDriver.run` pass produced."""

    spec: CampaignSpec
    points: List[CampaignPoint] = field(default_factory=list)
    #: point_id -> result, for every point answered this pass.
    results: Dict[str, SimulationResult] = field(default_factory=dict)
    cache_hits: int = 0
    resumed: int = 0
    executed: int = 0
    failures: List[JobFailure] = field(default_factory=list)
    failed_points: List[CampaignPoint] = field(default_factory=list)
    outcomes: List[JobOutcome] = field(default_factory=list)
    manifest_path: Optional[Path] = None

    @property
    def planned(self) -> int:
        return len(self.points)

    @property
    def ok(self) -> bool:
        return not self.failures and len(self.results) == len(self.points)

    def result_for(self, point: CampaignPoint) -> Optional[SimulationResult]:
        return self.results.get(point.point_id)

    def describe(self) -> List[str]:
        lines = [
            f"campaign {self.spec.name}: {self.planned} points — "
            f"{self.cache_hits} cache hits, {self.resumed} resumed, "
            f"{self.executed} simulated, {len(self.failed_points)} failed",
        ]
        if self.manifest_path is not None:
            lines.append(f"  manifest: {self.manifest_path}")
        for failure in self.failures:
            lines.append(
                f"  FAILED {failure.workload} "
                f"[{', '.join(failure.policies)}]: {failure.kind}: "
                f"{failure.message}"
            )
        return lines


#: One trace-sharing group of pending points: every point with the same
#: (workload, scale, seed, config) becomes one supervised job.
_GroupKey = Tuple[str, str, int, str]  # (workload, scale name, seed, config)


class CampaignDriver:
    """Runs a campaign incrementally against the cache + manifest."""

    def __init__(
        self, spec: CampaignSpec, manifest_path=None
    ) -> None:
        self.spec = spec.validate()
        self.fingerprint = spec.fingerprint()
        self.manifest_path = (
            Path(manifest_path) if manifest_path else default_manifest_path(spec)
        )
        self._base_config = baseline_config()
        self._configs: Dict[str, SystemConfig] = {
            config.name: config.resolve() for config in spec.configs
        }

    # -- shared classification machinery -------------------------------

    def _point_cache_key(self, point: CampaignPoint) -> str:
        ndp_cfg = self._configs[point.config]
        policy = POLICIES_BY_LABEL[point.policy]
        run_config = ndp_cfg if policy.offloads else self._base_config
        return result_cache.cache_key(
            workload=point.workload,
            policy_label=point.policy,
            scale=point.scale,
            seed=point.seed,
            trace_config=ndp_cfg,
            run_config=run_config,
        )

    def _point_job_key(self, point: CampaignPoint) -> str:
        return manifest_mod.job_key(
            point.workload,
            point.scale,
            point.seed,
            self._configs[point.config],
            self._base_config,
        )

    def _manifest_state(
        self,
    ) -> Tuple[Dict[str, Dict[str, SimulationResult]], Dict[str, Set[str]]]:
        """Fold the manifest into ``(done, failed)``: per job key, the
        per-policy results restored from ok entries and the policy
        labels whose *latest* entry failed. Unlike the suite's
        last-entry-wins fold, this merges across entries — successive
        campaign passes append entries whose pending policy sets differ,
        and every completed policy must survive the fold. An ok entry
        clears the failed mark for the policies it covers; a later
        failure does not un-restore an earlier success (the result is
        still valid — the re-run failed, not the data)."""
        done: Dict[str, Dict[str, SimulationResult]] = {}
        failed: Dict[str, Set[str]] = {}
        if not self.manifest_path.exists():
            return done, failed
        header, entries = manifest_mod.load_manifest_entries(self.manifest_path)
        if header is not None and header.get("campaign") not in (
            None,
            self.fingerprint,
        ):
            raise ConfigError(
                f"manifest {self.manifest_path} belongs to a different "
                f"campaign (spec changed — delete it or pass a fresh "
                f"--manifest path)"
            )
        for entry in entries:
            key = entry["key"]
            labels = [
                label
                for label in entry.get("policies", [])
                if isinstance(label, str)
            ]
            if entry.get("status") == "ok":
                restored = manifest_mod.completed_results(entry) or {}
                done.setdefault(key, {}).update(restored)
                if key in failed:
                    failed[key].difference_update(restored)
            else:
                failed.setdefault(key, set()).update(labels)
        return done, failed

    # -- status ---------------------------------------------------------

    def status(self) -> CampaignStatus:
        """Classify every point: cached / completed-in-manifest /
        failed / pending. Read-only — probes the cache by existence
        (:func:`repro.core.result_cache.probe`) and never simulates."""
        status = CampaignStatus(
            name=self.spec.name,
            fingerprint=self.fingerprint,
            manifest_path=self.manifest_path,
        )
        done, failed = self._manifest_state()
        for point in self.spec.expand():
            status.total += 1
            if result_cache.probe(self._point_cache_key(point)):
                status.cached += 1
                continue
            job_key = self._point_job_key(point)
            if point.policy in done.get(job_key, {}):
                status.completed += 1
            elif point.policy in failed.get(job_key, set()):
                status.failed += 1
                status.failed_points.append(point)
            else:
                status.pending += 1
                status.pending_points.append(point)
        return status

    # -- execution ------------------------------------------------------

    def run(
        self,
        jobs: Optional[int] = None,
        job_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        resume: bool = True,
    ) -> CampaignReport:
        """One incremental pass over the campaign.

        With ``resume`` (the default — campaigns are incremental by
        construction) the existing manifest is folded in first and the
        new pass appends to it; ``resume=False`` truncates the manifest
        and re-establishes every point from the cache or by simulating.
        Failed points are retried on every pass (their manifest entries
        record the failure but never block a re-run).
        """
        report = CampaignReport(
            spec=self.spec,
            points=self.spec.expand(),
            manifest_path=self.manifest_path,
        )
        done: Dict[str, Dict[str, SimulationResult]] = {}
        if resume:
            done, _ = self._manifest_state()

        # Classify every point; collect the unanswered ones into
        # trace-sharing groups.
        groups: Dict[_GroupKey, List[CampaignPoint]] = {}
        for point in report.points:
            cached = None
            if result_cache.enabled():
                cached = result_cache.load(self._point_cache_key(point))
            if cached is not None:
                report.results[point.point_id] = cached
                report.cache_hits += 1
                continue
            restored = done.get(self._point_job_key(point), {})
            if point.policy in restored:
                report.results[point.point_id] = restored[point.policy]
                report.resumed += 1
                continue
            group: _GroupKey = (
                point.workload,
                point.scale.name,
                point.seed,
                point.config,
            )
            groups.setdefault(group, []).append(point)

        pending: List[SuiteJob] = []
        # Manifest job key -> FIFO of extra-field dicts. A list, not a
        # single dict: two *named* configs may resolve to the identical
        # SystemConfig (same job key, identical results), and each of
        # their groups must still get a manifest entry annotated with
        # its own config name or the roll-up loses a table.
        extras: Dict[str, List[Dict]] = {}
        points_by_group: Dict[_GroupKey, List[CampaignPoint]] = {}
        for group, group_points in groups.items():
            workload, scale_name, seed, config_name = group
            first = group_points[0]
            pending.append(
                SuiteJob(
                    workload=workload,
                    policies=tuple(
                        POLICIES_BY_LABEL[p.policy] for p in group_points
                    ),
                    scale=first.scale,
                    seed=seed,
                    ndp_configuration=self._configs[config_name],
                )
            )
            extras.setdefault(self._point_job_key(first), []).append(
                {
                    "campaign": self.spec.name,
                    "scale": scale_name,
                    "seed": seed,
                    "config": config_name,
                }
            )
            points_by_group[group] = group_points

        manifest = manifest_mod.RunManifest(
            self.manifest_path,
            header={
                "campaign": self.fingerprint,
                "name": self.spec.name,
                "points": len(report.points),
            },
            append=resume,
        )

        def on_outcome(outcome: JobOutcome) -> None:
            # Every pending job carries its resolved NDP configuration,
            # so the manifest key is recomputable from the outcome alone
            # (the hook runs in completion order; no index to rely on).
            key = manifest_mod.job_key(
                outcome.job.workload,
                outcome.job.scale,
                outcome.job.seed,
                outcome.job.ndp_configuration,
                self._base_config,
            )
            # Jobs sharing a key are content-identical, so attributing
            # this outcome to whichever of their extras is next in line
            # is exact, not approximate.
            queue = extras.get(key)
            manifest.record(key, outcome, extra=queue.pop(0) if queue else None)

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
            manifest.close()

        # Fold outcomes back into point results (and re-store into the
        # cache: idempotent, and covers crashed workers' siblings). The
        # returned outcome list is submission-ordered, i.e. parallel to
        # the group list the jobs were built from.
        for group, outcome in zip(points_by_group, report.outcomes):
            group_points = points_by_group[group]
            if not outcome.ok:
                if outcome.failure is not None:
                    report.failures.append(outcome.failure)
                report.failed_points.extend(group_points)
                continue
            job_results = outcome.results or {}
            for point in group_points:
                result = job_results[point.policy]
                report.results[point.point_id] = result
                report.executed += 1
                if result_cache.enabled():
                    result_cache.store(self._point_cache_key(point), result)
        return report


def run_campaign(
    spec: CampaignSpec,
    manifest_path=None,
    jobs: Optional[int] = None,
    job_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    resume: bool = True,
) -> CampaignReport:
    """Convenience wrapper: one driver, one pass."""
    return CampaignDriver(spec, manifest_path=manifest_path).run(
        jobs=jobs, job_timeout=job_timeout, max_retries=max_retries,
        resume=resume,
    )
