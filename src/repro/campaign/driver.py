"""Campaign driver: expand, skip what is answered, run the rest.

The driver turns an expanded :class:`~repro.campaign.spec.CampaignSpec`
into grid points and hands them to the suite's job planner
(:func:`repro.core.experiment.run_points`):

1. every point already answered by the persistent result cache
   (:mod:`repro.core.result_cache`) is a *cache hit* — no trace, no
   simulation;
2. what is left is grouped one job per (workload, scale, seed) and
   trace fingerprint: named configs that generate the same trace ride
   one job as variants, so each trace is built once and shared across
   that group's configs and policies (and lanes the configs cannot tell
   apart, such as the baseline, simulate once) — and dispatched
   through the supervised executor: per-job timeouts, retries and
   structured failures.

Only the expanded points are planned, so exclusions and pins simulate
nothing extra. The result cache is the campaign's only completion
record: re-running a completed campaign performs **zero** simulations
(the CI smoke asserts exactly this via ``repro.core.simulator.stats``),
and re-running a partial one simulates exactly its missing points.
With the cache off (``REPRO_NO_CACHE``) every pass simulates every
point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import SystemConfig, baseline_config
from ..core import result_cache
from ..core.experiment import SuitePoint, point_key, run_points
from ..core.policies import POLICIES_BY_LABEL
from ..core.results import SimulationResult
from ..core.supervisor import JobFailure, JobOutcome
from .spec import CampaignPoint, CampaignSpec

#: ``(config name, scale name, seed)`` -> workload -> policy -> result.
Grids = Dict[Tuple[str, str, int], Dict[str, Dict[str, SimulationResult]]]


@dataclass
class CampaignStatus:
    """Point-level classification of a campaign, without running it."""

    name: str
    fingerprint: str
    total: int = 0
    cached: int = 0
    pending: int = 0
    pending_points: List[CampaignPoint] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.pending == 0

    def describe(self) -> List[str]:
        lines = [
            f"campaign {self.name} ({self.fingerprint[:12]})",
            f"  points: {self.total} total, {self.cached} cached, "
            f"{self.pending} pending",
        ]
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
    executed: int = 0
    failures: List[JobFailure] = field(default_factory=list)
    failed_points: List[CampaignPoint] = field(default_factory=list)
    outcomes: List[JobOutcome] = field(default_factory=list)

    @property
    def planned(self) -> int:
        return len(self.points)

    @property
    def ok(self) -> bool:
        return not self.failures and len(self.results) == len(self.points)

    def result_for(self, point: CampaignPoint) -> Optional[SimulationResult]:
        return self.results.get(point.point_id)

    def grids(self) -> Grids:
        """The answered points rolled up per (config, scale, seed) grid,
        for :func:`repro.analysis.reporting.render_grid_summary`."""
        grids: Grids = {}
        for point in self.points:
            result = self.results.get(point.point_id)
            if result is not None:
                grid = grids.setdefault((point.config, point.scale.name, point.seed), {})
                grid.setdefault(point.workload, {})[point.policy] = result
        return grids

    def describe(self) -> List[str]:
        lines = [
            f"campaign {self.spec.name}: {self.planned} points — "
            f"{self.cache_hits} cache hits, {self.executed} simulated, "
            f"{len(self.failed_points)} failed",
        ]
        for failure in self.failures:
            lines.append(
                f"  FAILED {failure.workload} "
                f"[{', '.join(failure.policies)}]: {failure.kind}: "
                f"{failure.message}"
            )
        return lines


class CampaignDriver:
    """Runs a campaign incrementally against the result cache."""

    def __init__(self, spec: CampaignSpec) -> None:
        self.spec = spec.validate()
        self.fingerprint = spec.fingerprint()
        self._base_config = baseline_config()
        self._configs: Dict[str, SystemConfig] = {
            config.name: config.resolve() for config in spec.configs
        }

    def _suite_point(self, point: CampaignPoint) -> SuitePoint:
        return SuitePoint(
            point.workload,
            point.scale,
            point.seed,
            self._configs[point.config],
            POLICIES_BY_LABEL[point.policy],
        )

    def status(self) -> CampaignStatus:
        """Classify every point as cached or pending. Read-only — probes
        the cache by existence (:func:`repro.core.result_cache.probe`)
        and never simulates."""
        status = CampaignStatus(name=self.spec.name, fingerprint=self.fingerprint)
        for point in self.spec.expand():
            status.total += 1
            key = point_key(self._suite_point(point), self._base_config)
            if result_cache.probe(key):
                status.cached += 1
            else:
                status.pending += 1
                status.pending_points.append(point)
        return status

    def run(
        self,
        jobs: Optional[int] = None,
        job_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
    ) -> CampaignReport:
        """One incremental pass: every point the cache does not answer
        is simulated; failed points stay unanswered for the next pass."""
        points = self.spec.expand()
        run = run_points(
            [self._suite_point(point) for point in points],
            jobs=jobs,
            job_timeout=job_timeout,
            max_retries=max_retries,
        )
        report = CampaignReport(
            spec=self.spec,
            points=points,
            cache_hits=run.cache_hits,
            failures=run.failures,
            outcomes=run.outcomes,
        )
        for point, result in zip(points, run.results):
            if result is None:
                report.failed_points.append(point)
            else:
                report.results[point.point_id] = result
        report.executed = len(report.results) - report.cache_hits
        return report


def run_campaign(
    spec: CampaignSpec,
    jobs: Optional[int] = None,
    job_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
) -> CampaignReport:
    """Convenience wrapper: one driver, one pass."""
    return CampaignDriver(spec).run(
        jobs=jobs, job_timeout=job_timeout, max_retries=max_retries
    )
