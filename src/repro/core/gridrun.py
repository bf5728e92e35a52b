"""The grid driver: run many grid points over one trace, deduplicated.

Every paper figure fans the same workload trace out over a grid of
(policy, configuration) points, each a fully independent, deterministic
``Simulator.run()``. Running them one at a time repeats two kinds of
work per point: the trace build and — for points whose policies cannot
observe the fields that differ between them — the entire simulation.
This module runs a whole grid over ONE trace and shares both; every
lane that does simulate runs the one scalar :class:`Simulator`:

* **Lane deduplication**: a lane's dynamics depend only on the config
  fields its policy can read (the dependency sets next to the readers
  in :mod:`repro.ndp.controller`). Projecting unread fields out of the
  config and fingerprinting what remains — plus the effective mapping
  and the allocation-table mark state — lets e.g. a ``no-ctrl+bmap``
  lane at ``channel_busy_threshold=0.85`` reuse the 0.90 variant's run
  outright, and an oracle lane whose learning falls back to the
  baseline mapping reuse the ``ctrl+bmap`` run of its own variant.
  Deduplicated lanes still replay their allocation-table side effects
  (tmap learning marks, oracle candidate marks), so later lanes in the
  same variant observe exactly the state the scalar sequence produces.
  Oracle lanes share one offline learning outcome per trace
  (:class:`TracePack`).
* **Per-lane fallback eviction**: a lane that fails mid-flight —
  including faults injected at the ``lane/<workload>/<label>`` sites
  via ``REPRO_FAULTS`` — is replayed on a fresh :class:`Simulator`
  alone; the rest of the grid is unaffected. The allocation-table
  mutations are idempotent set-unions, so a partial lane run followed
  by a scalar replay lands in the same state as a scalar-only run.

Every lane's :class:`SimulationResult` is bit-identical to running its
point on a fresh per-variant :class:`~repro.core.experiment.WorkloadRunner`
(asserted over the full Figure-8 SMALL grid in ``tests/test_gridrun.py``).
Grid runs never trace (they bypass observability exactly like cache
hits do) and inherit the event-engine backend like every other run,
so ``REPRO_ENGINE=compiled`` switches grid lanes to the compiled core.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import SystemConfig
from ..errors import ConfigError
from ..gpu.warp import CandidateSegment
from ..guard import check_simulation_allowed
from ..mapping.transparent import TransparentDataMapping, candidate_instances, learn_offline
from ..memory.allocation import MemoryAllocationTable
from ..ndp.analyzer import LearnedMapping, MemoryMapAnalyzer
from ..ndp.controller import (
    CONTROL_FIELDS_DYNAMIC,
    CONTROL_FIELDS_LEARNING,
    CONTROL_FIELDS_OFFLOAD,
)
from ..testing.faults import maybe_fault
from ..trace.generator import WorkloadTrace
from .policies import MappingPolicy, OffloadPolicy, RunPolicy
from .results import SimulationResult
from .simulator import Simulator


def trace_fingerprint(config: SystemConfig) -> str:
    """Canonical form of every config field :func:`build_trace` reads —
    two configs with equal fingerprints produce identical traces for the
    same (workload, scale, seed), so their grid points can share one."""
    payload = {
        "compiler": dataclasses.asdict(config.compiler),
        "messages": dataclasses.asdict(config.messages),
        "warp_size": config.gpu.warp_size,
        "page_bytes": config.mapping.page_bytes,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- grid request / report ---------------------------------------------------


@dataclass(frozen=True)
class GridRequest:
    """One grid point: a policy plus the configuration pair a fresh
    :class:`~repro.core.experiment.WorkloadRunner` for its variant would
    hold. Points with equal configuration pairs form one *variant* and
    share one allocation-table trajectory, exactly like policies run
    sequentially through one runner."""

    policy: RunPolicy
    ndp_configuration: SystemConfig
    baseline_configuration: SystemConfig
    oracle_position: Optional[int] = None

    @property
    def run_configuration(self) -> SystemConfig:
        return (
            self.ndp_configuration
            if self.policy.offloads
            else self.baseline_configuration
        )


@dataclass
class GridReport:
    """What one grid run did: ``results`` in request order,
    plus how many lanes actually simulated, how many were deduplicated
    onto an equivalent lane, and which were evicted to scalar replay."""

    results: List[SimulationResult] = field(default_factory=list)
    simulated: int = 0
    deduplicated: int = 0
    evicted: List[str] = field(default_factory=list)


# -- trace pack: the shared oracle memo --------------------------------------


class TracePack:
    """What oracle lanes share over one trace: the offline learning
    outcome and the per-segment candidate-mark addresses."""

    def __init__(self, trace: WorkloadTrace) -> None:
        self.trace = trace
        self._learned: Dict[tuple, LearnedMapping] = {}
        self._rep_marks: Optional[List[List[int]]] = None

    def oracle_learned(self, config: SystemConfig) -> LearnedMapping:
        """The offline learning outcome for oracle lanes, computed once
        per distinct analyzer input (it is deterministic and does not
        depend on the allocation table — marks are replayed separately
        via :meth:`candidate_marks`)."""
        key = (
            config.mapping.sweep_low_bit,
            config.mapping.sweep_high_bit,
            config.stacks.n_stacks,
            config.stacks.stack_bits,
            config.messages.cache_line_bytes,
        )
        learned = self._learned.get(key)
        if learned is None:
            learned = learn_offline(config, self.trace.tasks, 1.0)
            self._learned[key] = learned
        return learned

    def candidate_marks(self) -> List[List[int]]:
        """Per candidate instance (task order), the page-deduplicated
        representative addresses the analyzer would mark — exactly
        ``MemoryMapAnalyzer.observe``'s allocation-table side effect."""
        marks = self._rep_marks
        if marks is None:
            marks = []
            for segment in candidate_instances(self.trace.tasks):
                addresses = segment.line_address_array()
                if addresses.size == 0:
                    marks.append([])
                else:
                    marks.append(
                        MemoryMapAnalyzer._representative_addresses(addresses).tolist()
                    )
            self._rep_marks = marks
        return marks


# -- lane fingerprinting (deduplication) -------------------------------------


def _projected_control(config: SystemConfig, policy: RunPolicy) -> dict:
    """``asdict(config)`` with every control field the policy can never
    read nulled out (see the dependency sets in
    :mod:`repro.ndp.controller`). Two lanes with equal projections — and
    equal mapping behaviour — run identical dynamics; keeping a field a
    policy cannot read merely prevents a dedup, never causes a false
    one, so the projection errs on the side of keeping fields."""
    projected = dataclasses.asdict(config)
    control = projected["control"]
    if not policy.offloads or policy.offload is OffloadPolicy.IDEAL:
        # No decision latency, no condition check, no coherence steps.
        for name in CONTROL_FIELDS_OFFLOAD:
            control[name] = None
    if not policy.dynamic_control:
        for name in CONTROL_FIELDS_DYNAMIC:
            control[name] = None
    if policy.mapping is not MappingPolicy.TMAP:
        # Oracle lanes consume min_learned_colocation before the sim
        # starts (resolution is folded into the mapping descriptor) and
        # never read the learning-phase sizing fields.
        for name in CONTROL_FIELDS_LEARNING:
            control[name] = None
    return projected


def _marks_snapshot(table: MemoryAllocationTable) -> tuple:
    """The candidate-mark state of an allocation table (≤100 ranges)."""
    return tuple(sorted(entry.start for entry in table.candidate_ranges()))


def _lane_fingerprint(
    config: SystemConfig,
    policy: RunPolicy,
    mapping_desc: tuple,
    marks_desc: Optional[tuple],
) -> str:
    payload = {
        "offload": policy.offload.value,
        "tmap": policy.mapping is MappingPolicy.TMAP,
        "mapping": list(mapping_desc),
        "marks": list(marks_desc) if marks_desc is not None else None,
        "config": _projected_control(config, policy),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- side-effect replay for deduplicated lanes -------------------------------


def _replay_tmap_learning(config: SystemConfig, trace: WorkloadTrace) -> None:
    """Re-run the tmap learning observations (and only those) against a
    variant's allocation table — the exact side effects a deduplicated
    tmap lane's learning pre-pass would have left for later lanes.
    Mirrors ``Simulator._learning_prepass``'s observation order."""
    tmap = TransparentDataMapping(
        config, trace.allocation_table, trace.total_candidate_instances
    )
    if not tmap.in_learning_phase:
        return
    remaining = tmap.learn_target
    for task in trace.tasks:
        if remaining == 0:
            return
        for segment in task.segments:
            if remaining == 0:
                return
            if isinstance(segment, CandidateSegment):
                tmap.observe_instance(segment)
                remaining -= 1


def _replay_oracle_marks(pack: TracePack, table: MemoryAllocationTable) -> None:
    """The allocation-table marks ``learn_offline`` makes over the full
    trace — replayed for every oracle lane (running lanes skip the
    in-simulator ``learn_offline`` via the injected outcome, so the
    grid owns this side effect; marking is an idempotent set-union)."""
    for addresses in pack.candidate_marks():
        if addresses:
            table.mark_candidates(addresses)


def _pristine_table(table: MemoryAllocationTable) -> MemoryAllocationTable:
    """A copy of ``table`` as a fresh trace build would have produced
    it: same allocations (the bump layout is deterministic), no
    candidate marks. Grid variants other than the trace's own start
    from this, matching a fresh per-variant ``WorkloadRunner``."""
    fresh = copy.deepcopy(table)
    for entry in fresh._ranges:
        entry.accessed_by_candidate = False
    fresh._page_memo.clear()
    return fresh


# -- the grid driver ---------------------------------------------------------


@dataclass
class _Variant:
    """One configuration pair's lanes and shared allocation state."""

    ndp_configuration: SystemConfig
    baseline_configuration: SystemConfig
    trace: WorkloadTrace
    indices: List[int] = field(default_factory=list)


def run_grid(
    trace: WorkloadTrace,
    requests: Sequence[GridRequest],
    *,
    trace_config: SystemConfig,
) -> GridReport:
    """Run every requested grid point over ``trace``, deduplicated.

    ``trace_config`` is the configuration the trace was built from;
    every request's ``ndp_configuration`` must be trace-compatible with
    it (equal :func:`trace_fingerprint` — the caller evicts incompatible
    variants to their own scalar runners first). The variant whose
    configurations match ``trace_config`` continues on the trace's own
    allocation table (sequential-runner semantics); every other variant
    gets a pristine copy, as a fresh runner would have built.
    """
    check_simulation_allowed("gridrun.run_grid")
    own_fingerprint = trace_fingerprint(trace_config)
    variants: List[_Variant] = []
    for index, request in enumerate(requests):
        for variant in variants:
            if (
                variant.ndp_configuration == request.ndp_configuration
                and variant.baseline_configuration == request.baseline_configuration
            ):
                variant.indices.append(index)
                break
        else:
            if trace_fingerprint(request.ndp_configuration) != own_fingerprint:
                raise ConfigError(
                    "grid request is not trace-compatible with the shared "
                    "trace (compiler/messages/warp-size/page-size differ)"
                )
            if request.ndp_configuration == trace_config and not any(
                v.trace is trace for v in variants
            ):
                variant_trace = trace
            else:
                variant_trace = dataclasses.replace(
                    trace, allocation_table=_pristine_table(trace.allocation_table)
                )
            variants.append(
                _Variant(
                    ndp_configuration=request.ndp_configuration,
                    baseline_configuration=request.baseline_configuration,
                    trace=variant_trace,
                    indices=[index],
                )
            )

    pack = TracePack(trace)
    report = GridReport(results=[None] * len(requests))  # type: ignore[list-item]
    memo: Dict[str, SimulationResult] = {}
    workload = trace.workload_name

    for variant in variants:
        table = variant.trace.allocation_table
        for index in variant.indices:
            request = requests[index]
            policy = request.policy
            run_config = request.run_configuration
            try:
                maybe_fault(f"lane/{workload}/{policy.label}")
                report.results[index] = _run_lane(
                    pack, variant, request, run_config, table, memo, report
                )
            except Exception:
                # Per-lane eviction: a failed lane (or an injected lane
                # fault) is replayed on a fresh Simulator over the
                # variant's own trace. Allocation marks are idempotent,
                # so a partial lane run followed by the replay matches
                # a scalar-only sequence.
                report.evicted.append(policy.label)
                report.results[index] = Simulator(
                    variant.trace, run_config, policy, request.oracle_position
                ).run()
    return report


def _run_lane(
    pack: TracePack,
    variant: _Variant,
    request: GridRequest,
    run_config: SystemConfig,
    table: MemoryAllocationTable,
    memo: Dict[str, SimulationResult],
    report: GridReport,
) -> SimulationResult:
    policy = request.policy
    oracle_learned = None
    position: Optional[int] = None
    marks_desc: Optional[tuple] = None
    if policy.mapping is MappingPolicy.ORACLE:
        oracle_learned = pack.oracle_learned(run_config)
        # The lane owns learn_offline's table marks whether it runs,
        # dedups, or resolves to the baseline fallback.
        _replay_oracle_marks(pack, table)
        position = (
            request.oracle_position
            if request.oracle_position is not None
            else oracle_learned.position
        )
        if oracle_learned.colocation >= run_config.control.min_learned_colocation:
            mapping_desc = ("hybrid", position, _marks_snapshot(table))
        else:
            # Fallback to the baseline mapping: dynamics are identical
            # to a bmap lane of the same variant; only the reported
            # learned position differs (patched below).
            mapping_desc = ("baseline",)
    elif policy.mapping is MappingPolicy.TMAP:
        mapping_desc = ("tmap",)
        marks_desc = _marks_snapshot(table)
    else:
        mapping_desc = ("baseline",)

    fingerprint = _lane_fingerprint(run_config, policy, mapping_desc, marks_desc)
    source = memo.get(fingerprint)
    if source is not None:
        report.deduplicated += 1
        if policy.mapping is MappingPolicy.TMAP:
            _replay_tmap_learning(run_config, variant.trace)
        if policy.mapping is MappingPolicy.ORACLE:
            return dataclasses.replace(
                source,
                policy_label=policy.label,
                learned_bit_position=position,
                learned_colocation=None,
            )
        if policy.mapping is MappingPolicy.TMAP:
            return dataclasses.replace(source, policy_label=policy.label)
        return dataclasses.replace(
            source,
            policy_label=policy.label,
            learned_bit_position=None,
            learned_colocation=None,
        )

    result = Simulator(
        variant.trace,
        run_config,
        policy,
        request.oracle_position,
        oracle_learned=oracle_learned,
    ).run()
    report.simulated += 1
    memo[fingerprint] = result
    return result
