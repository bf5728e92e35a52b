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
  in :mod:`repro.ndp.controller`) and on its effective mapping.
  Projecting unread fields out of the config and fingerprinting what
  remains, plus the mapping, lets e.g. a ``no-ctrl+bmap`` lane at
  ``channel_busy_threshold=0.85`` reuse the 0.90 point's run outright,
  and an oracle lane whose learning falls back to the baseline mapping
  reuse the ``ctrl+bmap`` run of its configuration. Oracle lanes share
  one offline learning outcome per trace (:class:`TracePack`).
* **Per-lane fallback eviction**: a lane that fails mid-flight —
  including faults injected at the ``lane/<workload>/<label>`` sites
  via ``REPRO_FAULTS`` — is replayed on a fresh :class:`Simulator`
  alone; the rest of the grid is unaffected.

No run writes the trace: its allocation table is read-only and each
run's learning keeps its candidate marks to itself
(:mod:`repro.ndp.analyzer`). A lane is therefore just its request's
policy and configuration over the shared trace, and its
:class:`SimulationResult` is bit-identical to running that point alone
on a fresh :class:`~repro.core.experiment.WorkloadRunner`, whatever ran
on the trace before it (asserted in ``tests/test_gridrun.py``, over the
full Figure-8 SMALL grid with ``REPRO_FULL_GRID=1``). Grid runs never
trace (they bypass observability exactly like cache hits do) and
inherit the event-engine backend like every other run, so
``REPRO_ENGINE=compiled`` switches grid lanes to the compiled core.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import SystemConfig
from ..errors import ConfigError
from ..guard import check_simulation_allowed
from ..mapping.transparent import learn_offline
from ..ndp.analyzer import LearnedMapping
from ..ndp.controller import (
    CONTROL_FIELDS_DYNAMIC,
    CONTROL_FIELDS_LEARNING,
    CONTROL_FIELDS_OFFLOAD,
)
from ..testing.faults import maybe_fault
# perfbench/tracer.py reads trace_fingerprint as gridrun.trace_fingerprint.
from ..trace.generator import WorkloadTrace, trace_digest, trace_fingerprint  # noqa: F401
from .policies import MappingPolicy, OffloadPolicy, RunPolicy
from .results import SimulationResult
from .simulator import Simulator


# -- grid request / report ---------------------------------------------------


@dataclass(frozen=True)
class GridRequest:
    """One grid point: a policy plus the configuration pair a fresh
    :class:`~repro.core.experiment.WorkloadRunner` for it would hold."""

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
    outcome, candidate pages included."""

    def __init__(self, trace: WorkloadTrace) -> None:
        self.trace = trace
        self._learned: Dict[tuple, LearnedMapping] = {}

    def oracle_learned(self, config: SystemConfig) -> LearnedMapping:
        """The full-trace learning outcome for oracle lanes, computed
        once per distinct analyzer input (it is deterministic and
        leaves the trace untouched)."""
        key = (
            config.mapping.sweep_low_bit,
            config.mapping.sweep_high_bit,
            config.stacks.n_stacks,
            config.stacks.stack_bits,
            config.messages.cache_line_bytes,
        )
        learned = self._learned.get(key)
        if learned is None:
            learned = learn_offline(
                config,
                self.trace.tasks,
                1.0,
                allocation_table=self.trace.allocation_table,
            )
            self._learned[key] = learned
        return learned


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


def _lane_fingerprint(
    config: SystemConfig, policy: RunPolicy, mapping_desc: tuple
) -> str:
    payload = {
        "offload": policy.offload.value,
        "mapping": list(mapping_desc),
        "config": _projected_control(config, policy),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- the grid driver ---------------------------------------------------------


def run_grid(
    trace: WorkloadTrace,
    requests: Sequence[GridRequest],
    *,
    trace_config: SystemConfig,
) -> GridReport:
    """Run every requested grid point over ``trace``, deduplicated.

    ``trace_config`` is the configuration the trace was built from;
    every request's ``ndp_configuration`` must build the same trace
    (equal :func:`~repro.trace.generator.trace_digest`).
    """
    check_simulation_allowed("gridrun.run_grid")
    identity = trace_digest(trace_config)
    if any(
        trace_digest(request.ndp_configuration) != identity
        for request in requests
    ):
        raise ConfigError(
            "grid request is not trace-compatible with the shared "
            "trace (compiler/messages/warp-size/page-size differ)"
        )

    pack = TracePack(trace)
    report = GridReport()
    memo: Dict[str, SimulationResult] = {}
    workload = trace.workload_name
    for request in requests:
        policy = request.policy
        run_config = request.run_configuration
        try:
            maybe_fault(f"lane/{workload}/{policy.label}")
            result = _run_lane(pack, request, run_config, memo, report)
        except Exception:
            # Per-lane eviction: a failed lane (or an injected lane
            # fault) is replayed on a fresh Simulator.
            report.evicted.append(policy.label)
            result = Simulator(
                trace, run_config, policy, request.oracle_position
            ).run()
        report.results.append(result)
    return report


def _run_lane(
    pack: TracePack,
    request: GridRequest,
    run_config: SystemConfig,
    memo: Dict[str, SimulationResult],
    report: GridReport,
) -> SimulationResult:
    policy = request.policy
    oracle_learned = None
    position: Optional[int] = None
    if policy.mapping is MappingPolicy.ORACLE:
        oracle_learned = pack.oracle_learned(run_config)
        position = (
            request.oracle_position
            if request.oracle_position is not None
            else oracle_learned.position
        )
        if oracle_learned.colocation >= run_config.control.min_learned_colocation:
            mapping_desc: tuple = ("hybrid", position)
        else:
            # Fallback to the baseline mapping: dynamics are identical
            # to a bmap lane of the same configuration; only the
            # reported learned position differs (patched below).
            mapping_desc = ("baseline",)
    elif policy.mapping is MappingPolicy.TMAP:
        mapping_desc = ("tmap",)
    else:
        mapping_desc = ("baseline",)

    fingerprint = _lane_fingerprint(run_config, policy, mapping_desc)
    source = memo.get(fingerprint)
    if source is not None:
        report.deduplicated += 1
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
        pack.trace,
        run_config,
        policy,
        request.oracle_position,
        oracle_learned=oracle_learned,
    ).run()
    report.simulated += 1
    memo[fingerprint] = result
    return result
