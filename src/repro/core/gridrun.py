"""The lockstep grid engine: batch many grid points over one trace.

Every paper figure fans the same workload trace out over a grid of
(policy, configuration) points, each a fully independent, deterministic
``Simulator.run()``. Running them one at a time repeats three kinds of
work per point: the trace build, the address routing of every warp
access, and — for points whose policies cannot observe the fields that
differ between them — the entire simulation. This module advances a
whole grid over ONE trace and shares all three:

* **Trace plans** (:class:`TracePack`): every access's line addresses
  live in one flat CSR array (:meth:`WorkloadTrace.access_arrays`), so
  routing a mapping becomes a single vectorized ``stack_of``/
  ``vault_of`` call over the whole trace — vector widths in the
  hundred-thousands instead of the ≤32 lanes that made per-access
  vectorization a loss (docs/PERFORMANCE.md). The resulting per-access
  stack groups, with DRAM row/bank geometry precomputed per trace, are
  shared by every lane that uses the same mapping; lanes replay them
  through the ``*_planned`` DRAM entry points, which book in the exact
  scalar order, so results stay bit-identical.
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
* **Per-lane fallback eviction**: any lane the lockstep path cannot
  express — or that fails mid-flight, including faults injected at the
  ``lane/<workload>/<label>`` sites via ``REPRO_FAULTS`` — is replayed
  on the scalar :class:`Simulator` alone; the rest of the grid is
  unaffected. The allocation-table mutations are idempotent set-unions,
  so a partial lane run followed by a scalar replay lands in the same
  state as a scalar-only run.

The scalar engine remains the reference: every lane's
:class:`SimulationResult` is bit-identical to running its point on a
fresh per-variant :class:`~repro.core.experiment.WorkloadRunner`
(asserted over the full Figure-8 SMALL grid in ``tests/test_gridrun.py``).
Lockstep runs never trace (they bypass observability exactly like
cache hits do).

Grid lanes inherit the event-engine backend like every other run:
``_LaneSimulator`` extends :class:`Simulator`, whose
:class:`~repro.core.system.NDPSystem` builds its engine through
:func:`repro.accel.make_engine` — so ``REPRO_ENGINE=compiled`` (or
``repro run --engine compiled``) switches grid runs to the compiled
core too, with bit-identical lane results.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..errors import ConfigError
from ..gpu.warp import CandidateSegment, WarpAccess
from ..guard import check_simulation_allowed
from ..mapping.transparent import TransparentDataMapping, candidate_instances, learn_offline
from ..memory.address_mapping import (
    AddressMapping,
    BaselineMapping,
    ConsecutiveBitMapping,
    HybridMapping,
)
from ..memory.allocation import MemoryAllocationTable
from ..ndp.analyzer import LearnedMapping, MemoryMapAnalyzer
from ..ndp.controller import (
    CONTROL_FIELDS_DYNAMIC,
    CONTROL_FIELDS_LEARNING,
    CONTROL_FIELDS_OFFLOAD,
)
from ..testing.faults import maybe_fault
from ..trace.generator import WorkloadTrace
from ..utils.bitops import ilog2
from ..utils.simcore import Acquire, AllOf, Timeout
from .policies import MappingPolicy, OffloadPolicy, RunPolicy
from .results import SimulationResult
from .simulator import _L2_HIT_LATENCY, Simulator


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
    """What one lockstep grid run did: ``results`` in request order,
    plus how many lanes actually simulated, how many were deduplicated
    onto an equivalent lane, and which were evicted to scalar replay."""

    results: List[SimulationResult] = field(default_factory=list)
    simulated: int = 0
    deduplicated: int = 0
    evicted: List[str] = field(default_factory=list)


# -- trace pack: shared plans ------------------------------------------------


class _Geometry:
    """Mapping-independent DRAM geometry of every trace line: row index
    and permuted bank (constant per stack configuration), plus the
    ideal-colocation vault spread. Values are plain Python ints
    (``tolist``), exactly what the scalar arithmetic produces."""

    __slots__ = ("rows", "banks", "ideal_vaults", "n_vaults")

    def __init__(self, lines, config: SystemConfig) -> None:
        stacks = config.stacks
        line_bits = ilog2(config.messages.cache_line_bytes)
        row_bits = ilog2(stacks.row_bytes) + stacks.stack_bits + stacks.vault_bits
        rows = lines >> row_bits
        self.rows = rows.tolist()
        self.banks = ((rows ^ (rows >> 4) ^ (rows >> 8)) % stacks.banks_per_vault).tolist()
        self.n_vaults = stacks.vaults_per_stack
        self.ideal_vaults = ((lines >> line_bits) % self.n_vaults).tolist()


class _Routing:
    """Whole-trace routing under one address mapping: per-line stack and
    vault indices plus, per access, the stack groups the scalar
    ``_group_by_stack`` walk would have produced (first-occurrence
    order), each carrying its materialized line/vault/row/bank lists and
    the common vault when the group is single-vault."""

    __slots__ = ("stacks", "vaults", "plans")

    def __init__(self, pack: "TracePack", mapping: AddressMapping, geometry: _Geometry):
        lines = pack.lines
        stacks = mapping.stack_of(lines).tolist()
        vaults = mapping.vault_of(lines).tolist()
        self.stacks = stacks
        self.vaults = vaults
        lines_list = pack.lines_list
        rows = geometry.rows
        banks = geometry.banks
        offsets = pack.offsets_list
        plans: List[tuple] = []
        append = plans.append
        for index in range(len(pack.accesses)):
            start = offsets[index]
            end = offsets[index + 1]
            group_stacks = stacks[start:end]
            first = group_stacks[0]
            single = True
            for stack in group_stacks:
                if stack != first:
                    single = False
                    break
            if single:
                append(
                    (
                        first,
                        (
                            _plan_group(
                                first,
                                lines_list[start:end],
                                vaults[start:end],
                                rows[start:end],
                                banks[start:end],
                            ),
                        ),
                    )
                )
                continue
            order: List[int] = []
            buckets: Dict[int, List[int]] = {}
            for local, stack in enumerate(group_stacks):
                bucket = buckets.get(stack)
                if bucket is None:
                    buckets[stack] = [local]
                    order.append(stack)
                else:
                    bucket.append(local)
            groups = []
            for stack in order:
                idx = buckets[stack]
                groups.append(
                    _plan_group(
                        stack,
                        [lines_list[start + j] for j in idx],
                        [vaults[start + j] for j in idx],
                        [rows[start + j] for j in idx],
                        [banks[start + j] for j in idx],
                    )
                )
            append((first, tuple(groups)))
        self.plans = plans


def _plan_group(stack, glines, gvaults, grows, gbanks) -> tuple:
    """(stack, lines, vaults, rows, banks, common-vault-or-None)."""
    first = gvaults[0]
    for vault in gvaults:
        if vault != first:
            return (stack, glines, gvaults, grows, gbanks, None)
    return (stack, glines, gvaults, grows, gbanks, first)


class TracePack:
    """Everything lanes share over one trace: the flat access arrays,
    per-geometry DRAM plans, per-mapping routings, the oracle learning
    outcome, and the per-segment candidate-mark addresses."""

    def __init__(self, trace: WorkloadTrace) -> None:
        self.trace = trace
        arrays = trace.access_arrays()
        self.accesses: Tuple[WarpAccess, ...] = arrays.accesses
        self.lines = arrays.lines
        self.lines_list: List[int] = arrays.lines.tolist()
        self.offsets_list: List[int] = arrays.offsets.tolist()
        self._index: Dict[int, int] = {
            id(access): index for index, access in enumerate(self.accesses)
        }
        self._geometries: Dict[tuple, _Geometry] = {}
        self._routings: Dict[tuple, _Routing] = {}
        self._stripped: Dict[int, object] = {}
        self._learned: Dict[tuple, LearnedMapping] = {}
        self._rep_marks: Optional[List[List[int]]] = None

    def index_of(self, access: WarpAccess) -> int:
        return self._index[id(access)]

    def span_of(self, access: WarpAccess) -> Tuple[int, int]:
        index = self._index[id(access)]
        return self.offsets_list[index], self.offsets_list[index + 1]

    def geometry_for(self, config: SystemConfig) -> _Geometry:
        stacks = config.stacks
        key = (
            config.messages.cache_line_bytes,
            stacks.row_bytes,
            stacks.stack_bits,
            stacks.vault_bits,
            stacks.banks_per_vault,
            stacks.vaults_per_stack,
        )
        geometry = self._geometries.get(key)
        if geometry is None:
            geometry = _Geometry(self.lines, config)
            self._geometries[key] = geometry
        return geometry

    def routing_for(
        self, mapping: AddressMapping, geometry: _Geometry
    ) -> Optional[_Routing]:
        """The shared routing for ``mapping``, or None when the mapping
        type is unknown (the lane then runs the scalar grouping path)."""
        key = self._mapping_key(mapping)
        if key is None:
            return None
        key = key + (id(geometry),)
        routing = self._routings.get(key)
        if routing is None:
            routing = _Routing(self, mapping, geometry)
            self._routings[key] = routing
        return routing

    @staticmethod
    def _mapping_key(mapping: AddressMapping) -> Optional[tuple]:
        base = (mapping.n_stacks, mapping.n_vaults, mapping.line_bits)
        if type(mapping) is BaselineMapping:
            return ("base", mapping._folds) + base
        if type(mapping) is ConsecutiveBitMapping:
            return ("consec", mapping.position) + base
        if type(mapping) is HybridMapping:
            return (
                "hybrid",
                mapping.learned.position,
                mapping.page_bits,
                tuple(sorted(mapping.candidate_pages)),
            ) + base
        return None

    def stripped_entry(self, entry):
        """``dataclasses.replace(entry, condition=None)`` memoized — the
        IDEAL policy strips the condition of every candidate instance's
        metadata entry; the controller treats entries read-only, so one
        stripped copy per entry is equivalent to one per decision."""
        stripped = self._stripped.get(id(entry))
        if stripped is None:
            stripped = dataclasses.replace(entry, condition=None)
            self._stripped[id(entry)] = stripped
        return stripped

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


# -- the lane simulator ------------------------------------------------------


class _LaneSimulator(Simulator):
    """One grid lane: the scalar :class:`Simulator` with its address
    routing and DRAM geometry read from the shared :class:`TracePack`
    plans instead of recomputed per access. Every override mirrors its
    scalar counterpart operation-for-operation (the planned DRAM entry
    points book in scalar order), so results are bit-identical. Partial
    off-chip subsets (some-but-not-all lines missed in cache) have no
    precomputed group split and fall through to the scalar path."""

    def __init__(
        self,
        trace: WorkloadTrace,
        config: SystemConfig,
        policy: RunPolicy,
        oracle_position: Optional[int],
        pack: TracePack,
        oracle_learned=None,
    ) -> None:
        super().__init__(
            trace, config, policy, oracle_position, oracle_learned=oracle_learned
        )
        assert not self._trace_on  # lockstep lanes bypass tracing
        self._pack = pack
        self._geom = pack.geometry_for(config)
        self._routing: Optional[_Routing] = None
        self._routing_mapping: Optional[AddressMapping] = None

    def _route(self) -> Optional[_Routing]:
        mapping = self.mapping
        if mapping is not self._routing_mapping:
            self._routing = self._pack.routing_for(mapping, self._geom)
            self._routing_mapping = mapping
        return self._routing

    # -- main-GPU accesses --------------------------------------------------

    def _main_access(self, sm, access: WarpAccess, learning: bool):
        lines = access.line_addresses
        line_ids = access.line_ids(self.line_bits)
        if access.is_store:
            sm.l1.store_all(line_ids)
            self.system.l2.store_all(line_ids)
            off_chip: Sequence[int] = lines
        else:
            miss_lines, miss_ids = sm.l1.load_misses(lines, line_ids)
            off_chip = []
            if miss_ids:
                off_chip, _ = self.system.l2.load_misses(miss_lines, miss_ids)
                if len(off_chip) < len(miss_lines):  # at least one L2 hit
                    yield Timeout(_L2_HIT_LATENCY)
        if not off_chip:
            return

        if learning:
            yield from self._pcie_access(off_chip, access)
            return

        engine = self.system.engine
        routing = self._route()
        total = len(off_chip)
        if routing is not None and total == len(lines):
            _first, groups = routing.plans[self._pack.index_of(access)]
            procs = [
                engine.process(self._planned_gpu_group(group, access, total))
                for group in groups
            ]
            yield AllOf(procs)
            return
        groups = self._group_by_stack(off_chip)
        procs = [
            engine.process(self._gpu_offchip_group(stack, group, access, total))
            for stack, group in groups.items()
        ]
        yield AllOf(procs)

    def _planned_gpu_group(self, group: tuple, access: WarpAccess, total_lines: int):
        stack = group[0]
        n = len(group[1])
        fabric = self.system.fabric
        packets = self.system.packets
        lanes = max(1, round(access.active_lanes * n / total_lines))
        if access.is_store:
            yield Acquire(fabric.tx[stack], packets.store_request(n, lanes))
        else:
            yield Acquire(fabric.tx[stack], packets.load_request(n))
        yield from self._planned_dram(stack, group)
        if access.is_store:
            yield Acquire(fabric.rx[stack], packets.store_ack(n))
        else:
            yield Acquire(fabric.rx[stack], packets.load_reply(n))

    def _planned_dram(self, stack: int, group: tuple):
        """:meth:`Simulator._dram_service` with routing and geometry
        read from the plan: same single/batch/scatter split, same
        booking order, same completion clamping."""
        _stack, glines, gvaults, grows, gbanks, same_vault = group
        line_bytes = self.config.messages.cache_line_bytes
        memory = self.system.stacks[stack]
        now = self.system.engine.now
        if len(glines) == 1:
            completion = memory.service(gvaults[0], glines[0], line_bytes)
            if completion < now:
                completion = now
        elif same_vault is not None:
            completion = memory.service_batch_planned(
                same_vault, glines, grows, gbanks, line_bytes
            )
            if completion < now:
                completion = now
        else:
            completion = memory.service_scatter_planned(
                gvaults, grows, gbanks, line_bytes
            )
        delay = completion - now
        if delay > 0:
            yield Timeout(delay)

    def _destination_for(self, segment: CandidateSegment) -> int:
        first = segment.accesses[0] if segment.accesses else None
        if first is None:
            return 0
        routing = self._route()
        if routing is None:
            return int(self.mapping.stack_of(first.line_addresses[0]))
        return routing.stacks[self._pack.span_of(first)[0]]

    # -- offload path -------------------------------------------------------

    def _candidate_segment(self, sm, segment: CandidateSegment):
        if id(segment) in self._learned_instance_ids:
            return  # executed during the learning pre-pass
        if not self.policy.offloads:
            yield from self._run_on_main(sm, segment)
            return

        entry = self.trace.metadata.lookup(segment.block_id)
        if self.policy.offload is OffloadPolicy.IDEAL:
            destination = self._ideal_rr % self.config.stacks.n_stacks
            self._ideal_rr += 1
            self.system.controller.decide(
                self._pack.stripped_entry(entry), destination, None
            )
            yield from self._run_offloaded(sm, segment, entry, destination, ideal=True)
            return

        destination = self._destination_for(segment)
        decision = self.system.controller.decide(
            entry, destination, segment.condition_value
        )
        yield Timeout(self.config.control.offload_decision_cycles)
        if decision.offload:
            yield from self._run_offloaded(sm, segment, entry, destination, ideal=False)
        else:
            yield from self._run_on_main(sm, segment)

    def _stack_access(self, stack_sm, home: int, access: WarpAccess, ideal: bool):
        lines = access.line_addresses
        line_ids = access.line_ids(self.line_bits)
        walk_procs = []
        if self.system.translations is not None and not ideal:
            walks = self.system.translations[home].translate(lines)
            engine = self.system.engine
            walk_procs = [
                engine.process(self._page_walk(home, walk)) for walk in walks
            ]

        if access.is_store:
            stack_sm.l1.store_all(line_ids)
            off_chip: Sequence[int] = lines
        else:
            off_chip, _ = stack_sm.l1.load_misses(lines, line_ids)
        if walk_procs:
            yield AllOf(walk_procs)
        if not off_chip:
            return
        total = len(off_chip)
        full = total == len(lines)
        if ideal:
            if full:
                yield from self._planned_dram_local(home, access)
            else:
                yield from self._dram_service_local(home, off_chip)
            return

        engine = self.system.engine
        routing = self._route()
        if routing is not None and full:
            _first, groups = routing.plans[self._pack.index_of(access)]
            procs = []
            for group in groups:
                if group[0] == home:
                    procs.append(engine.process(self._planned_dram(home, group)))
                else:
                    procs.append(
                        engine.process(
                            self._planned_remote_group(home, group, access, total)
                        )
                    )
            yield AllOf(procs)
            return
        groups = self._group_by_stack(off_chip)
        procs = []
        for stack, group in groups.items():
            if stack == home:
                procs.append(engine.process(self._dram_service(home, group)))
            else:
                procs.append(
                    engine.process(
                        self._remote_group(home, stack, group, access, total)
                    )
                )
        yield AllOf(procs)

    def _planned_dram_local(self, stack: int, access: WarpAccess):
        """:meth:`Simulator._dram_service_local` off the geometry plan:
        ideal-mode vault spread precomputed, same walk order."""
        start, end = self._pack.span_of(access)
        line_bytes = self.config.messages.cache_line_bytes
        memory = self.system.stacks[stack]
        now = self.system.engine.now
        geom = self._geom
        if end - start == 1:
            completion = memory.service(
                geom.ideal_vaults[start], self._pack.lines_list[start], line_bytes
            )
            if completion < now:
                completion = now
        else:
            completion = memory.service_scatter_planned(
                geom.ideal_vaults[start:end],
                geom.rows[start:end],
                geom.banks[start:end],
                line_bytes,
            )
        delay = completion - now
        if delay > 0:
            yield Timeout(delay)

    def _planned_remote_group(
        self, home: int, group: tuple, access: WarpAccess, total: int
    ):
        stack = group[0]
        n = len(group[1])
        fabric = self.system.fabric
        packets = self.system.packets
        lanes = max(1, round(access.active_lanes * n / total))
        if access.is_store:
            request = packets.store_request(n, lanes)
            reply = packets.store_ack(n)
        else:
            request = packets.load_request(n)
            reply = packets.load_reply(n)
        there, back = fabric.cross_pair(home, stack)
        yield Acquire(there, request)
        yield from self._planned_dram(stack, group)
        yield Acquire(back, reply)


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
    """Run every requested grid point over ``trace`` in lockstep.

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
                variant_trace._access_arrays_cache = trace.access_arrays()
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
                # Per-lane eviction: anything the lockstep path cannot
                # express (or an injected lane fault) falls back to the
                # scalar engine on the variant's own trace. Allocation
                # marks are idempotent, so a partial lane run followed
                # by the scalar replay matches a scalar-only sequence.
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

    result = _LaneSimulator(
        variant.trace,
        run_config,
        policy,
        request.oracle_position,
        pack,
        oracle_learned=oracle_learned,
    ).run()
    report.simulated += 1
    memo[fingerprint] = result
    return result
