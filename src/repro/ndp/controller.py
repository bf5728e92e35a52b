"""The Offload Controller (component 1 in Figure 7) with dynamic
offloading-aggressiveness control — implements Section 3.3 (and the
Section 4.2 hardware realization of its three checks).

For every candidate-block instance the controller makes the final
offload decision in three steps (Section 4.2, 'Dynamic offloading
decision'):

1. **Condition check** — a conditional candidate (runtime-known loop
   trip count) is offloaded only when its condition register value
   reaches the compiler's break-even threshold.
2. **Channel check** — a candidate whose 2-bit tag says it adds
   traffic to a TX/RX channel the busy monitor reports saturated is
   not offloaded.
3. **Pending-count check** — the controller tracks in-flight offloads
   per memory stack and refuses new ones once the count reaches the
   stack SM's concurrent-warp limit, preventing the over-offloading
   collapse of uncontrolled NDP (the `no-ctrl` bars of Figure 8).

With dynamic control disabled (`NDP-Uncontrolled`) only the condition
check applies: the paper's no-ctrl policy still respects conditional
candidates but offloads everything else blindly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..compiler.metadata import MetadataEntry
from ..config import SystemConfig
from ..errors import SimulationError
from ..obs.recorder import NULL_RECORDER
from .monitor import ChannelBusyMonitor


#: Which ``ControlConfig`` fields each code path reads, grouped by the
#: condition under which the read happens. The grid driver
#: (:mod:`repro.core.gridrun`) uses these sets to null out the fields a
#: lane's policy can never observe before fingerprinting its config for
#: cross-variant deduplication — keep them in sync with the readers:
#: ``_decide`` below, :class:`~repro.ndp.monitor.ChannelBusyMonitor`,
#: :class:`~repro.core.system._IssueBacklogSignal`,
#: :class:`~repro.ndp.coherence.CoherenceProtocol`, and
#: :class:`~repro.mapping.transparent.TransparentDataMapping`.
#: Read whenever the policy offloads with a real (non-IDEAL) decision
#: path: the condition check, the decision latency, and the coherence
#: invalidation charges.
CONTROL_FIELDS_OFFLOAD = (
    "respect_conditions",
    "offload_decision_cycles",
    "coherence_invalidate_cycles",
)
#: Read only under dynamic aggressiveness control (``CONTROLLED``).
CONTROL_FIELDS_DYNAMIC = (
    "channel_busy_threshold",
    "monitor_window_cycles",
    "alu_aware_control",
    "alu_fraction_threshold",
)
#: Read only by the tmap learning runtime (``learn_fraction`` /
#: ``min_learn_instances`` size the learning phase,
#: ``min_learned_colocation`` gates the hybrid-mapping switch).
CONTROL_FIELDS_LEARNING = (
    "learn_fraction",
    "min_learn_instances",
    "min_learned_colocation",
)


class DecisionReason(enum.Enum):
    """Why the controller offloaded or refused a candidate instance."""

    OFFLOADED = "offloaded"
    CONDITION_FALSE = "condition_false"
    TX_BUSY = "tx_busy"
    RX_BUSY = "rx_busy"
    STACK_COMPUTE_BUSY = "stack_compute_busy"
    STACK_FULL = "stack_full"
    NOT_CANDIDATE = "not_candidate"
    DISABLED = "ndp_disabled"


@dataclass(frozen=True)
class OffloadDecision:
    offload: bool
    reason: DecisionReason
    destination: Optional[int] = None


class OffloadController:
    """Per-GPU controller; one instance serves all SMs (the paper puts
    one in each SM, but the state they keep — pending counts per stack —
    is logically shared, so a single object is equivalent)."""

    def __init__(
        self,
        config: SystemConfig,
        monitor: Optional[ChannelBusyMonitor],
        dynamic_control: bool,
        issue_monitors: Optional[List] = None,
        recorder=NULL_RECORDER,
    ) -> None:
        self.config = config
        self.monitor = monitor
        self.dynamic_control = dynamic_control
        #: per-stack windowed utilization of the stack SM issue pipeline,
        #: present only when ALU-aware control (Section 6.4) is enabled
        self.issue_monitors = issue_monitors
        self.pending: List[int] = [0] * config.stacks.n_stacks
        self.max_pending = config.stack_warp_slots * config.stacks.sms_per_stack
        self.decisions: Dict[DecisionReason, int] = {r: 0 for r in DecisionReason}
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        self._trace_on = self._recorder.enabled

    def decide(
        self,
        entry: MetadataEntry,
        destination: int,
        condition_value: Optional[int],
    ) -> OffloadDecision:
        """The three-step dynamic decision of Section 4.2."""
        decision = self._decide(entry, destination, condition_value)
        if self._trace_on:
            self._recorder.decision(
                entry.block_id, destination, decision.reason.value, condition_value
            )
        return decision

    def _decide(
        self,
        entry: MetadataEntry,
        destination: int,
        condition_value: Optional[int],
    ) -> OffloadDecision:
        if not 0 <= destination < len(self.pending):
            raise SimulationError(f"offload destination {destination} out of range")

        if entry.condition is not None and self.config.control.respect_conditions:
            if condition_value is None or condition_value < entry.condition.min_iterations:
                return self._record(DecisionReason.CONDITION_FALSE)

        if self.dynamic_control:
            if self.monitor is not None:
                if not entry.saves_tx and self.monitor.tx_busy(destination):
                    return self._record(DecisionReason.TX_BUSY)
                if not entry.saves_rx and self.monitor.rx_busy(destination):
                    return self._record(DecisionReason.RX_BUSY)
            if (
                self.config.control.alu_aware_control
                and self.issue_monitors is not None
                and entry.alu_fraction
                >= self.config.control.alu_fraction_threshold
                and self.issue_monitors[destination].utilization()
                >= self.config.control.channel_busy_threshold
            ):
                return self._record(DecisionReason.STACK_COMPUTE_BUSY)
            if self.pending[destination] >= self.max_pending:
                return self._record(DecisionReason.STACK_FULL)

        self.pending[destination] += 1
        return self._record(DecisionReason.OFFLOADED, destination)

    def complete(self, destination: int) -> None:
        """Called when an offload ack arrives back at the GPU."""
        if self.pending[destination] <= 0:
            raise SimulationError(
                f"offload completion for stack {destination} with none pending"
            )
        self.pending[destination] -= 1

    def _record(
        self, reason: DecisionReason, destination: Optional[int] = None
    ) -> OffloadDecision:
        self.decisions[reason] += 1
        return OffloadDecision(
            offload=(reason is DecisionReason.OFFLOADED),
            reason=reason,
            destination=destination,
        )

    @property
    def total_offloaded(self) -> int:
        return self.decisions[DecisionReason.OFFLOADED]

    @property
    def total_considered(self) -> int:
        return sum(self.decisions.values())

    def decision_summary(self) -> Dict[str, int]:
        return {reason.value: count for reason, count in self.decisions.items() if count}
