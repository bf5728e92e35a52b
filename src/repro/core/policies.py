"""Run policies: which offload and mapping mechanisms are active.

The evaluation grid of the paper (Section 6) is the cross product of

* offload policy — ``NONE`` (baseline GPU, 68 SMs), ``UNCONTROLLED``
  (offload every candidate; `no-ctrl`), ``CONTROLLED`` (dynamic
  aggressiveness control; `ctrl`), and ``IDEAL`` (Figure 2's zero-cost,
  perfectly co-located offload with unbounded stack compute);
* mapping policy — ``BMAP`` (baseline Chatterjee-style mapping),
  ``TMAP`` (programmer-transparent data mapping with its learning
  phase), and ``ORACLE`` (Figure 3's best consecutive-bit mapping
  chosen with oracle knowledge of the whole trace).

`TOM` == ``CONTROLLED`` + ``TMAP``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from ..errors import ConfigError


class OffloadPolicy(enum.Enum):
    NONE = "none"
    UNCONTROLLED = "no-ctrl"
    CONTROLLED = "ctrl"
    IDEAL = "ideal"


class MappingPolicy(enum.Enum):
    BMAP = "bmap"
    TMAP = "tmap"
    ORACLE = "oracle"


@dataclass(frozen=True)
class RunPolicy:
    """One point of the evaluation grid."""

    offload: OffloadPolicy
    mapping: MappingPolicy

    def __post_init__(self) -> None:
        if self.offload is OffloadPolicy.NONE and self.mapping is MappingPolicy.TMAP:
            raise ConfigError(
                "tmap needs offloading candidates at run time; the baseline "
                "GPU runs bmap"
            )

    @cached_property
    def label(self) -> str:
        """The policy's external name, formatted once per instance (kept
        in the instance dict; equality, hashing and repr see only the
        two fields)."""
        if self.offload is OffloadPolicy.NONE:
            return "baseline"
        return f"{self.offload.value}+{self.mapping.value}"

    @property
    def offloads(self) -> bool:
        return self.offload is not OffloadPolicy.NONE

    @property
    def dynamic_control(self) -> bool:
        return self.offload is OffloadPolicy.CONTROLLED


#: The named policies used throughout the benchmarks.
BASELINE = RunPolicy(OffloadPolicy.NONE, MappingPolicy.BMAP)
NDP_NOCTRL_BMAP = RunPolicy(OffloadPolicy.UNCONTROLLED, MappingPolicy.BMAP)
NDP_NOCTRL_TMAP = RunPolicy(OffloadPolicy.UNCONTROLLED, MappingPolicy.TMAP)
NDP_CTRL_BMAP = RunPolicy(OffloadPolicy.CONTROLLED, MappingPolicy.BMAP)
NDP_CTRL_TMAP = RunPolicy(OffloadPolicy.CONTROLLED, MappingPolicy.TMAP)
TOM = NDP_CTRL_TMAP
IDEAL_NDP = RunPolicy(OffloadPolicy.IDEAL, MappingPolicy.BMAP)
NDP_CTRL_ORACLE = RunPolicy(OffloadPolicy.CONTROLLED, MappingPolicy.ORACLE)
#: Figure 3's motivation study predates the dynamic-control mechanism
#: (footnote 9: those experiments do not include all proposed
#: mechanisms), so it compares oracle vs. baseline mapping on the
#: *uncontrolled* NDP system.
NDP_NOCTRL_ORACLE = RunPolicy(OffloadPolicy.UNCONTROLLED, MappingPolicy.ORACLE)

FIGURE8_GRID = (
    NDP_NOCTRL_BMAP,
    NDP_NOCTRL_TMAP,
    NDP_CTRL_BMAP,
    NDP_CTRL_TMAP,
)

#: Every named policy, and the label -> policy registry the CLI resolves
#: user-supplied labels through. Labels are the canonical external
#: names (``baseline``, ``ctrl+tmap``, ...); keep this the single
#: source of truth so the CLI ``--policy`` choices and the result-cache
#: keys can never disagree.
ALL_POLICIES = (
    BASELINE,
    NDP_NOCTRL_BMAP,
    NDP_NOCTRL_TMAP,
    NDP_CTRL_BMAP,
    NDP_CTRL_TMAP,
    IDEAL_NDP,
    NDP_CTRL_ORACLE,
    NDP_NOCTRL_ORACLE,
)

POLICIES_BY_LABEL = {policy.label: policy for policy in ALL_POLICIES}
