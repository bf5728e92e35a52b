"""Warp-level memory-access coalescing.

The load-store unit merges the 32 per-lane addresses of one warp memory
instruction into unique cache-line requests. The compiler's cost model
assumes perfect coalescing (ratio 1); the simulator uses the *actual*
ratio produced here, which is where aggressive candidates can fail to
pay off (footnote 2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

import numpy as np

from ..errors import TraceError
from ..utils.bitops import ilog2


@dataclass(frozen=True)
class CoalescedAccess:
    """Unique line-start byte addresses touched by one warp instruction.

    ``line_ids`` carries the corresponding line ids (address shifted
    right by the coalescer's line bits) — the merge computes them
    anyway, and handing them to the trace keeps the simulator from
    re-deriving them per access at run time."""

    line_addresses: Tuple[int, ...]
    active_lanes: int
    line_ids: Tuple[int, ...] = ()

    @property
    def n_lines(self) -> int:
        return len(self.line_addresses)

    @property
    def coalescing_ratio(self) -> float:
        """Lines per warp access (1.0 = perfectly coalesced)."""
        return self.n_lines


class Coalescer:
    """Line merging for one trace build; also accumulates stats.

    The coalescer interns what it hands out: every line id and every
    line address is one int object per distinct line, shared by all
    accesses that touch it. Traces revisit the same lines many times
    (BFS at MEDIUM: 374,449 line references, 134,515 distinct lines),
    so this holds each distinct line once. The tables live as long as
    the coalescer — ``build_trace`` drops it when it returns.
    """

    def __init__(self, line_bytes: int) -> None:
        self.line_bytes = line_bytes
        self.line_bits = ilog2(line_bytes)
        self.warp_accesses = 0
        self.total_lines = 0
        self._ids: Dict[int, int] = {}
        self._addresses: Dict[int, int] = {}

    def coalesce(
        self, lane_addresses: Union[np.ndarray, List[int]]
    ) -> CoalescedAccess:
        """Merge per-lane byte addresses into unique line addresses.

        ``lane_addresses`` holds one byte address per active lane
        (inactive lanes are simply absent) — either an ndarray or an
        already-native list (the patterns' ``lane_address_list`` fast
        path). A warp has at most 32 lanes, so the merge runs as plain
        Python over native ints — a set + sort; at this size that
        beats ``np.unique`` and the extra ufunc round-trips by a wide
        margin, and produces the same sorted unique lines.
        """
        if isinstance(lane_addresses, np.ndarray):
            addresses = lane_addresses.tolist()
        else:
            addresses = lane_addresses
        if not addresses:
            raise TraceError("coalescing an access with no active lanes")
        line_bits = self.line_bits
        lines = sorted({address >> line_bits for address in addresses})
        # Arithmetic shift keeps the sign, so the smallest line is
        # negative exactly when some address was.
        if lines[0] < 0:
            raise TraceError("negative address in warp access")
        self.warp_accesses += 1
        self.total_lines += len(lines)
        line_ids, line_addresses = self.intern(lines)
        return CoalescedAccess(
            line_addresses=line_addresses,
            active_lanes=len(addresses),
            line_ids=line_ids,
        )

    def intern(
        self, lines: List[int]
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``(line ids, line addresses)`` for the line ids ``lines``,
        each entry this coalescer's one int object for that line."""
        ids = self._ids
        addresses = self._addresses
        line_bits = self.line_bits
        return (
            tuple([ids.setdefault(line, line) for line in lines]),
            tuple([addresses.setdefault(line, line << line_bits) for line in lines]),
        )

    @property
    def average_ratio(self) -> float:
        if self.warp_accesses == 0:
            return 0.0
        return self.total_lines / self.warp_accesses
