"""The memory allocation table (Section 4.3, step 1).

With programmer-transparent data mapping, the GPU driver records every
``cudaMalloc``-style allocation in a table; during the learning phase
the memory-map analyzer marks the ranges that offloading candidates
touch, and at copy time those ranges — and only those — are placed with
the learned mapping. The paper provisions 100 entries of 97 bits each
(48-bit start, 48-bit length, 1 candidate bit); Section 6.6 charges
9,700 bits of storage for it.

The table here holds the allocations only and is read-only once the
trace is built: the candidate bit belongs to one program run, so each
run's analyzer (:class:`repro.ndp.analyzer.MemoryMapAnalyzer`) keeps its
own marks, and runs sharing a trace never see each other's.

This module doubles as the library's *allocator* for workload arrays:
allocations are page-aligned and laid out sequentially, so the distance
between two array bases always has a large power-of-two factor — the
property Section 3.2.1's fixed-offset analysis relies on.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import AllocationError
from ..utils.bitops import align_up

#: Paper-provisioned limits (Section 6.6).
MAX_ENTRIES = 100
ENTRY_BITS = 97
TABLE_BITS = MAX_ENTRIES * ENTRY_BITS


@dataclass(frozen=True)
class AllocationRange:
    """One recorded allocation."""

    name: str
    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end


class MemoryAllocationTable:
    """Driver-side allocation record + bump allocator for workloads."""

    def __init__(self, page_bytes: int = 4096, base_address: int = 1 << 28) -> None:
        self.page_bytes = page_bytes
        self._page_shift = page_bytes.bit_length() - 1
        if (1 << self._page_shift) != page_bytes:
            self._page_shift = None  # non-power-of-two pages: memo disabled
        self._next = align_up(base_address, page_bytes)
        self._ranges: List[AllocationRange] = []
        self._by_name: Dict[str, AllocationRange] = {}
        # The bump allocator appends in ascending address order, so
        # ``_starts`` mirrors ``_ranges`` and stays sorted; ``lookup``
        # bisects it instead of scanning. ``_page_memo`` caches the
        # range (or None) intersecting each queried page — guard pages
        # guarantee no two ranges share a page, so one entry suffices.
        self._starts: List[int] = []
        self._page_memo: Dict[int, Optional[AllocationRange]] = {}

    def allocate(self, name: str, length: int, guard_pages: int = 1) -> AllocationRange:
        """Reserve ``length`` bytes, page-aligned, with ``guard_pages``
        unmapped pages after it (so arrays never share a page and the
        inter-array distances stay power-of-two friendly)."""
        if length <= 0:
            raise AllocationError(f"allocation {name!r} needs positive size")
        if name in self._by_name:
            raise AllocationError(f"allocation {name!r} already exists")
        if len(self._ranges) >= MAX_ENTRIES:
            raise AllocationError(
                f"allocation table full ({MAX_ENTRIES} entries, Section 6.6)"
            )
        entry = AllocationRange(name=name, start=self._next, length=length)
        self._ranges.append(entry)
        self._by_name[name] = entry
        self._starts.append(entry.start)
        self._page_memo.clear()  # negative entries may now be stale
        self._next = align_up(entry.end, self.page_bytes) + guard_pages * self.page_bytes
        return entry

    def lookup(self, address: int) -> Optional[AllocationRange]:
        """Range containing ``address`` — O(log n) bisect on the sorted
        starts, memoized per page.

        The memo caches the range *intersecting* the queried page (not
        the result for the queried address): a range may end mid-page,
        and caching a miss from the uncovered tail would wrongly shadow
        later hits on the covered head of the same page."""
        shift = self._page_shift
        if shift is not None:
            page = address >> shift
            try:
                entry = self._page_memo[page]
            except KeyError:
                entry = self._range_intersecting_page(page)
                self._page_memo[page] = entry
            if entry is not None and entry.contains(address):
                return entry
            return None
        return self._lookup_bisect(address)

    def _range_intersecting_page(self, page: int) -> Optional[AllocationRange]:
        """The unique range overlapping ``page``, or None. Starts are
        page-aligned and guard pages keep ranges from sharing a page,
        so the only candidate is the last range starting at or before
        the page's end."""
        shift = self._page_shift
        page_start = page << shift
        index = bisect_right(self._starts, page_start + self.page_bytes - 1) - 1
        if index < 0:
            return None
        entry = self._ranges[index]
        return entry if entry.end > page_start else None

    def _lookup_bisect(self, address: int) -> Optional[AllocationRange]:
        index = bisect_right(self._starts, address) - 1
        if index < 0:
            return None
        entry = self._ranges[index]
        return entry if entry.contains(address) else None

    def __getitem__(self, name: str) -> AllocationRange:
        try:
            return self._by_name[name]
        except KeyError:
            raise AllocationError(f"no allocation named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._ranges)

    def __iter__(self):
        return iter(self._ranges)

    @property
    def storage_bits(self) -> int:
        return TABLE_BITS
