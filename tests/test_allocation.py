"""Tests for the memory allocation table (Section 4.3 / 6.6)."""

import pytest

from repro import ndp_config
from repro.errors import AllocationError
from repro.gpu.warp import CandidateSegment, WarpAccess
from repro.memory.allocation import (
    ENTRY_BITS,
    MAX_ENTRIES,
    TABLE_BITS,
    MemoryAllocationTable,
)
from repro.ndp.analyzer import MemoryMapAnalyzer


class TestAllocation:
    def test_page_alignment(self):
        table = MemoryAllocationTable(page_bytes=4096)
        a = table.allocate("a", 1000)
        b = table.allocate("b", 5000)
        assert a.start % 4096 == 0
        assert b.start % 4096 == 0
        assert b.start >= a.end

    def test_guard_pages_separate_arrays(self):
        table = MemoryAllocationTable(page_bytes=4096)
        a = table.allocate("a", 4096, guard_pages=2)
        b = table.allocate("b", 4096)
        assert b.start - a.end >= 2 * 4096

    def test_lookup(self):
        table = MemoryAllocationTable()
        a = table.allocate("a", 8192)
        assert table.lookup(a.start) is a
        assert table.lookup(a.start + 8191) is a
        assert table.lookup(a.end) is not a

    def test_named_access(self):
        table = MemoryAllocationTable()
        table.allocate("weights", 4096)
        assert table["weights"].length == 4096
        assert "weights" in table
        assert "other" not in table
        with pytest.raises(AllocationError):
            table["other"]

    def test_duplicate_name_rejected(self):
        table = MemoryAllocationTable()
        table.allocate("x", 100)
        with pytest.raises(AllocationError):
            table.allocate("x", 100)

    def test_zero_size_rejected(self):
        with pytest.raises(AllocationError):
            MemoryAllocationTable().allocate("x", 0)

    def test_table_capacity_is_100(self):
        table = MemoryAllocationTable()
        for i in range(MAX_ENTRIES):
            table.allocate(f"a{i}", 4096)
        with pytest.raises(AllocationError):
            table.allocate("overflow", 4096)

    def test_iteration_order(self):
        table = MemoryAllocationTable()
        names = ["x", "y", "z"]
        for name in names:
            table.allocate(name, 4096)
        assert [entry.name for entry in table] == names
        assert len(table) == 3


def _learned_pages(table, addresses):
    """Candidate pages one analyzer learns from a single instance that
    touches ``addresses`` (the candidate bit lives in the analyzer)."""
    segment = CandidateSegment(
        block_id=0,
        n_instructions=1,
        accesses=tuple(WarpAccess(0, False, (a,)) for a in addresses),
    )
    analyzer = MemoryMapAnalyzer(ndp_config(), table)
    analyzer.observe(segment)
    return analyzer.best_mapping().candidate_pages


class TestCandidateMarking:
    def test_mark_sets_flag(self):
        table = MemoryAllocationTable()
        a = table.allocate("a", 8192)
        table.allocate("b", 8192)
        pages = _learned_pages(table, [a.start + 100])
        assert pages == {a.start // 4096, a.start // 4096 + 1}

    def test_mark_outside_any_range(self):
        table = MemoryAllocationTable()
        table.allocate("a", 4096)
        assert _learned_pages(table, [1 << 12]) == frozenset()

    def test_candidate_pages_cover_range(self):
        table = MemoryAllocationTable(page_bytes=4096)
        a = table.allocate("a", 3 * 4096 + 1)
        pages = _learned_pages(table, [a.start])
        assert len(pages) == 4
        assert a.start // 4096 in pages
        assert (a.end - 1) // 4096 in pages

    def test_unmarked_table_has_no_pages(self):
        """Marking leaves the table itself untouched: a second analyzer
        over the same table starts from no marks."""
        table = MemoryAllocationTable()
        a = table.allocate("a", 4096)
        table.allocate("b", 4096)
        assert _learned_pages(table, [a.start])
        assert _learned_pages(table, [1 << 12]) == frozenset()


class TestStorageAccounting:
    def test_paper_numbers(self):
        assert ENTRY_BITS == 97
        assert MAX_ENTRIES == 100
        assert TABLE_BITS == 9700
        assert MemoryAllocationTable().storage_bits == 9700
