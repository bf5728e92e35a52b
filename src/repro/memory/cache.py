"""Set-associative, write-through caches.

The GPU's L1 and L2 and the stack SMs' private caches are all
write-through (Section 4.4.2 leans on this for the coherence protocol:
"most GPUs employ write through caches"). Policy here:

* loads allocate on miss (LRU replacement);
* stores are write-through **no-allocate**: a store updates a line
  already present but does not fetch one that is absent — matching the
  paper's bandwidth equations, where a store always pushes its data
  off-chip and never generates a fill;
* ``invalidate``/``invalidate_all`` support the offload coherence steps
  (stack SM flushes before spawning an offloaded warp; the requesting
  SM invalidates the dirty lines listed in the offload ack).

Addresses are *line ids* (byte address >> line bits); callers coalesce
first. Dirty-line tracking records lines written since the last
``collect_dirty`` call, which the stack SM reports back in the ack.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Sequence, Set

from ..errors import ConfigError
from ..utils.bitops import is_power_of_two


@dataclass
class CacheStats:
    load_hits: int = 0
    load_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0
    invalidations: int = 0

    @property
    def loads(self) -> int:
        return self.load_hits + self.load_misses

    @property
    def load_miss_rate(self) -> float:
        return self.load_misses / self.loads if self.loads else 0.0


class Cache:
    """LRU set-associative cache over line ids."""

    def __init__(self, size_bytes: int, ways: int, line_bytes: int, name: str = "") -> None:
        if size_bytes % (ways * line_bytes):
            raise ConfigError(
                f"cache {name!r}: size {size_bytes} not divisible by "
                f"ways*line ({ways}*{line_bytes})"
            )
        self.name = name
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = size_bytes // (ways * line_bytes)
        if not is_power_of_two(self.n_sets):
            raise ConfigError(f"cache {name!r}: set count {self.n_sets} not a power of two")
        self._set_mask = self.n_sets - 1
        # each set: OrderedDict line_id -> True, LRU at the front
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.n_sets)]
        self.stats = CacheStats()
        self._dirty_since_collect: Set[int] = set()

    def _set_of(self, line_id: int) -> OrderedDict:
        return self._sets[line_id & self._set_mask]

    def load(self, line_id: int) -> bool:
        """Access for a load; returns hit, allocating on miss."""
        return self.load_batch((line_id,))[0]

    def load_batch(self, line_ids: Sequence[int]) -> List[bool]:
        """One warp access's loads, in lane order: per-line hit flags
        with exactly the LRU updates and stats the scalar loop produced.
        All sequencing state lives in locals; stats are folded in once."""
        sets = self._sets
        set_mask = self._set_mask
        ways = self.ways
        hits = 0
        misses = 0
        flags: List[bool] = []
        append = flags.append
        for line_id in line_ids:
            cache_set = sets[line_id & set_mask]
            if line_id in cache_set:
                cache_set.move_to_end(line_id)
                hits += 1
                append(True)
            else:
                misses += 1
                cache_set[line_id] = True
                if len(cache_set) > ways:
                    cache_set.popitem(last=False)
                append(False)
        self.stats.load_hits += hits
        self.stats.load_misses += misses
        return flags

    def load_misses(
        self, lines: Sequence[int], line_ids: Sequence[int]
    ) -> "tuple[List[int], List[int]]":
        """Fused variant of :meth:`load_batch` for the simulator's miss
        path: walks ``line_ids`` with the same LRU updates and stats and
        returns ``(miss_lines, miss_line_ids)`` — the entries of the
        parallel ``lines``/``line_ids`` sequences that missed, in access
        order — without materializing the hit-flag list."""
        sets = self._sets
        set_mask = self._set_mask
        ways = self.ways
        hits = 0
        miss_lines: List[int] = []
        miss_ids: List[int] = []
        for line, line_id in zip(lines, line_ids):
            cache_set = sets[line_id & set_mask]
            if line_id in cache_set:
                cache_set.move_to_end(line_id)
                hits += 1
            else:
                miss_lines.append(line)
                miss_ids.append(line_id)
                cache_set[line_id] = True
                if len(cache_set) > ways:
                    cache_set.popitem(last=False)
        self.stats.load_hits += hits
        self.stats.load_misses += len(miss_ids)
        return miss_lines, miss_ids

    def store(self, line_id: int) -> bool:
        """Access for a store (write-through no-allocate); returns hit."""
        return self.store_batch((line_id,))[0]

    def store_batch(self, line_ids: Sequence[int]) -> List[bool]:
        """One warp access's stores, in lane order (write-through
        no-allocate); per-line hit flags, bit-identical to scalar."""
        sets = self._sets
        set_mask = self._set_mask
        dirty = self._dirty_since_collect
        hits = 0
        misses = 0
        flags: List[bool] = []
        append = flags.append
        for line_id in line_ids:
            cache_set = sets[line_id & set_mask]
            dirty.add(line_id)
            if line_id in cache_set:
                cache_set.move_to_end(line_id)
                hits += 1
                append(True)
            else:
                misses += 1
                append(False)
        self.stats.store_hits += hits
        self.stats.store_misses += misses
        return flags

    def store_all(self, line_ids: Sequence[int]) -> None:
        """:meth:`store_batch` without materializing the hit-flag list —
        the simulator's write-through store path discards the flags.
        State and stats updates are identical to :meth:`store_batch`."""
        sets = self._sets
        set_mask = self._set_mask
        dirty = self._dirty_since_collect
        hits = 0
        misses = 0
        for line_id in line_ids:
            cache_set = sets[line_id & set_mask]
            dirty.add(line_id)
            if line_id in cache_set:
                cache_set.move_to_end(line_id)
                hits += 1
            else:
                misses += 1
        self.stats.store_hits += hits
        self.stats.store_misses += misses

    def contains(self, line_id: int) -> bool:
        return line_id in self._set_of(line_id)

    def invalidate(self, line_id: int) -> bool:
        cache_set = self._set_of(line_id)
        if line_id in cache_set:
            del cache_set[line_id]
            self.stats.invalidations += 1
            return True
        return False

    def invalidate_all(self) -> int:
        count = sum(len(s) for s in self._sets)
        for cache_set in self._sets:
            cache_set.clear()
        self.stats.invalidations += count
        return count

    def collect_dirty(self) -> Set[int]:
        """Lines written since the previous collection — the dirty-line
        address list the stack SM ships home in the offload ack."""
        dirty = self._dirty_since_collect
        self._dirty_since_collect = set()
        return dirty

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)
