"""Physical address -> (memory stack, vault) mappings.

Three mapping families from the paper:

* :class:`BaselineMapping` — the state-of-the-art GPU mapping of
  Chatterjee et al. [9]: consecutive cache lines are spread round-robin
  across stacks and vaults to maximize bandwidth and load balance, with
  a higher-order-bit XOR fold (Zhang et al. [61]) to break pathological
  power-of-two strides.
* :class:`ConsecutiveBitMapping` — TOM's simple mapping: the stack
  index is a field of consecutive address bits at a chosen position
  (swept over bits 7..16 in a 4-stack system). Picking the position at
  or below the common power-of-two factor of a block's access offsets
  keeps all its accesses in one stack (Section 3.2.1).
* :class:`HybridMapping` — the programmer-transparent data mapping
  (tmap): allocations that offloading candidates touch use the learned
  consecutive-bit mapping; everything else keeps the baseline mapping
  that favors main-GPU bandwidth.

All functions accept either scalar integer byte addresses or numpy
arrays of them, and operate at cache-line granularity (mapping bits
never slice the line offset).
"""

from __future__ import annotations

from typing import AbstractSet, List, Optional, Sequence, Union

import numpy as np

from ..config import SystemConfig
from ..errors import ConfigError
from ..utils.bitops import bit_slice, ilog2

Address = Union[int, np.ndarray]


class AddressMapping:
    """Interface: byte address -> stack index and vault index."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.n_stacks = config.stacks.n_stacks
        self.n_vaults = config.stacks.vaults_per_stack
        self.stack_bits = config.stacks.stack_bits
        self.vault_bits = config.stacks.vault_bits
        self.line_bits = ilog2(config.messages.cache_line_bytes)

    def stack_of(self, address: Address) -> Address:
        raise NotImplementedError

    def vault_of(self, address: Address) -> Address:
        raise NotImplementedError

    # Batch routing: one call per coalesced access group instead of one
    # per line. The default loops over the scalar hooks; the concrete
    # mappings override with flat arithmetic loops — for the short
    # (1-32 line) groups the simulator routes, a plain Python loop over
    # native ints beats ufunc dispatch on a freshly built array.

    def stack_of_many(self, addresses: Sequence[int]) -> List[int]:
        """Stack index of every address, in order."""
        stack_of = self.stack_of
        return [int(stack_of(address)) for address in addresses]

    def vault_of_many(self, addresses: Sequence[int]) -> List[int]:
        """Vault index of every address, in order."""
        vault_of = self.vault_of
        return [int(vault_of(address)) for address in addresses]

    def location(self, address: int) -> tuple:
        return int(self.stack_of(address)), int(self.vault_of(address))

    def describe(self) -> str:
        raise NotImplementedError


class BaselineMapping(AddressMapping):
    """Chatterjee et al. [9]-style mapping with XOR permutation [61].

    Line index bits directly above the cache-line offset select the
    stack (so consecutive lines hit different stacks), the next bits
    select the vault, and a fold of higher-order bits is XORed into the
    stack index to avoid stride conflicts.
    """

    #: line-index bit positions of the higher-order fields XORed into
    #: the stack index (Zhang et al. [61]); spread out so strides with
    #: large power-of-two factors still permute across stacks
    _FOLD_POSITIONS = (9, 13, 17)

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(config)
        self._folds = self._FOLD_POSITIONS[: config.mapping.xor_folds]
        self._stack_mask = (1 << self.stack_bits) - 1
        self._vault_mask = (1 << self.vault_bits) - 1

    def stack_of(self, address: Address) -> Address:
        line = address >> self.line_bits
        index = bit_slice(line, 0, self.stack_bits)
        for position in self._folds:
            index = index ^ bit_slice(line, position, self.stack_bits)
        return index

    def vault_of(self, address: Address) -> Address:
        line = address >> self.line_bits
        return bit_slice(line, self.stack_bits, self.vault_bits)

    def stack_of_many(self, addresses: Sequence[int]) -> List[int]:
        line_bits = self.line_bits
        mask = self._stack_mask
        folds = self._folds
        out: List[int] = []
        append = out.append
        for address in addresses:
            line = address >> line_bits
            index = line & mask
            for position in folds:
                index ^= (line >> position) & mask
            append(index)
        return out

    def vault_of_many(self, addresses: Sequence[int]) -> List[int]:
        shift = self.line_bits + self.stack_bits
        mask = self._vault_mask
        return [(address >> shift) & mask for address in addresses]

    def describe(self) -> str:
        return (
            f"baseline[line-interleaved, stack bits {self.line_bits}:"
            f"{self.line_bits + self.stack_bits} xor-folded]"
        )


class ConsecutiveBitMapping(AddressMapping):
    """TOM's mapping: stack index = address bits [position, position+stack_bits).

    ``position`` is a *byte-address* bit index and must not slice the
    cache-line offset (Section 3.2.1 keeps line offset bits out of the
    stack index to preserve link efficiency and row locality).
    """

    def __init__(self, config: SystemConfig, position: int) -> None:
        super().__init__(config)
        if position < self.line_bits:
            raise ConfigError(
                f"stack-index bit position {position} would slice the "
                f"cache-line offset (line bits = {self.line_bits})"
            )
        self.position = position

    def stack_of(self, address: Address) -> Address:
        return bit_slice(address, self.position, self.stack_bits)

    def vault_of(self, address: Address) -> Address:
        # Vault from the line-index bits directly above the line offset,
        # skipping the stack field when it sits there.
        line = address >> self.line_bits
        low = 0
        if self.position == self.line_bits:
            low = self.stack_bits
        return bit_slice(line, low, self.vault_bits)

    def stack_of_many(self, addresses: Sequence[int]) -> List[int]:
        position = self.position
        mask = (1 << self.stack_bits) - 1
        return [(address >> position) & mask for address in addresses]

    def vault_of_many(self, addresses: Sequence[int]) -> List[int]:
        shift = self.line_bits
        if self.position == self.line_bits:
            shift += self.stack_bits
        mask = (1 << self.vault_bits) - 1
        return [(address >> shift) & mask for address in addresses]

    def describe(self) -> str:
        return f"consecutive-bit[{self.position}:{self.position + self.stack_bits}]"


class HybridMapping(AddressMapping):
    """tmap: learned mapping for candidate-touched pages, baseline for
    the rest. Page membership is provided as a set of page indices by
    the programmer-transparent data-mapping runtime."""

    def __init__(
        self,
        config: SystemConfig,
        learned: ConsecutiveBitMapping,
        candidate_pages: Optional[AbstractSet[int]] = None,
    ) -> None:
        super().__init__(config)
        self.learned = learned
        self.baseline = BaselineMapping(config)
        self.candidate_pages = candidate_pages if candidate_pages is not None else set()
        self.page_bits = ilog2(config.mapping.page_bytes)
        self._page_lut: Optional[np.ndarray] = None

    def _is_candidate(self, address: Address) -> Address:
        page = address >> self.page_bits
        if isinstance(page, np.ndarray):
            if not self.candidate_pages:
                return np.zeros(page.shape, dtype=bool)
            # The page set is fixed at construction; the sorted lookup
            # table is built once and reused by every routed access.
            lut = self._page_lut
            if lut is None or lut.size != len(self.candidate_pages):
                lut = np.array(sorted(self.candidate_pages), dtype=np.int64)
                self._page_lut = lut
            idx = np.searchsorted(lut, page)
            idx = np.clip(idx, 0, len(lut) - 1)
            return lut[idx] == page
        return page in self.candidate_pages

    def stack_of(self, address: Address) -> Address:
        mask = self._is_candidate(address)
        if isinstance(address, np.ndarray):
            return np.where(
                mask, self.learned.stack_of(address), self.baseline.stack_of(address)
            )
        return self.learned.stack_of(address) if mask else self.baseline.stack_of(address)

    def vault_of(self, address: Address) -> Address:
        mask = self._is_candidate(address)
        if isinstance(address, np.ndarray):
            return np.where(
                mask, self.learned.vault_of(address), self.baseline.vault_of(address)
            )
        return self.learned.vault_of(address) if mask else self.baseline.vault_of(address)

    def stack_of_many(self, addresses: Sequence[int]) -> List[int]:
        pages = self.candidate_pages
        if not pages:
            return self.baseline.stack_of_many(addresses)
        page_bits = self.page_bits
        position = self.learned.position
        stack_mask = (1 << self.stack_bits) - 1
        line_bits = self.line_bits
        folds = self.baseline._folds
        out: List[int] = []
        append = out.append
        for address in addresses:
            if (address >> page_bits) in pages:
                append((address >> position) & stack_mask)
            else:
                line = address >> line_bits
                index = line & stack_mask
                for fold in folds:
                    index ^= (line >> fold) & stack_mask
                append(index)
        return out

    def vault_of_many(self, addresses: Sequence[int]) -> List[int]:
        pages = self.candidate_pages
        if not pages:
            return self.baseline.vault_of_many(addresses)
        page_bits = self.page_bits
        vault_mask = (1 << self.vault_bits) - 1
        learned_shift = self.line_bits
        if self.learned.position == self.line_bits:
            learned_shift += self.stack_bits
        baseline_shift = self.line_bits + self.stack_bits
        out: List[int] = []
        append = out.append
        for address in addresses:
            if (address >> page_bits) in pages:
                append((address >> learned_shift) & vault_mask)
            else:
                append((address >> baseline_shift) & vault_mask)
        return out

    def describe(self) -> str:
        return (
            f"hybrid[{self.learned.describe()} on {len(self.candidate_pages)} "
            f"candidate pages, baseline elsewhere]"
        )


def sweep_positions(config: SystemConfig) -> List[int]:
    """Bit positions evaluated by the memory-map analyzer (bits 7..16
    by default: 128 B cache line up to 64 KB granularity, Section 3.2.1)."""
    return list(range(config.mapping.sweep_low_bit, config.mapping.sweep_high_bit + 1))


def all_consecutive_mappings(config: SystemConfig) -> List[ConsecutiveBitMapping]:
    """One mapping per sweep position — the analyzer's candidate set."""
    return [ConsecutiveBitMapping(config, pos) for pos in sweep_positions(config)]
