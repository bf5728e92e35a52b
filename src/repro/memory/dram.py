"""Vault-level DRAM timing for the 3D memory stacks.

Each stack has 16 vaults; each vault controller serves line-sized
requests serially at its share of the stack's internal bandwidth
(Table 1: 160 GB/s per stack / 16 vaults). A per-vault open row gives
FR-FCFS-flavoured behaviour at trace fidelity: a request to the open
row streams at full bandwidth; a row switch charges an activate penalty
(modelled as extra occupancy) and counts one activation for the energy
model (11.8 nJ per 4 KB row, Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..config import SystemConfig
from ..errors import SimulationError
from ..utils.bitops import ilog2
from ..utils.simcore import Engine


@dataclass
class VaultStats:
    requests: int = 0
    row_hits: int = 0
    activations: int = 0
    bytes_served: int = 0


class Vault:
    """One vault controller: a serial bandwidth server + per-bank open
    rows. Table 1 gives 16 banks per vault; concurrent warps touching
    different rows land in different banks (consecutive rows map to
    consecutive banks), which is what lets FR-FCFS sustain high row-hit
    rates under interleaved streams."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        bytes_per_cycle: float,
        latency_cycles: float,
        row_bytes: int,
        row_miss_penalty_cycles: float,
        banks: int = 16,
        interleave_bits: int = 6,
    ) -> None:
        self.resource = engine.bandwidth_resource(
            name, rate=bytes_per_cycle, latency=latency_cycles
        )
        # A vault stores only every 2**interleave_bits-th cache line
        # (stack + vault interleaving sits between the line offset and
        # the row index), so the byte-address span of one physical row
        # is row_bytes << interleave_bits.
        self.row_bits = ilog2(row_bytes) + interleave_bits
        self.row_miss_penalty_bytes = row_miss_penalty_cycles * bytes_per_cycle
        self.n_banks = banks
        self._open_rows: List[int] = [-1] * banks
        self.stats = VaultStats()

    def service(self, address: int, n_bytes: int) -> float:
        """Book one line-sized request; returns its completion time.

        Kept as a flat scalar body (not a wrapper over
        :meth:`service_batch`): vault interleaving spreads consecutive
        lines across vaults by design, so most bookings arrive alone
        and this is still the hottest entry point. The reservation
        arithmetic is inlined (same operation order as
        ``BandwidthResource.reserve``, so times stay bit-identical)
        to spare one call per serviced line."""
        if n_bytes <= 0:
            raise SimulationError(f"vault request of {n_bytes} bytes")
        row = address >> self.row_bits
        # Permutation-based bank hashing (cf. Zhang et al. [61]): plain
        # modulo would alias arrays whose bases differ by a multiple of
        # banks*row_span onto one bank, serializing interleaved streams.
        bank = (row ^ (row >> 4) ^ (row >> 8)) % self.n_banks
        cost = float(n_bytes)
        stats = self.stats
        if row == self._open_rows[bank]:
            stats.row_hits += 1
        else:
            stats.activations += 1
            self._open_rows[bank] = row
            cost += self.row_miss_penalty_bytes
        stats.requests += 1
        stats.bytes_served += n_bytes
        resource = self.resource
        now = resource._engine.now
        next_free = resource._next_free
        start = now if now > next_free else next_free
        duration = cost / resource.rate
        resource._next_free = start + duration
        resource.busy_time += duration
        resource.units_moved += cost
        resource.transfers += 1
        return start + duration + resource.latency

    def service_batch(self, addresses: Sequence[int], n_bytes: int) -> float:
        """Book a group of same-vault, equal-sized requests in arrival
        order; returns the completion time of the last (the vault is a
        serial server, so that is also the latest). Open-row and bank
        bookkeeping walk the addresses in the same order the scalar
        path did, and the reservations replay the same sequential
        arithmetic, so all stats and times are bit-identical."""
        if n_bytes <= 0:
            raise SimulationError(f"vault request of {n_bytes} bytes")
        row_bits = self.row_bits
        n_banks = self.n_banks
        open_rows = self._open_rows
        penalty = self.row_miss_penalty_bytes
        base_cost = float(n_bytes)
        row_hits = 0
        activations = 0
        costs: List[float] = []
        append = costs.append
        for address in addresses:
            row = address >> row_bits
            # Permutation-based bank hashing (cf. Zhang et al. [61]):
            # plain modulo would alias arrays whose bases differ by a
            # multiple of banks*row_span onto one bank, serializing
            # interleaved streams.
            bank = (row ^ (row >> 4) ^ (row >> 8)) % n_banks
            if row == open_rows[bank]:
                row_hits += 1
                append(base_cost)
            else:
                activations += 1
                open_rows[bank] = row
                append(base_cost + penalty)
        stats = self.stats
        stats.row_hits += row_hits
        stats.activations += activations
        stats.requests += len(addresses)
        stats.bytes_served += n_bytes * len(addresses)
        return self.resource.reserve_sequence(costs)


class MemoryStack:
    """One 3D-stacked memory: vaults plus aggregate statistics."""

    def __init__(self, engine: Engine, stack_id: int, config: SystemConfig) -> None:
        self.stack_id = stack_id
        self.config = config
        vault_rate = config.bytes_per_cycle(config.vault_bandwidth_gbps)
        self.vaults: List[Vault] = [
            Vault(
                engine,
                name=f"stack{stack_id}/vault{v}",
                bytes_per_cycle=vault_rate,
                latency_cycles=config.stacks.dram_latency_cycles,
                row_bytes=config.stacks.row_bytes,
                row_miss_penalty_cycles=config.stacks.row_miss_penalty_cycles,
                banks=config.stacks.banks_per_vault,
                interleave_bits=config.stacks.stack_bits + config.stacks.vault_bits,
            )
            for v in range(config.stacks.vaults_per_stack)
        ]

    def service(self, vault_index: int, address: int, n_bytes: int) -> float:
        if not 0 <= vault_index < len(self.vaults):
            raise SimulationError(
                f"stack {self.stack_id}: vault index {vault_index} out of range"
            )
        return self.vaults[vault_index].service(address, n_bytes)

    def service_batch(
        self, vault_index: int, addresses: Sequence[int], n_bytes: int
    ) -> float:
        if not 0 <= vault_index < len(self.vaults):
            raise SimulationError(
                f"stack {self.stack_id}: vault index {vault_index} out of range"
            )
        return self.vaults[vault_index].service_batch(addresses, n_bytes)

    def service_scatter(
        self, vault_indices: Sequence[int], addresses: Sequence[int], n_bytes: int
    ) -> float:
        """Book equal-sized requests that scatter across vaults, in
        arrival order; returns the latest completion time.

        This is the common shape — vault interleaving spreads the lines
        of one coalesced access across vaults on purpose, so per-vault
        groups average barely more than one line and grouping machinery
        loses to a flat walk. The per-line booking inlines
        :meth:`Vault.service`'s body with the same operation order
        (open-row update, then the sequential reservation arithmetic),
        so stats and completion times are bit-identical to one
        ``service`` call per line."""
        if n_bytes <= 0:
            raise SimulationError(f"vault request of {n_bytes} bytes")
        vaults = self.vaults
        base_cost = float(n_bytes)
        # now is constant across the walk: booking is pure computation,
        # no events run between lines.
        now = vaults[0].resource._engine.now
        latest = now
        for vault_index, address in zip(vault_indices, addresses):
            vault = vaults[vault_index]
            row = address >> vault.row_bits
            bank = (row ^ (row >> 4) ^ (row >> 8)) % vault.n_banks
            cost = base_cost
            stats = vault.stats
            open_rows = vault._open_rows
            if row == open_rows[bank]:
                stats.row_hits += 1
            else:
                stats.activations += 1
                open_rows[bank] = row
                cost += vault.row_miss_penalty_bytes
            stats.requests += 1
            stats.bytes_served += n_bytes
            resource = vault.resource
            next_free = resource._next_free
            start = now if now > next_free else next_free
            duration = cost / resource.rate
            resource._next_free = start + duration
            resource.busy_time += duration
            resource.units_moved += cost
            resource.transfers += 1
            done = start + duration + resource.latency
            if done > latest:
                latest = done
        return latest

    def service_interleaved(
        self, addresses: Sequence[int], n_bytes: int, line_bits: int
    ) -> float:
        """:meth:`service_scatter` with the vault picked by the line's
        interleave bits (``(address >> line_bits) % n_vaults``) — the
        ideal-colocation service path, where every line is forced onto
        this stack and only the vault spread matters."""
        if n_bytes <= 0:
            raise SimulationError(f"vault request of {n_bytes} bytes")
        vaults = self.vaults
        n_vaults = len(vaults)
        base_cost = float(n_bytes)
        now = vaults[0].resource._engine.now
        latest = now
        for address in addresses:
            vault = vaults[(address >> line_bits) % n_vaults]
            row = address >> vault.row_bits
            bank = (row ^ (row >> 4) ^ (row >> 8)) % vault.n_banks
            cost = base_cost
            stats = vault.stats
            open_rows = vault._open_rows
            if row == open_rows[bank]:
                stats.row_hits += 1
            else:
                stats.activations += 1
                open_rows[bank] = row
                cost += vault.row_miss_penalty_bytes
            stats.requests += 1
            stats.bytes_served += n_bytes
            resource = vault.resource
            next_free = resource._next_free
            start = now if now > next_free else next_free
            duration = cost / resource.rate
            resource._next_free = start + duration
            resource.busy_time += duration
            resource.units_moved += cost
            resource.transfers += 1
            done = start + duration + resource.latency
            if done > latest:
                latest = done
        return latest

    @property
    def total_requests(self) -> int:
        return sum(v.stats.requests for v in self.vaults)

    @property
    def total_activations(self) -> int:
        return sum(v.stats.activations for v in self.vaults)

    @property
    def total_bytes(self) -> int:
        return sum(v.stats.bytes_served for v in self.vaults)

    @property
    def row_hit_rate(self) -> float:
        requests = self.total_requests
        return (
            sum(v.stats.row_hits for v in self.vaults) / requests if requests else 0.0
        )


def build_stacks(engine: Engine, config: SystemConfig) -> List[MemoryStack]:
    return [MemoryStack(engine, s, config) for s in range(config.stacks.n_stacks)]
