"""Memory subsystem: banked SRAM and the prefetcher/DMA engine.

Models the paper's hierarchy (Fig. 6): per-PE dual-port SRAM banks
behind the Benes crossbar and a DMA engine that overlaps remote fetches
with compute (the latency-hiding behavior of the Fig. 9 timeline).
Costs are in cycles and energy events; data values themselves live in
the functional layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.arch.config import ArchConfig
from repro.core.arch.energy import EnergyModel


@dataclass
class MemoryStats:
    sram_reads: int = 0
    sram_writes: int = 0
    bank_conflicts: int = 0
    dram_accesses: int = 0
    dma_transfers: int = 0
    dma_cycles_hidden: int = 0


class SramBanks:
    """Banked local SRAM with per-cycle conflict accounting."""

    def __init__(self, config: ArchConfig, energy: Optional[EnergyModel] = None):
        self.config = config
        self.energy = energy
        self.stats = MemoryStats()
        self._cycle_reads: Dict[int, int] = {}
        self._current_cycle = -1

    def begin_cycle(self, cycle: int) -> None:
        self._cycle_reads = {}
        self._current_cycle = cycle

    def read(self, bank: int, count: int = 1) -> int:
        """Read words from a bank; returns extra stall cycles caused by
        conflicts (dual-ported: two accesses per bank per cycle)."""
        bank %= max(self.config.sram_banks, 1)
        before = self._cycle_reads.get(bank, 0)
        self._cycle_reads[bank] = before + count
        self.stats.sram_reads += count
        if self.energy:
            self.energy.record("sram_access", count)
        over = max(0, self._cycle_reads[bank] - 2)
        new_conflicts = max(0, over - max(0, before - 2))
        self.stats.bank_conflicts += new_conflicts
        return new_conflicts

    def read_batch(self, bank_counts: Dict[int, int]) -> int:
        """Accumulate a burst of reads given per-bank word counts.

        Equivalent to calling :meth:`read` once per word but in one
        pass: conflict accounting telescopes (each bank's stall count
        depends only on its running total), so the aggregate update is
        exact.  Banks must already be normalized modulo ``sram_banks``.
        Returns the new conflict stalls caused by the burst.
        """
        cycle_reads = self._cycle_reads
        total = 0
        conflicts = 0
        for bank, count in bank_counts.items():
            before = cycle_reads.get(bank, 0)
            after = before + count
            cycle_reads[bank] = after
            total += count
            conflicts += max(0, after - 2) - max(0, before - 2)
        self.stats.sram_reads += total
        self.stats.bank_conflicts += conflicts
        if self.energy:
            self.energy.sram_access += total
        return conflicts

    def write(self, bank: int, count: int = 1) -> None:
        self.stats.sram_writes += count
        if self.energy:
            self.energy.record("sram_access", count)


@dataclass
class DmaTransfer:
    start_cycle: int
    finish_cycle: int
    words: int


class DmaEngine:
    """Prefetcher/DMA between DRAM and local SRAM.

    Transfers run in the background; :meth:`cycles_exposed` reports how
    much of a transfer's latency could *not* be hidden behind compute —
    the quantity the two-level pipeline minimizes.
    """

    def __init__(self, config: ArchConfig, energy: Optional[EnergyModel] = None):
        self.config = config
        self.energy = energy
        self.stats = MemoryStats()
        self.inflight: List[DmaTransfer] = []

    def issue(self, cycle: int, words: int) -> DmaTransfer:
        """Start fetching ``words`` 32-bit words from DRAM at ``cycle``."""
        bytes_per_cycle = (
            self.config.dram_bandwidth_gbps * 1e9 / self.config.frequency_hz
        )
        transfer_cycles = max(1, int(4 * words / bytes_per_cycle))
        finish = cycle + self.config.dram_latency_cycles + transfer_cycles
        transfer = DmaTransfer(cycle, finish, words)
        self.inflight.append(transfer)
        self.stats.dma_transfers += 1
        self.stats.dram_accesses += words
        if self.energy:
            self.energy.record("dram_access", words)
        return transfer

    def cycles_exposed(self, transfer: DmaTransfer, need_cycle: int) -> int:
        """Stall cycles if the data is needed at ``need_cycle``."""
        exposed = max(0, transfer.finish_cycle - need_cycle)
        hidden = (transfer.finish_cycle - transfer.start_cycle) - exposed
        self.stats.dma_cycles_hidden += max(hidden, 0)
        return exposed

    def cancel_pending(self, cycle: int) -> int:
        """Abort in-flight transfers (Fig. 9 T22: conflict halts DMA).

        Returns how many transfers were cancelled."""
        before = len(self.inflight)
        self.inflight = [t for t in self.inflight if t.finish_cycle <= cycle]
        return before - len(self.inflight)
