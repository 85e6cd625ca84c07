"""REASON hardware architecture model (paper Sec. V).

A parameterized, event-driven model of the accelerator: reconfigurable
tree-based PEs with two execution modes (probabilistic and symbolic),
banked register files, the watched-literals linked-list SRAM layout
as a per-literal cost table (``watch_costs``), inter-node interconnect
topologies, and an analytical area/energy model with technology
scaling.
"""

from repro.core.arch.config import ArchConfig, DEFAULT_CONFIG
from repro.core.arch.interconnect import (
    Topology,
    broadcast_cycles,
    traversal_latency,
)
from repro.core.arch.energy import (
    EnergyModel,
    TechNode,
    scale_to_node,
    unified_vs_decoupled,
)
from repro.core.arch.watched_literals import watch_costs
from repro.core.arch.tree_pe import TreePE, PEMode
from repro.core.arch.accelerator import (
    ReasonAccelerator,
    ProgramRun,
    SymbolicExecutionTrace,
)

__all__ = [
    "ArchConfig",
    "DEFAULT_CONFIG",
    "Topology",
    "broadcast_cycles",
    "traversal_latency",
    "EnergyModel",
    "TechNode",
    "scale_to_node",
    "unified_vs_decoupled",
    "watch_costs",
    "TreePE",
    "PEMode",
    "ReasonAccelerator",
    "ProgramRun",
    "SymbolicExecutionTrace",
]
