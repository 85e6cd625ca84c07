"""Architecture configuration and the design-space-exploration axes.

The paper's DSE (Sec. V-F) sweeps tree depth D, register banks B and
registers per bank R, settling on (D=3, B=64, R=32); Fig. 10 fixes the
chip-level constants (12 PEs / 80 tree nodes, 1.25 MB SRAM, 104 GB/s
DRAM, 28 nm, 0.9 V, 500 MHz).  ``ArchConfig`` carries the ones the
model computes with, plus the ablation switches used by the evaluation
benchmarks; the rest of the Fig. 10 row are the constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from numbers import Integral
from typing import List, Tuple

#: Fig. 10 specification-row entries no modeled quantity depends on
#: (the per-event energies of ``EventEnergies`` are stated *at* this
#: node and voltage; technology scaling is ``energy.scale_to_node``).
TECH_NODE_NM = 28
VOLTAGE = 0.9
DRAM_BANDWIDTH_GBPS = 104.0

#: (field, bound, bound allowed) for every numeric ``ArchConfig`` field:
#: a PE needs a tree, registers and banks to schedule onto (zero PEs
#: never issues), and time, latency and memory cannot be negative.
#: Every field but ``frequency_hz`` is a count: an integer, never a bool.
_LOWER_BOUNDS = (
    ("tree_depth", 1, True),
    ("num_banks", 1, True),
    ("regs_per_bank", 1, True),
    ("num_pes", 1, True),
    ("frequency_hz", 0, False),
    ("sram_kib", 0, True),
    ("sram_banks", 1, True),
    ("dram_latency_cycles", 0, True),
)


@dataclass(frozen=True)
class ArchConfig:
    """Parameters of one REASON instance.

    Attributes mirror the paper's template: a *PE* is one tree engine of
    ``2**tree_depth`` leaves (so ``2**(tree_depth+1) - 1`` nodes); the
    chip integrates ``num_pes`` of them behind shared local SRAM.
    Construction rejects a field below its bound in ``_LOWER_BOUNDS``
    with a ``ValueError`` naming the field, the value and the bound, a
    count that is a bool or not an integer (numpy integers are), and a
    clock that is not finite.
    """

    tree_depth: int = 3  # D: levels below the root (8 leaves)
    num_banks: int = 64  # B: parallel register banks per PE
    regs_per_bank: int = 32  # R
    num_pes: int = 12
    frequency_hz: float = 500e6
    sram_kib: int = 1280  # 1.25 MB shared local memory
    sram_banks: int = 16
    dram_latency_cycles: int = 100
    # Ablation switches (Sec. VII-C hardware ablation)
    pipelined_scheduling: bool = True  # pipeline-aware reordering
    reconfigurable: bool = True  # per-cycle mode switching
    linked_list_layout: bool = True  # WLs linked-list SRAM layout

    def __post_init__(self) -> None:
        for name, bound, inclusive in _LOWER_BOUNDS:
            value = getattr(self, name)
            if not (value >= bound if inclusive else value > bound):
                relation = ">=" if inclusive else ">"
                raise ValueError(
                    f"ArchConfig.{name}={value!r} must be {relation} {bound}"
                )
            if name != "frequency_hz" and (
                isinstance(value, bool) or not isinstance(value, Integral)
            ):
                raise ValueError(f"ArchConfig.{name}={value!r} must be an integer")
        if self.frequency_hz == math.inf:  # a zero cycle time: every report says 0 s
            raise ValueError(f"ArchConfig.frequency_hz={self.frequency_hz!r} must be finite")

    @property
    def leaves_per_pe(self) -> int:
        return 2 ** self.tree_depth

    @property
    def nodes_per_pe(self) -> int:
        return 2 ** (self.tree_depth + 1) - 1

    @property
    def total_tree_nodes(self) -> int:
        return self.num_pes * self.nodes_per_pe

    @property
    def pipeline_stages(self) -> int:
        """Tree levels (plus operand fetch) acting as pipeline stages."""
        return self.tree_depth + 1

    @property
    def registers_total(self) -> int:
        return self.num_banks * self.regs_per_bank

    @cached_property
    def cycle_time_s(self) -> float:
        """Seconds per cycle; read by every report, so computed once
        per (frozen) instance, like :attr:`key_bytes`."""
        return 1.0 / self.frequency_hz

    @cached_property
    def key_bytes(self) -> bytes:
        """This configuration's part of a compile-cache key: every field
        by name.  The instance is frozen, so it is computed once per
        object (``cached_property`` writes the instance dict directly)
        instead of once per request."""
        return repr(self).encode("utf-8")

    def with_ablation(self, **switches: bool) -> "ArchConfig":
        """Copy with ablation switches flipped."""
        return replace(self, **switches)


#: The paper's selected configuration (Fig. 10 specification table).
DEFAULT_CONFIG = ArchConfig()


def dse_grid(
    depths: Tuple[int, ...] = (2, 3, 4),
    banks: Tuple[int, ...] = (16, 32, 64, 128),
    regs: Tuple[int, ...] = (16, 32, 64),
) -> List[ArchConfig]:
    """The (D, B, R) sweep grid of the paper's design space exploration."""
    grid = []
    for depth in depths:
        for bank in banks:
            for reg in regs:
                grid.append(replace(DEFAULT_CONFIG, tree_depth=depth, num_banks=bank, regs_per_bank=reg))
    return grid
