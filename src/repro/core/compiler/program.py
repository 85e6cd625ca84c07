"""The VLIW program representation the compiler emits and the
accelerator model executes.

One instruction configures a whole tree PE for one pipeline issue:
operand reads (bank, address) feeding the Benes crossbar, the per-node
op configuration of the tree, and the write-back bank.  LOAD/STORE move
data between SRAM and register banks; SPILL/RELOAD handle register
pressure; NOP fills hazard slots the scheduler could not hide.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.dag.graph import OpType


class InstructionKind(enum.Enum):
    COMPUTE = "compute"
    LOAD = "load"
    STORE = "store"
    SPILL = "spill"
    RELOAD = "reload"
    NOP = "nop"


@dataclass(frozen=True)
class TreeNodeConfig:
    """Op configuration of one physical tree node for one instruction.

    ``position`` is the heap index of the node inside the PE tree
    (0 = root, children of i at 2i+1 / 2i+2).  ``op`` is the reasoning
    operation the node performs; ``FORWARD`` (None) passes data through.
    SUM nodes carry per-child weights (the node microarchitecture's
    multiply-accumulate inputs).
    """

    position: int
    op: Optional[OpType]
    child_weights: Tuple[float, ...] = ()


@dataclass
class VLIWInstruction:
    """One issue slot of the REASON VLIW stream."""

    kind: InstructionKind
    block_id: int = -1
    reads: List[Tuple[int, int]] = field(default_factory=list)  # (bank, addr)
    write: Optional[Tuple[int, int]] = None
    tree_config: List[TreeNodeConfig] = field(default_factory=list)
    issue_cycle: int = -1  # filled by the scheduler
    pe: int = 0  # which tree PE executes this slot
    leaf_operands: Dict[int, int] = field(default_factory=dict)  # PE leaf pos -> DAG value id
    output_value: int = -1  # DAG node id this compute produces
    #: DAG value id a LOAD/STORE/SPILL/RELOAD moves (-1 for COMPUTE/NOP);
    #: how tools (the static verifier in :mod:`repro.analysis`) follow
    #: data movement.
    value: int = -1


@dataclass
class Program:
    """A compiled kernel: the VLIW stream, its root value and its DAG."""

    instructions: List[VLIWInstruction] = field(default_factory=list)
    num_blocks: int = 0
    root_value: Optional[int] = None  # DAG node id of the final output
    dag: object = None  # the (regularized) DAG this program computes

    def __len__(self) -> int:
        return len(self.instructions)
