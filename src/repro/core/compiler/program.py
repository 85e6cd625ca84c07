"""The VLIW program representation the compiler emits and the
accelerator model executes.

One instruction configures a whole tree PE for one pipeline issue:
operand reads (bank, address) feeding the Benes crossbar, the per-node
op configuration of the tree, and the write-back bank.  LOAD/STORE move
data between SRAM and register banks; SPILL/RELOAD handle register
pressure; NOP fills hazard slots the scheduler could not hide.

A :class:`Program` stores the stream as int columns and flat tables;
:class:`VLIWInstruction` is the one-instruction view it builds on demand.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.dag.graph import OpType


class InstructionKind(enum.Enum):
    COMPUTE = "compute"
    LOAD = "load"
    STORE = "store"
    SPILL = "spill"
    RELOAD = "reload"
    NOP = "nop"


#: A ``kinds`` entry is the index of its kind here, named below.
KINDS: Tuple[InstructionKind, ...] = tuple(InstructionKind)
COMPUTE, LOAD, STORE, SPILL, RELOAD, NOP = range(len(KINDS))
#: A ``config_ops`` entry is the index of its op here; 0 is FORWARD.
OPS: Tuple[Optional[OpType], ...] = (None, *OpType)
#: The ``write_banks`` entry of an instruction without a write-back.  No
#: register file has a negative bank, but a hand-built stream may write
#: to bank -1 and must convert back unchanged.
NO_WRITE = -(1 << 15)


class TreeNodeConfig(NamedTuple):
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


class Program:
    """A compiled kernel: the VLIW stream as columns, its root value and
    its DAG.

    Instruction ``i`` is entry ``i`` of the int columns ``kinds`` (an
    index into :data:`KINDS`), ``block_ids``, ``issue_cycles``, ``pes``,
    ``write_banks`` / ``write_addrs`` (:data:`NO_WRITE` and 0 without a
    write-back), ``values`` and ``output_values``.  What it holds several
    of are rows ``offsets[i]:offsets[i + 1]`` of flat tables:
    ``read_offsets`` of ``read_banks`` / ``read_addrs``;
    ``leaf_offsets`` of ``leaf_positions`` / ``leaf_values`` (PE leaf
    position -> DAG value id); ``config_offsets`` of the tree configs in
    ascending heap position, ``config_positions`` / ``config_ops`` (an
    index into :data:`OPS`) / ``config_weights`` (a SUM's child weights
    — the DAG's own tuple — and ``()`` for any other config).  Nothing
    per instruction is an object.

    A writer fills a COMPUTE's rows of the config and leaf tables, then
    :meth:`append` adds the rest of it.  :attr:`instructions`
    builds :class:`VLIWInstruction` copies on each read, and
    ``Program(instructions)`` converts such a list back.
    """

    def __init__(self, instructions: Sequence[VLIWInstruction] = (),
                 root_value: Optional[int] = None, dag: object = None) -> None:  # fmt: skip
        self.kinds, self.block_ids, self.issue_cycles, self.pes = [], [], [], []
        self.write_banks, self.write_addrs, self.values, self.output_values = [], [], [], []
        self.read_offsets, self.read_banks, self.read_addrs = [0], [], []
        self.config_offsets, self.config_positions = [0], []
        self.config_ops, self.config_weights = [], []
        self.leaf_offsets, self.leaf_positions, self.leaf_values = [0], [], []
        self.root_value = root_value  # DAG node id of the final output
        self.dag = dag  # the (regularized) DAG this program computes
        for i in instructions:
            for config in i.tree_config:
                self.config_positions.append(config.position)
                self.config_ops.append(OPS.index(config.op))
                self.config_weights.append(config.child_weights)
            self.leaf_positions.extend(i.leaf_operands)
            self.leaf_values.extend(i.leaf_operands.values())
            fields = i.block_id, i.reads, i.write, i.issue_cycle, i.pe, i.value, i.output_value
            self.append(KINDS.index(i.kind), *fields)

    def append(self, kind: int, block_id: int = -1, reads: Sequence[Tuple[int, int]] = (),
               write: Optional[Tuple[int, int]] = None, issue_cycle: int = -1, pe: int = 0,
               value: int = -1, output_value: int = -1) -> None:  # fmt: skip
        """Add one instruction, its fields as :class:`VLIWInstruction`
        names them; its tree configs and leaf operands are whatever was
        written to those tables since the last append."""
        self.kinds.append(kind)
        self.block_ids.append(block_id)
        for bank, addr in reads:
            self.read_banks.append(bank)
            self.read_addrs.append(addr)
        bank, addr = write or (NO_WRITE, 0)
        self.write_banks.append(bank)
        self.write_addrs.append(addr)
        self.issue_cycles.append(issue_cycle)
        self.pes.append(pe)
        self.values.append(value)
        self.output_values.append(output_value)
        self.read_offsets.append(len(self.read_banks))
        self.config_offsets.append(len(self.config_positions))
        self.leaf_offsets.append(len(self.leaf_positions))

    @property
    def instructions(self) -> List[VLIWInstruction]:
        """The stream as fresh :class:`VLIWInstruction` copies, built on
        every read: nothing stores them, and editing one leaves the
        program be."""
        reads, configs, leaves = self.read_offsets, self.config_offsets, self.leaf_offsets
        positions, ops, weights = self.config_positions, self.config_ops, self.config_weights
        stream = []
        for i, bank in enumerate(self.write_banks):
            read, leaf = slice(reads[i], reads[i + 1]), slice(leaves[i], leaves[i + 1])
            tree_config = [
                TreeNodeConfig(positions[c], OPS[ops[c]], weights[c])
                for c in range(configs[i], configs[i + 1])
            ]
            stream.append(VLIWInstruction(
                KINDS[self.kinds[i]], self.block_ids[i],
                list(zip(self.read_banks[read], self.read_addrs[read])),
                None if bank == NO_WRITE else (bank, self.write_addrs[i]), tree_config,
                self.issue_cycles[i], self.pes[i],
                dict(zip(self.leaf_positions[leaf], self.leaf_values[leaf])),
                self.output_values[i], self.values[i],
            ))  # fmt: skip
        return stream

    def __len__(self) -> int:
        return len(self.kinds)

    def __setstate__(self, state: Dict[str, object]) -> None:
        # A program pickled while it was a list of instructions has no
        # columns: refuse it, so a store reads the entry as a miss.
        if "kinds" not in state:
            raise ValueError("a Program pickled without instruction columns: recompile it")
        self.__dict__.update(state)
