"""Reconfigurable tree PE: functional + cycle model (paper Sec. V-B).

One PE is a complete binary tree of nodes whose datapaths reconfigure
per VLIW instruction between two modes: PROBABILISTIC (sum/product
aggregation) and SYMBOLIC (comparator/adder BCP datapath).
:meth:`TreePE.execute_config` evaluates one placed block bottom-up; the
cycle cost of one issue is the pipeline depth, with per-level
throughput of one block per cycle once the pipeline is full.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.arch.config import ArchConfig
from repro.core.arch.energy import EnergyModel
from repro.core.compiler.program import TreeNodeConfig
from repro.core.dag.graph import OpType
from repro.trace.format import EventKind


class PEMode(enum.Enum):
    PROBABILISTIC = "probabilistic"
    SYMBOLIC = "symbolic"


@dataclass
class PEStats:
    instructions: int = 0
    active_node_ops: int = 0


class TreePE:
    """One tree engine; stateless between instructions except statistics."""

    def __init__(self, config: ArchConfig, energy: Optional[EnergyModel] = None):
        self.config = config
        self.energy = energy
        self.stats = PEStats()
        self._mode: Optional[PEMode] = None
        # Opt-in binary event trace (repro.trace); set through
        # ReasonAccelerator.attach_trace.  None keeps execute_config on
        # its untraced path at the cost of one None check per block.
        self.trace = None

    def set_mode(self, mode: PEMode) -> None:
        """Reconfigure the datapath (free when already in the mode).

        With ``config.reconfigurable`` off, the ablation models a fixed-
        function array: mode switches require a pipeline drain charged
        by the accelerator as extra cycles (see ``mode_switch_penalty``).
        """
        self._mode = mode

    @property
    def mode(self) -> Optional[PEMode]:
        return self._mode

    def mode_switch_penalty(self) -> int:
        """Extra cycles per switch when reconfiguration is disabled."""
        return 0 if self.config.reconfigurable else self.config.pipeline_stages * 4

    def execute_config(
        self,
        configs: Sequence[TreeNodeConfig],
        leaf_values: Dict[int, float],
    ) -> float:
        """Evaluate one placed block and return the root value.

        ``configs`` is :func:`map_block_to_tree`'s list: unique heap
        positions, ascending, so walking it backwards sees children
        before parents.  ``leaf_values`` maps PE leaf heap-positions to
        operand values.  Unconfigured positions are inert; FORWARD nodes
        pass their single live child value upward.
        """
        self.stats.instructions += 1
        values: Dict[int, float] = dict(leaf_values)
        forward_ops = 0
        logic_ops = 0
        alu_ops = 0
        logic_op_types = (OpType.AND, OpType.OR, OpType.NOT)
        values_get = values.get
        for config in reversed(configs):
            position = config.position
            left = values_get(2 * position + 1)
            right = values_get(2 * position + 2)
            if config.is_forward:
                forward_ops += 1
                if position in values:
                    continue  # leaf-level forward: operand already injected
                live = left if left is not None else right
                if live is None:
                    raise ValueError(f"forward node {position} has no input")
                values[position] = live
                continue
            if config.op in logic_op_types:
                logic_ops += 1
            else:
                alu_ops += 1
            operands = [v for v in (left, right) if v is not None]
            if not operands:
                raise ValueError(f"op node {position} has no inputs")
            values[position] = _apply_op(config, operands)
        self.stats.active_node_ops += logic_ops + alu_ops
        if self.energy:
            self.energy.logic_op += logic_ops
            self.energy.alu_op += alu_ops
        if self.trace is not None:
            self.trace.emit(EventKind.PE_BLOCK, None, logic_ops + alu_ops, forward_ops)
        if 0 not in values:
            raise ValueError("block did not produce a root value")
        return values[0]


def _apply_op(config: TreeNodeConfig, operands: List[float]) -> float:
    op = config.op
    if op is OpType.SUM:
        weights = config.child_weights or tuple(1.0 for _ in operands)
        if len(weights) != len(operands):
            raise ValueError(
                f"SUM node {config.position} has {len(weights)} child weights "
                f"for {len(operands)} live operands"
            )
        return sum(w * v for w, v in zip(weights, operands))
    if op is OpType.PRODUCT:
        out = 1.0
        for value in operands:
            out *= value
        return out
    if op is OpType.AND:
        return 1.0 if all(v > 0 for v in operands) else 0.0
    if op is OpType.OR:
        return 1.0 if any(v > 0 for v in operands) else 0.0
    if op is OpType.NOT:
        return 1.0 - operands[0]
    raise TypeError(f"op {op} not executable on a tree node")
