"""The four-step DAG→hardware compiler (paper Sec. V-C, Fig. 7).

Step 1 (:mod:`blocks`) decomposes the regularized DAG into tree-shaped
execution blocks bounded by the hardware tree depth; Step 2
(:mod:`mapping`) assigns block operands to register banks with
conflict awareness; Step 3 (:mod:`tree_map`) places block nodes onto the
physical PE tree; Step 4 (:mod:`schedule`) emits a pipeline-aware VLIW
program with hazard spacing and automatic write-address generation.
:func:`compile_dag` runs the full pipeline.  No step walks node
objects: each reads the DAG's :meth:`~repro.core.dag.graph.Dag.plan` —
one node order and per-id columns (ops, children, leaf flags, SUM
weights, parent counts) built once per DAG — by node id.
"""

from repro.core.compiler.program import (
    Program,
    VLIWInstruction,
    InstructionKind,
    TreeNodeConfig,
)
from repro.core.compiler.blocks import decompose_blocks, Block
from repro.core.compiler.mapping import map_operands_to_banks, BankAssignment
from repro.core.compiler.tree_map import map_block_to_tree, TreePlacement
from repro.core.compiler.schedule import schedule_program
from repro.core.compiler.driver import compile_dag, CompileStats

__all__ = [
    "Program",
    "VLIWInstruction",
    "InstructionKind",
    "TreeNodeConfig",
    "decompose_blocks",
    "Block",
    "map_operands_to_banks",
    "BankAssignment",
    "map_block_to_tree",
    "TreePlacement",
    "schedule_program",
    "compile_dag",
    "CompileStats",
]
