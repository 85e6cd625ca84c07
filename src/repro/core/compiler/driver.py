"""End-to-end compiler driver: regularized DAG → scheduled VLIW program."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.arch.config import ArchConfig, DEFAULT_CONFIG
from repro.core.compiler.blocks import decompose_blocks
from repro.core.compiler.mapping import map_operands_to_banks
from repro.core.compiler.program import Program
from repro.core.compiler.schedule import ScheduleStats, schedule_program
from repro.core.dag.graph import Dag
from repro.core.dag.regularize import is_two_input, regularize_two_input


@dataclass
class CompileStats:
    """Aggregate of the four compiler steps."""

    num_blocks: int
    mean_block_ops: float
    bank_conflicts_static: int
    schedule: ScheduleStats

    @property
    def cycles(self) -> int:
        return self.schedule.cycles


def compile_dag(
    dag: Dag,
    config: ArchConfig = DEFAULT_CONFIG,
) -> Tuple[Program, CompileStats]:
    """Run block decomposition, mapping, tree placement and scheduling.

    Non-two-input DAGs are regularized first (matching the paper's
    offline unification→pruning→regularization→compile flow).
    """
    working = dag
    if not is_two_input(working):
        working = regularize_two_input(working)

    blocks = decompose_blocks(working, config.tree_depth)
    assignment = map_operands_to_banks(working, blocks, config.num_banks)
    program, schedule_stats = schedule_program(working, blocks, assignment, config)
    program.dag = working

    mean_ops = (
        sum(b.num_ops for b in blocks) / len(blocks) if blocks else 0.0
    )
    stats = CompileStats(
        num_blocks=len(blocks),
        mean_block_ops=mean_ops,
        bank_conflicts_static=assignment.conflicts,
        schedule=schedule_stats,
    )
    return program, stats
