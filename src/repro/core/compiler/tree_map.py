"""Compiler Step 3: placing a block's subtree onto the physical PE tree.

A block is a (possibly unbalanced, fan-in ≤ 2) tree of ops; the PE is a
complete binary tree of depth D.  The placement anchors the block's root
at the PE root and recursively assigns children, configuring unused
positions as FORWARD (pass-through) so operands injected at the leaves
ripple up unchanged.  SUM edge weights ride on the child configuration,
matching the node microarchitecture's multiply-accumulate datapath.
A placement is written as rows of a program's config and leaf-operand
tables (:class:`~repro.core.compiler.program.Program`), not as objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.compiler.blocks import Block
from repro.core.compiler.program import OPS, Program, TreeNodeConfig
from repro.core.dag.graph import Dag, DagPlan


@dataclass
class TreePlacement:
    """Physical placement of one block on the PE tree.

    ``configs`` lists per-position node configurations (heap indexing);
    ``leaf_operands`` maps PE leaf position → DAG value id injected
    there; ``utilization`` is the fraction of tree nodes doing real work.
    """

    block_id: int
    configs: List[TreeNodeConfig] = field(default_factory=list)
    leaf_operands: Dict[int, int] = field(default_factory=dict)
    utilization: float = 0.0


@lru_cache(maxsize=None)
def _paths(tree_depth: int) -> Tuple[Tuple[int, ...], ...]:
    """Per heap position of a PE tree of this depth, the path an operand
    wanted there rides: injected at the leaf at the bottom of the
    position's left spine, FORWARDed up to the position."""
    first_leaf = 2 ** tree_depth - 1
    paths = []
    for position in range(2 * first_leaf + 1):
        spine = [position]
        while spine[-1] < first_leaf:
            spine.append(2 * spine[-1] + 1)
        paths.append(tuple(reversed(spine)))
    return tuple(paths)


def map_block_to_tree(dag: Dag, block: Block, tree_depth: int) -> TreePlacement:
    """Anchor the block's tree at the PE root; FORWARD fills the rest.

    Raises ``ValueError`` when the block is deeper than the PE tree.
    """
    placed = Program()
    active = place_blocks(dag.plan(), [block], tree_depth, placed)(0)
    ops = map(OPS.__getitem__, placed.config_ops)
    configs = list(map(TreeNodeConfig, placed.config_positions, ops, placed.config_weights))
    leaf_operands = dict(zip(placed.leaf_positions, placed.leaf_values))
    utilization = active / (2 ** (tree_depth + 1) - 1)
    return TreePlacement(block.block_id, configs, leaf_operands, utilization)


def place_blocks(
    plan: DagPlan, blocks: Sequence[Block], tree_depth: int, program: Program
) -> Callable[[int], int]:
    """The placer of ``blocks`` over the DAG's plan: ``place(index)``
    writes block ``index``'s tree configs (ascending heap position) and
    leaf operands (in walk order) to ``program``'s tables — the rows of
    the instruction appended next — and returns its active op count.
    Block membership is read off one per-node owner array, built once."""
    paths = _paths(tree_depth)
    num_positions = len(paths)
    first_leaf = num_positions // 2
    ops, children_of, weights = plan.ops, plan.children, plan.weights
    # Per node id: the index of the block holding it; per placed node
    # id, its config's op code (a FORWARD is node id -1).
    owner, codes = [-1] * len(ops), {-1: 0}
    for index, block in enumerate(blocks):
        for node_id in block.nodes:
            owner[node_id] = index
            codes[node_id] = OPS.index(ops[node_id])
    config_position, config_op = program.config_positions.append, program.config_ops.append
    config_weights, leaf_positions = program.config_weights.append, program.leaf_positions.append
    leaf_values = program.leaf_values.append

    def place(index: int) -> int:
        block = blocks[index]
        if block.depth > tree_depth:
            raise ValueError(f"block depth {block.depth} exceeds tree depth {tree_depth}")
        # Heap-indexed: the op node placed at a position (-1: FORWARD)
        # is written straight into it, so the configs come out sorted.
        # The walk reaches a position along one path only, so a second
        # claim on a slot means the walk is broken.
        by_position: List[Optional[int]] = [None] * num_positions
        active = 0
        # Pre-order placement walk with an explicit stack (the recursion
        # paid a Python frame per operand spine).
        stack = [(block.output, 0)]
        while stack:
            value_id, position = stack.pop()
            if owner[value_id] != index:
                # An operand: inject at the leaf below and FORWARD it up
                # to ``position`` (inclusive) so the parent op can read it.
                path = paths[position]
                leaf_positions(path[0])
                leaf_values(value_id)
                for walker in path:
                    if by_position[walker] is not None:
                        raise AssertionError(f"conflicting configs at position {walker}")
                    by_position[walker] = -1
                continue

            if by_position[position] is not None:
                raise AssertionError(f"conflicting configs at position {position}")
            by_position[position] = value_id
            active += 1
            children = children_of[value_id]
            if children:
                if position >= first_leaf:
                    raise ValueError("op node landed on a leaf position")
                if len(children) == 2:
                    stack.append((children[1], 2 * position + 2))
                stack.append((children[0], 2 * position + 1))

        for position, node_id in enumerate(by_position):
            if node_id is not None:
                config_position(position)
                config_op(codes[node_id])
                config_weights(weights[node_id] if node_id >= 0 else ())
        return active

    return place
