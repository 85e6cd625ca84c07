"""Compiler Step 3: placing a block's subtree onto the physical PE tree.

A block is a (possibly unbalanced, fan-in ≤ 2) tree of ops; the PE is a
complete binary tree of depth D.  The placement anchors the block's root
at the PE root and recursively assigns children, configuring unused
positions as FORWARD (pass-through) so operands injected at the leaves
ripple up unchanged.  SUM edge weights ride on the child configuration,
matching the node microarchitecture's multiply-accumulate datapath.
Configs are frozen, so they are shared: one FORWARD config per tree
position per process, and — across the blocks of one schedule — one op
config per distinct ``(position, op, child weights)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.compiler.blocks import Block
from repro.core.compiler.program import TreeNodeConfig
from repro.core.dag.graph import Dag, DagPlan, OpType


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
def _tree(tree_depth: int) -> Tuple[Tuple[TreeNodeConfig, ...], Tuple[Tuple[int, ...], ...]]:
    """Per heap position of a PE tree of this depth: its one FORWARD
    config, shared by every placement (configs are frozen), and the
    path an operand wanted there rides — injected at the leaf at the
    bottom of the position's left spine, FORWARDed up to the position."""
    num_positions = 2 ** (tree_depth + 1) - 1
    first_leaf = 2 ** tree_depth - 1
    paths = []
    for position in range(num_positions):
        leaf = position
        while leaf < first_leaf:
            leaf = 2 * leaf + 1
        path = [leaf]
        while path[-1] != position:
            path.append((path[-1] - 1) // 2)
        paths.append(tuple(path))
    forward = tuple(TreeNodeConfig(position, None) for position in range(num_positions))
    return forward, tuple(paths)


def map_block_to_tree(dag: Dag, block: Block, tree_depth: int) -> TreePlacement:
    """Anchor the block's tree at the PE root; FORWARD fills the rest.

    Raises ``ValueError`` when the block is deeper than the PE tree.
    """
    ((configs, leaf_operands, active),) = place_blocks(dag.plan(), [block], tree_depth)
    return TreePlacement(
        block.block_id, configs, leaf_operands, active / (2 ** (tree_depth + 1) - 1)
    )


def place_blocks(
    plan: DagPlan, blocks: Sequence[Block], tree_depth: int
) -> List[Tuple[List[TreeNodeConfig], Dict[int, int], int]]:
    """Every block's placement, as ``(configs, leaf_operands, active op
    count)`` in block order — :func:`map_block_to_tree` over the DAG's
    plan, reading block membership off one per-node owner array.  The
    blocks share one op config per distinct ``(position, op, child
    weights)``."""
    forward, paths = _tree(tree_depth)
    num_positions = len(forward)
    first_leaf = num_positions // 2
    ops, children_of, weights = plan.ops, plan.children, plan.weights
    owner = [-1] * len(ops)  # node id -> index of the block holding it
    for index, block in enumerate(blocks):
        for node_id in block.nodes:
            owner[node_id] = index
    configs: Dict[Tuple[int, OpType, Tuple[float, ...]], TreeNodeConfig] = {}
    placements = []

    for index, block in enumerate(blocks):
        if block.depth > tree_depth:
            raise ValueError(
                f"block depth {block.depth} exceeds tree depth {tree_depth}"
            )
        # Heap-indexed: a config is written straight into its position,
        # so the list comes out sorted.  The walk reaches a position
        # along one path only, so a second claim on a slot means the
        # walk is broken.
        by_position: List[Optional[TreeNodeConfig]] = [None] * num_positions
        leaf_operands: Dict[int, int] = {}
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
                leaf_operands[path[0]] = value_id
                for walker in path:
                    if by_position[walker] is not None:
                        raise AssertionError(f"conflicting configs at position {walker}")
                    by_position[walker] = forward[walker]
                continue

            if by_position[position] is not None:
                raise AssertionError(f"conflicting configs at position {position}")
            key = (position, ops[value_id], weights[value_id])
            config = configs.get(key)
            if config is None:
                config = configs[key] = TreeNodeConfig(*key)
            by_position[position] = config
            active += 1
            children = children_of[value_id]
            if children:
                if position >= first_leaf:
                    raise ValueError("op node landed on a leaf position")
                if len(children) == 2:
                    stack.append((children[1], 2 * position + 2))
                stack.append((children[0], 2 * position + 1))

        placements.append(
            ([config for config in by_position if config is not None], leaf_operands, active)
        )
    return placements
