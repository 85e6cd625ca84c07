"""Compiler Step 3: placing a block's subtree onto the physical PE tree.

A block is a (possibly unbalanced, fan-in ≤ 2) tree of ops; the PE is a
complete binary tree of depth D.  The placement anchors the block's root
at the PE root and recursively assigns children, configuring unused
positions as FORWARD (pass-through) so operands injected at the leaves
ripple up unchanged.  SUM edge weights ride on the child configuration,
matching the node microarchitecture's multiply-accumulate datapath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.core.compiler.blocks import Block
from repro.core.compiler.program import TreeNodeConfig
from repro.core.dag.graph import Dag, OpType


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
def _forward_configs(num_positions: int) -> Tuple[TreeNodeConfig, ...]:
    """The one FORWARD config of each heap position, shared by every
    placement on a tree of this size (configs are frozen)."""
    return tuple(TreeNodeConfig(position, None) for position in range(num_positions))


def map_block_to_tree(dag: Dag, block: Block, tree_depth: int) -> TreePlacement:
    """Anchor the block's tree at the PE root; FORWARD fills the rest.

    Raises ``ValueError`` when the block is deeper than the PE tree.
    """
    if block.depth > tree_depth:
        raise ValueError(
            f"block depth {block.depth} exceeds tree depth {tree_depth}"
        )
    placement = TreePlacement(block_id=block.block_id)
    block_nodes = set(block.nodes)
    num_positions = 2 ** (tree_depth + 1) - 1
    first_leaf = 2 ** tree_depth - 1

    # Heap-indexed: a config is written straight into its position, so
    # the list comes out sorted.  The walk reaches a position along one
    # path only, so a second claim on a slot means the walk is broken.
    by_position: List[Optional[TreeNodeConfig]] = [None] * num_positions
    forward = _forward_configs(num_positions)
    leaf_operands = placement.leaf_operands
    node_of = dag.node
    sum_op = OpType.SUM
    active = 0

    # Pre-order placement walk with an explicit stack (the recursion
    # paid a Python frame per operand spine).
    stack = [(block.output, 0)]
    while stack:
        value_id, position = stack.pop()
        if value_id not in block_nodes:
            # An operand: inject at the leaf below and FORWARD it up to
            # ``position`` (inclusive) so the parent op can read it.
            leaf = position
            while leaf < first_leaf:
                leaf = 2 * leaf + 1  # descend left spine
            leaf_operands[leaf] = value_id
            walker = leaf
            while True:
                if by_position[walker] is not None:
                    raise AssertionError(f"conflicting configs at position {walker}")
                by_position[walker] = forward[walker]
                if walker == position:
                    break
                walker = (walker - 1) // 2
            continue

        node = node_of(value_id)
        child_weights: Tuple[float, ...] = ()
        if node.op is sum_op and node.weights is not None:
            child_weights = tuple(map(float, node.weights))
        if by_position[position] is not None:
            raise AssertionError(f"conflicting configs at position {position}")
        by_position[position] = TreeNodeConfig(position, node.op, child_weights)
        active += 1
        children = node.children
        if children:
            if position >= first_leaf:
                raise ValueError("op node landed on a leaf position")
            if len(children) == 2:
                stack.append((children[1], 2 * position + 2))
            stack.append((children[0], 2 * position + 1))

    placement.configs = [config for config in by_position if config is not None]
    placement.utilization = active / num_positions
    return placement
