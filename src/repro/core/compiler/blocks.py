"""Compiler Step 1: block decomposition (paper Fig. 7).

A greedy pass over the regularized DAG — its plan's node order, read
with the plan's leaf flags, children and parent counts — groups
interior nodes into tree-shaped *execution blocks* whose depth does not
exceed the hardware tree depth.  A node absorbs its children's blocks
when the combined depth stays within budget and no child value is
needed elsewhere (shared nodes become block outputs so their value
materializes to registers once).  Each block then maps onto one
tree-PE issue.

A value read from outside its block is materialized, and materializing
a node closes its block with that node as the output — so a block's
interior inputs are exactly other blocks' outputs, and the block
dependency graph is read off ``Block.inputs`` without revisiting the
DAG.  Block ids are creation order; :func:`topological_block_order`
gives the order the scheduler indexes blocks by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.core.dag.graph import Dag, DagPlan


@dataclass
class Block:
    """A schedulable subtree of the DAG.

    ``nodes`` lists interior DAG node ids in topological order;
    ``inputs`` the DAG node ids whose values feed the block (leaves or
    other blocks' outputs); ``output`` the root node id whose value the
    block produces.
    """

    block_id: int
    nodes: List[int] = field(default_factory=list)
    inputs: List[int] = field(default_factory=list)
    output: int = -1
    depth: int = 0

    @property
    def num_ops(self) -> int:
        return len(self.nodes)


def decompose_blocks(dag: Dag, max_depth: int) -> List[Block]:
    """Greedy depth-bounded decomposition into tree-shaped blocks.

    Requires a two-input-regularized DAG (fan-in ≤ 2).  The returned
    blocks cover every interior node exactly once; each block is a tree
    whose root is ``block.output``.  Use :func:`block_dependencies` for
    the scheduling order — block ids are creation order, not dependency
    order.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    plan = dag.plan()
    if plan.max_fan_in > 2:
        raise ValueError("block decomposition requires a two-input DAG")

    # Per-node state lives in flat arrays indexed by the dense node id.
    # Parent counts span the whole DAG, not just the reachable part.
    size = len(plan.ops)
    parent_count, leaf, children_of = plan.parents, plan.leaf, plan.children
    block_of = [-1] * size  # block id of each placed interior node
    depth_of = [0] * size  # depth within its block
    materialized = bytearray(size)  # values living in registers/SRAM
    # Open blocks as parallel columns indexed by block id (creation
    # order); a merged-away block keeps an empty node list.  Input lists
    # keep insertion order (it defines operand read order) and hold at
    # most 2 ** max_depth values, so membership is a short scan.
    block_nodes: List[List[int]] = []
    block_inputs: List[List[int]] = []
    block_depth: List[int] = []

    for node_id in plan.order:
        if leaf[node_id]:
            materialized[node_id] = 1
            continue

        children = children_of[node_id]
        mergeable: List[int] = []  # open child blocks we could absorb
        max_child_depth = 0
        for child in children:
            if materialized[child]:
                continue
            if parent_count[child] > 1:
                # Shared value: close the child's block here.
                materialized[child] = 1
                continue
            mergeable.append(block_of[child])
            child_depth = depth_of[child]
            if child_depth > max_child_depth:
                max_child_depth = child_depth

        new_depth = 1 + max_child_depth
        if new_depth > max_depth:
            # Close every open child block and start a fresh block.
            for child in children:
                materialized[child] = 1
            mergeable = []
            new_depth = 1

        if mergeable:
            target = mergeable[0]
            nodes, inputs = block_nodes[target], block_inputs[target]
            for other in mergeable[1:]:  # at most one: fan-in ≤ 2
                if other == target:
                    continue
                moved = block_nodes[other]
                nodes.extend(moved)
                for value in block_inputs[other]:
                    if value not in inputs:
                        inputs.append(value)
                for moved_id in moved:
                    block_of[moved_id] = target
                block_nodes[other] = []
        else:
            target = len(block_nodes)
            nodes, inputs = [], []
            block_nodes.append(nodes)
            block_inputs.append(inputs)
            block_depth.append(0)

        nodes.append(node_id)
        for child in children:
            if materialized[child] and child not in inputs:
                inputs.append(child)
        if new_depth > block_depth[target]:
            block_depth[target] = new_depth
        block_of[node_id] = target
        depth_of[node_id] = new_depth

    # A block's output is its last node: the node that joined it last.
    live = [
        Block(block_id, nodes, block_inputs[block_id], nodes[-1], block_depth[block_id])
        for block_id, nodes in enumerate(block_nodes)
        if nodes
    ]
    _validate_blocks(plan, live, max_depth)
    return live


def _validate_blocks(plan: DagPlan, blocks: Sequence[Block], max_depth: int) -> None:
    covered = bytearray(len(plan.ops))
    for block in blocks:
        if block.depth > max_depth:
            raise AssertionError(f"block {block.block_id} exceeds depth budget")
        if any(map(covered.__getitem__, block.nodes)):
            overlap = {node_id for node_id in block.nodes if covered[node_id]}
            raise AssertionError(f"nodes in multiple blocks: {sorted(overlap)[:5]}")
        for node_id in block.nodes:
            covered[node_id] = 1
    leaf = plan.leaf
    missing = [n for n in plan.order if not (leaf[n] or covered[n])]
    if missing:
        raise AssertionError(f"nodes not covered by any block: {sorted(missing)[:5]}")


def block_dependencies(dag: Dag, blocks: Sequence[Block]) -> Dict[int, Set[int]]:
    """block_id → set of block_ids whose outputs it reads.

    A block's interior inputs are always other blocks' outputs (a node
    read from outside its block is materialized, which closes its
    block), so the edges are read off ``inputs``; leaves have no owner.
    """
    owner = {block.output: block.block_id for block in blocks}
    return {
        block.block_id: {owner[value] for value in block.inputs if value in owner}
        for block in blocks
    }


def topological_block_order(
    dag: Dag,
    blocks: Sequence[Block],
    deps: Optional[Dict[int, Set[int]]] = None,
) -> List[Block]:
    """Blocks sorted so every block follows its producers.

    ``deps`` accepts a precomputed :func:`block_dependencies` result so
    callers that need both don't pay the edge walk twice.
    """
    if deps is None:
        deps = block_dependencies(dag, blocks)
    by_id = {block.block_id: block for block in blocks}
    done: Set[int] = set()
    out: List[Block] = []

    def visit(block_id: int, trail: Set[int]) -> None:
        if block_id in done:
            return
        if block_id in trail:
            raise AssertionError("cycle among blocks")
        trail.add(block_id)
        for dep in sorted(deps[block_id]):
            visit(dep, trail)
        trail.discard(block_id)
        done.add(block_id)
        out.append(by_id[block_id])

    for block in blocks:
        visit(block.block_id, set())
    return out
