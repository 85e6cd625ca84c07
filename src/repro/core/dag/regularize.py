"""Stage 3: two-input DAG regularization (paper Sec. IV-C).

Nodes with fan-in > 2 are recursively decomposed into balanced binary
trees of two-input intermediate nodes of the same op, n - 1 of them
for fan-in n.  A SUM's tree carries its child weights, as a tree PE's
SUM takes one weight per child: a child of the input SUM enters its
slot with its own weight, and an intermediate SUM enters its parent's
with weight 1, so the weights cost no node of their own.  A node of
fan-in ≤ 2 is copied, a SUM with its weights.  The canonical form
gives every kernel the same shape as REASON's binary tree PEs.

The rewrite walks the input's node order — its
:meth:`~repro.core.dag.graph.Dag.plan`'s, or the same depth-first
post-order counted by :meth:`~repro.core.dag.graph.DagColumns.reachable`
— and adds nodes in it, so the output's ids are a function of that
order.  ``optimize`` rewrites a circuit's or HMM's columns
(:func:`two_input`), so the n-ary DAG it prunes is never planned.
"""

from __future__ import annotations

from itertools import repeat
from typing import Sequence, Tuple

from repro.core.dag.graph import Dag, DagColumns, OpType

# Ops where an n-ary node equals a balanced tree of 2-ary nodes.
_ASSOCIATIVE = frozenset({OpType.OR, OpType.AND, OpType.SUM, OpType.PRODUCT})


def is_two_input(dag: Dag) -> bool:
    """True when every reachable node has fan-in ≤ 2."""
    return dag.plan().max_fan_in <= 2


def regularize_two_input(dag: Dag) -> Dag:
    """Return an equivalent DAG whose every node has fan-in ≤ 2.

    The rewrite is semantics-preserving for associative ops: a node of
    fan-in n > 2 becomes a balanced tree of n - 1 two-input nodes,
    ``ceil(log2 n)`` levels deep.  A SUM's tree weights each input
    child in the slot that reads it and each intermediate SUM by 1, so
    it adds no one-child node.
    """
    plan = dag.plan()
    columns = DagColumns(plan.ops, plan.children, plan.payloads, plan.weights, dag.root)
    return two_input(columns, plan.order)


def two_input(columns: DagColumns, order: Sequence[int]) -> Dag:
    """:func:`regularize_two_input` of the graph ``columns`` lay out,
    walked in ``order`` (``columns.reachable()``'s): no plan of the
    input is built."""
    out = Dag()
    add_op = out.add_op
    sum_op = OpType.SUM

    def balanced_reduce(op: OpType, pairs: Sequence[Tuple[int, float]]) -> Tuple[int, float]:
        # A lone (child, weight) pair gives its weight to its parent's
        # slot; a two-input node built here takes its two slots' weights
        # and enters its own parent's slot with weight 1.
        if len(pairs) == 1:
            return pairs[0]
        if len(pairs) > 2:
            mid = (len(pairs) + 1) // 2
            pairs = (balanced_reduce(op, pairs[:mid]), balanced_reduce(op, pairs[mid:]))
        (left, left_weight), (right, right_weight) = pairs
        weights = (left_weight, right_weight) if op is sum_op else None
        return add_op(op, (left, right), weights=weights), 1.0

    ops, children_of, payloads, weights_of, root = columns
    mapped = [-1] * len(ops)  # input id -> output id
    remap = mapped.__getitem__
    for node_id in order:
        op, kids = ops[node_id], children_of[node_id]
        weights = weights_of[node_id] if op is sum_op else None
        if len(kids) <= 2 or op not in _ASSOCIATIVE:
            # A copy of the node over the new ids.
            mapped[node_id] = add_op(op, map(remap, kids), payloads[node_id], weights)
        else:
            pairs = list(zip(map(remap, kids), weights or repeat(1.0)))
            mapped[node_id] = balanced_reduce(op, pairs)[0]

    out.set_root(mapped[root])
    return out
