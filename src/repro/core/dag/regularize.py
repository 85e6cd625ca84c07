"""Stage 3: two-input DAG regularization (paper Sec. IV-C).

Nodes with fan-in > 2 are recursively decomposed into balanced binary
trees of two-input intermediate nodes of the same op.  A SUM node of
fan-in > 2 gives each child whose weight differs from 1 a unary
weighted SUM of its own, then adds the scaled children with a balanced
tree of unweighted two-input SUMs, preserving the computed function
exactly.  A SUM of fan-in ≤ 2 is copied with its weights.  The
canonical form gives every kernel the same shape as REASON's binary
tree PEs.

The rewrite walks the input's node order — its
:meth:`~repro.core.dag.graph.Dag.plan`'s, or the same depth-first
post-order counted by :meth:`~repro.core.dag.graph.DagColumns.reachable`
— and adds nodes in it, so the output's ids are a function of that
order.  ``optimize`` rewrites a circuit's or HMM's columns
(:func:`two_input`), so the n-ary DAG it prunes is never planned.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.dag.graph import Dag, DagColumns, OpType

# Ops where an n-ary node equals a balanced tree of 2-ary nodes.
_ASSOCIATIVE = frozenset({OpType.OR, OpType.AND, OpType.SUM, OpType.PRODUCT})
_ONES = (1.0, 1.0)  # the weights of an unweighted two-input SUM


def is_two_input(dag: Dag) -> bool:
    """True when every reachable node has fan-in ≤ 2."""
    return dag.plan().max_fan_in <= 2


def regularize_two_input(dag: Dag) -> Dag:
    """Return an equivalent DAG whose every node has fan-in ≤ 2.

    The rewrite is semantics-preserving for associative ops; a SUM node
    first multiplies each child by its weight (expressed as a unary
    weighted SUM when the weight differs from 1), then reduces with a
    balanced tree of unweighted two-input SUMs, keeping depth at
    ``ceil(log2 fan_in)`` extra levels.
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

    def balanced_reduce(op: OpType, children: List[int]) -> int:
        if len(children) == 1:
            return children[0]
        if len(children) > 2:
            mid = (len(children) + 1) // 2
            children = [
                balanced_reduce(op, children[:mid]),
                balanced_reduce(op, children[mid:]),
            ]
        return add_op(op, children, weights=_ONES if op is sum_op else None)

    ops, children_of, payloads, weights_of, root = columns
    mapped = [-1] * len(ops)  # input id -> output id
    remap = mapped.__getitem__
    for node_id in order:
        op, kids = ops[node_id], children_of[node_id]
        if len(kids) <= 2 or op not in _ASSOCIATIVE:
            # A copy of the node over the new ids.
            weights = weights_of[node_id] if op is sum_op else None
            mapped[node_id] = add_op(op, map(remap, kids), payloads[node_id], weights)
        elif op is sum_op:
            scaled = [
                child if weight == 1.0 else add_op(sum_op, (child,), weights=(weight,))
                for child, weight in zip(map(remap, kids), weights_of[node_id])
            ]
            mapped[node_id] = balanced_reduce(sum_op, scaled)
        else:
            mapped[node_id] = balanced_reduce(op, list(map(remap, kids)))

    out.set_root(mapped[root])
    return out
