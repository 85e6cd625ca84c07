"""Stage 3: two-input DAG regularization (paper Sec. IV-C).

Nodes with fan-in > 2 are recursively decomposed into balanced binary
trees of two-input intermediate nodes of the same op.  SUM nodes push
their edge weights into the first binary layer (each original weighted
edge becomes a weight-1 internal edge below a weighted leaf-level edge),
preserving the computed function exactly.  The canonical form gives
every kernel the same shape as REASON's binary tree PEs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.dag.graph import Dag, OpType

# Ops where an n-ary node equals a balanced tree of 2-ary nodes.
_ASSOCIATIVE = {OpType.OR, OpType.AND, OpType.SUM, OpType.PRODUCT}


def is_two_input(dag: Dag) -> bool:
    """True when every reachable node has fan-in ≤ 2."""
    return dag.max_fan_in() <= 2


def regularize_two_input(dag: Dag) -> Dag:
    """Return an equivalent DAG whose every node has fan-in ≤ 2.

    The rewrite is semantics-preserving for associative ops; a SUM node
    first multiplies each child by its weight (expressed as a unary
    weighted SUM when the weight differs from 1), then reduces with a
    balanced tree of unweighted two-input SUMs, keeping depth at
    ``ceil(log2 fan_in)`` extra levels.
    """
    out = Dag()
    mapping: Dict[int, int] = {}

    def balanced_reduce(op: OpType, children: List[int]) -> int:
        if len(children) == 1:
            return children[0]
        if len(children) == 2:
            weights = [1.0, 1.0] if op is OpType.SUM else None
            return out.add_op(op, children, weights=weights)
        mid = (len(children) + 1) // 2
        left = balanced_reduce(op, children[:mid])
        right = balanced_reduce(op, children[mid:])
        weights = [1.0, 1.0] if op is OpType.SUM else None
        return out.add_op(op, [left, right], weights=weights)

    for node_id in dag.topological_order():
        node = dag.node(node_id)
        children = [mapping[c] for c in node.children]
        if node.fan_in <= 2 or node.op not in _ASSOCIATIVE:
            mapping[node_id] = out.add_op(node.op, children, node.payload, node.weights)
            continue
        if node.op is OpType.SUM:
            assert node.weights is not None
            scaled: List[int] = []
            for child, weight in zip(children, node.weights):
                if weight == 1.0:
                    scaled.append(child)
                else:
                    scaled.append(out.add_op(OpType.SUM, [child], weights=[weight]))
            mapping[node_id] = balanced_reduce(OpType.SUM, scaled)
        else:
            mapping[node_id] = balanced_reduce(node.op, children)

    assert dag.root is not None
    out.set_root(mapping[dag.root])
    return out
