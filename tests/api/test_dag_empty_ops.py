"""A raw DAG's op node with no children is refused before it compiles.

``Dag.add_op`` takes an op with no children, and ``evaluate_dag`` gives
one a value, but the accelerator's trees have nothing to combine for it:
such a DAG used to compile, enter the cache, and then fail in
``run_program`` naming a PE tree position.  ``DagAdapter.prepare`` now
rejects it, naming the DAG node and its op.
"""

import pytest

from repro import ReasonSession
from repro.core.dag import Dag, OpType


def product_over_an_empty(op: OpType) -> Dag:
    """A PRODUCT over a LEAF and an ``op`` node with no children (id 1)."""
    dag = Dag()
    leaf = dag.add_op(OpType.LEAF, payload=(0, [0.3, 0.7]))
    empty = dag.add_op(op, [])
    dag.set_root(dag.add_op(OpType.PRODUCT, [leaf, empty]))
    return dag


@pytest.mark.parametrize(
    "op", [OpType.SUM, OpType.PRODUCT, OpType.AND, OpType.OR, OpType.NOT]
)
def test_an_empty_op_node_is_refused_before_anything_is_cached(op):
    session = ReasonSession()
    with pytest.raises(ValueError, match=f"DAG node 1 is a {op.name} with no children"):
        session.run(product_over_an_empty(op))
    assert len(session._cache) == 0 and session.prepare_calls == 0


def test_an_unreachable_empty_op_node_is_not_checked():
    dag = Dag()
    leaf = dag.add_op(OpType.LEAF, payload=(0, [0.3, 0.7]))
    dag.add_op(OpType.SUM, [])
    dag.set_root(dag.add_op(OpType.PRODUCT, [leaf]))
    assert ReasonSession().run(dag).result == pytest.approx(1.0)
