"""The two-input rewrite's SUM reduction, as properties of random DAGs.

``regularize_two_input`` reduces a SUM of fan-in n > 2 with a balanced
tree of exactly n - 1 two-input SUMs that carry the child weights: a
lone child of the reduction gives its weight to its parent's slot, and
a subtree enters its parent's slot with weight 1.  So the rewrite adds
no one-child SUM, every weight of the input lands in one slot of the
output, and the output computes the input's value: exactly, in
rational arithmetic, on every DAG; and bit for bit in floats, through
``evaluate_dag`` and through a compiled program's ``run_program``,
wherever float arithmetic is exact on both DAGs.
"""

import math
from collections import Counter
from fractions import Fraction

from hypothesis import assume, given, settings

from repro import ReasonSession
from repro.core.dag import OpType, evaluate_dag, regularize_two_input
from repro.core.dag.graph import LEAF_OPS

from tests import corpus

#: Past this many bits in a numerator or denominator a value is not a
#: float's, and products of products would make exact arithmetic slow.
_MAX_BITS = 64


def exact_values(dag):
    """``evaluate_dag(dag, {})`` in rational arithmetic: node id ->
    ``Fraction``, or ``None`` once a value outgrows :data:`_MAX_BITS`."""
    plan = dag.plan()
    values = {}
    for node_id in plan.order:
        op, payload = plan.ops[node_id], plan.payloads[node_id]
        kids = [values[child] for child in plan.children[node_id]]
        if op in LEAF_OPS:
            table = payload[1] if op is OpType.LEAF and payload is not None else ()
            value = sum(map(Fraction, table), Fraction(0))
        elif op is OpType.NOT:
            value = 1 - kids[0]
        elif op is OpType.OR:
            value = Fraction(any(kid > 0 for kid in kids))
        elif op is OpType.AND:
            value = Fraction(all(kid > 0 for kid in kids))
        elif op is OpType.PRODUCT:
            value = math.prod(kids, start=Fraction(1))
        else:
            weights = map(Fraction, plan.weights[node_id])
            value = sum((weight * kid for weight, kid in zip(weights, kids)), Fraction(0))
        if max(value.numerator.bit_length(), value.denominator.bit_length()) > _MAX_BITS:
            return None
        values[node_id] = value
    return values


def sum_shape(dag) -> tuple:
    """The fan-ins of the DAG's reachable SUMs and the weights of their
    slots that are not 1, as multisets."""
    plan = dag.plan()
    sums = [node for node in plan.order if plan.ops[node] is OpType.SUM]
    fan_ins = Counter(len(plan.children[node]) for node in sums)
    weights = Counter(w for node in sums for w in plan.weights[node] if w != 1.0)
    return fan_ins, weights


@settings(max_examples=300, deadline=None)
@given(corpus.built_graphs())
def test_property_an_n_ary_sum_becomes_n_minus_1_two_input_sums(specs):
    dag = corpus.build_from_specs(specs)
    regular = regularize_two_input(dag)
    plan = dag.plan()
    # A reachable node of an associative op and fan-in n > 2 becomes
    # n - 1 nodes; every other one is copied once.
    nodes = 0
    for node in plan.order:
        fan_in = len(plan.children[node])
        nodes += fan_in - 1 if plan.ops[node] in corpus.WIDE_OPS and fan_in > 2 else 1
    assert len(regular) == len(regular.plan().order) == nodes

    fan_ins, weights = sum_shape(dag)
    expected = Counter()
    for fan_in, count in fan_ins.items():
        expected[min(fan_in, 2)] += (fan_in - 1 if fan_in > 2 else 1) * count
    # No one-child SUM is added, and no weight is lost or made up.
    assert sum_shape(regular) == (expected, weights)


@settings(max_examples=200, deadline=None)
@given(corpus.built_graphs(min_fan_in=1))
def test_property_the_rewrite_and_its_program_compute_the_n_ary_value(specs):
    """Fan-in 1 and up: an op with no operands does not execute on a PE."""
    dag = corpus.build_from_specs(specs)
    regular = regularize_two_input(dag)
    exact, regular_exact = exact_values(dag), exact_values(regular)
    assume(exact is not None and regular_exact is not None)
    assert regular_exact[regular.root] == exact[dag.root]

    floats, regular_floats = evaluate_dag(dag, {}), evaluate_dag(regular, {})
    assume(floats == exact and regular_floats == regular_exact)
    value = floats[dag.root]
    assert regular_floats[regular.root] == value
    assert ReasonSession().run(dag).result == value
