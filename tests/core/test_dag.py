"""Tests for the unified DAG IR, builders, pruning, and regularization."""

import collections
import itertools
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ReasonSession
from repro.core.dag import (
    Dag,
    OpType,
    OptimizationResult,
    circuit_to_dag,
    cnf_to_dag,
    default_leaf_inputs,
    evaluate_dag,
    hmm_to_dag,
    is_two_input,
    optimize,
    prune_circuit_by_flow,
    prune_hmm_by_posterior,
    prune_logic_dag,
    regularize_two_input,
)
from repro.core.dag.builders import (
    circuit_dag_footprint,
    cnf_dag_footprint,
    hmm_dag_footprint,
)
from repro.core.dag.graph import LEAF_OPS
from repro.core.dag.pruning import MIN_SUM_CHILDREN
from repro.hmm.inference import log_likelihood as hmm_log_likelihood
from repro.hmm.model import HMM
from repro.logic.cdcl import solve_cnf
from repro.logic.cnf import CNF, Clause
from repro.logic.generators import random_ksat
from repro.pc.circuit import Circuit, ProductNode, SumNode, bernoulli_leaf
from repro.pc.flows import dataset_edge_flows, flow_pruning_bound
from repro.pc.inference import likelihood
from repro.pc.learn import random_circuit, sample_dataset

from tests import corpus


class TestDagCore:
    def test_add_rejects_unknown_children(self):
        dag = Dag()
        with pytest.raises(KeyError):
            dag.add_op(OpType.AND, [99])

    def test_sum_node_defaults_weights(self):
        dag = Dag()
        a = dag.add_op(OpType.LEAF, payload=(0, (1.0,)))
        s = dag.add_op(OpType.SUM, [a])
        dag.set_root(s)
        assert dag.plan().weights[s] == (1.0,)

    def test_add_op_keeps_array_weights(self):
        # An array is not truth-tested: a zero weight is stored as given
        # (it used to become the default 1.0) and a two-weight array is
        # accepted (it used to raise numpy's "truth value ... ambiguous").
        dag = Dag()
        a = dag.add_op(OpType.LEAF, payload=(0, (1.0,)))
        b = dag.add_op(OpType.LEAF, payload=(1, (1.0,)))
        zero = dag.add_op(OpType.SUM, [a], weights=np.array([0.0]))
        pair = dag.add_op(OpType.SUM, [a, b], weights=np.array([0.25, 0.75]))
        dag.set_root(zero)
        assert dag.plan().weights[zero] == (0.0,)
        assert dag.plan().weights[pair] == (0.25, 0.75)
        assert evaluate_dag(dag, {})[zero] == 0.0

    def test_add_op_copies_list_weights(self):
        dag = Dag()
        a = dag.add_op(OpType.LEAF, payload=(0, (1.0,)))
        weights = [0.5]
        s = dag.add_op(OpType.SUM, [a], weights=weights)
        weights[0] = 9.0
        product = dag.add_op(OpType.PRODUCT, [a, s])
        dag.set_root(product)
        assert dag.plan().weights[s] == (0.5,) and dag.plan().weights[product] == ()
        with pytest.raises(ValueError, match="parallel"):
            dag.add_op(OpType.SUM, [a], weights=[0.5, 0.5])

    def test_weight_child_mismatch_raises(self):
        dag = Dag()
        a = dag.add_op(OpType.LEAF, payload=(0, (1.0,)))
        b = dag.add_op(OpType.LEAF, payload=(1, (1.0,)))
        with pytest.raises(ValueError, match="parallel"):
            dag.add_op(OpType.SUM, [a, b], weights=[1.0])
        assert len(dag) == 2

    def test_weights_on_a_non_sum_node_are_rejected(self):
        # Only SUM edges carry weights: a PRODUCT's used to be stored,
        # counted by memory_footprint() and keyed, yet never applied.
        dag = Dag()
        x = dag.add_op(OpType.LEAF, payload=(0, (1.0,)))
        y = dag.add_op(OpType.LEAF, payload=(1, (1.0,)))
        with pytest.raises(ValueError, match="PRODUCT"):
            dag.add_op(OpType.PRODUCT, [x, y], weights=[0.5, 0.5])
        with pytest.raises(ValueError, match="AND"):
            dag.add_op(OpType.AND, [x, y], weights=[1.0, 1.0])
        assert len(dag) == 2
        dag.set_root(dag.add_op(OpType.PRODUCT, [x, y]))
        assert dag.memory_footprint() == 5

    def test_add_copies_the_callers_children(self):
        dag = Dag()
        l1 = dag.add_op(OpType.LITERAL, payload=1)
        l2 = dag.add_op(OpType.LITERAL, payload=2)
        kids = [l1]
        o = dag.add_op(OpType.OR, kids)
        kids.append(l2)
        dag.set_root(o)
        assert dag.plan().children[o] == (l1,)
        assert dag.plan().order == [l1, o]

    def test_a_payload_less_leaf_reads_zero_everywhere(self):
        # A LEAF with no payload has no mass to marginalise: 0.0 as an
        # input, as evaluate_dag reads it, and on the accelerator.
        dag = Dag()
        bare = dag.add_op(OpType.LEAF)
        table = dag.add_op(OpType.LEAF, payload=(0, (0.25, 0.75)))
        dag.set_root(dag.add_op(OpType.SUM, [bare, table], weights=[0.5, 0.5]))
        assert default_leaf_inputs(dag) == {bare: 0.0, table: 1.0}
        assert evaluate_dag(dag, {})[dag.root] == 0.5
        assert ReasonSession().run(dag).result == 0.5

    def test_plan_keeps_its_columns_when_the_dag_grows(self):
        dag = Dag()
        a = dag.add_op(OpType.LITERAL, payload=1)
        dag.set_root(a)
        plan = dag.plan()
        dag.set_root(dag.add_op(OpType.NOT, [a]))
        assert (plan.ops, plan.children, plan.order) == ([OpType.LITERAL], [()], [a])
        assert dag.plan().ops == [OpType.LITERAL, OpType.NOT]

    def test_topological_order_children_first(self):
        dag = Dag()
        a = dag.add_op(OpType.LITERAL, payload=1)
        b = dag.add_op(OpType.LITERAL, payload=2)
        o = dag.add_op(OpType.OR, [a, b])
        dag.set_root(o)
        order = dag.plan().order
        assert order.index(a) < order.index(o)
        assert order.index(b) < order.index(o)

    def test_root_required_for_topological_order(self):
        with pytest.raises(ValueError, match="no root"):
            Dag().plan()

    def test_depth_and_fan_in(self):
        formula = CNF([Clause([1, 2, 3]), Clause([-1, 2])])
        dag, _ = cnf_to_dag(formula)
        assert dag.depth() == 2
        assert dag.plan().max_fan_in == 3

    def test_memory_footprint_counts_nodes_edges_weights(self):
        dag = Dag()
        a = dag.add_op(OpType.LEAF, payload=(0, (1.0,)))
        b = dag.add_op(OpType.LEAF, payload=(1, (1.0,)))
        s = dag.add_op(OpType.SUM, [a, b], weights=[0.5, 0.5])
        dag.set_root(s)
        # nodes 3 + edges 2 + weights 2
        assert dag.memory_footprint() == 7

    def test_op_histogram(self):
        dag, _ = cnf_to_dag(CNF([Clause([1, 2])]))
        hist = dag.op_histogram()
        assert hist[OpType.LITERAL] == 2
        assert hist[OpType.OR] == 1
        assert hist[OpType.AND] == 1


def dag_likelihood(dag: Dag, evidence) -> float:
    """A probabilistic DAG's root value under circuit evidence: each LEAF
    reads its table at the variable's value, or sums it when the
    variable is absent."""
    plan = dag.plan()
    inputs = {}
    for node_id, (op, payload) in enumerate(zip(plan.ops, plan.payloads)):
        if op is OpType.LEAF:
            variable, table = payload
            value = evidence.get(variable)
            inputs[node_id] = sum(table) if value is None else table[value]
    return evaluate_dag(dag, inputs)[dag.root]


def reference_topological_order(dag: Dag) -> list:
    """The node order as it was before the plan: the stack walk over
    the children column whose order the plan has to keep."""
    order, state = [], {}  # 0 visiting, 1 done
    stack = [(dag.root, False)]
    while stack:
        node_id, processed = stack.pop()
        if processed:
            state[node_id] = 1
            order.append(node_id)
            continue
        if node_id in state:
            if state[node_id] == 0:
                raise ValueError("cycle detected in DAG")
            continue
        state[node_id] = 0
        stack.append((node_id, True))
        for child in dag._children[node_id]:
            if state.get(child) != 1:
                if state.get(child) == 0:
                    raise ValueError("cycle detected in DAG")
                stack.append((child, False))
    return order


def random_dag(seed: int, leaves: int, ops: int) -> Dag:
    """Ops of fan-in 1-4 over earlier nodes, some repeating a child; the
    last op is the root, so some nodes are unreachable."""
    rng = random.Random(seed)
    dag = Dag()
    nodes = [dag.add_op(OpType.LITERAL, payload=i + 1) for i in range(0, leaves, 2)]
    nodes += [dag.add_op(OpType.LEAF, payload=(i, (0.5,))) for i in range(1, leaves, 2)]
    for _ in range(ops):
        children = [rng.choice(nodes[-6:]) for _ in range(rng.randint(1, 4))]
        op = rng.choice([OpType.SUM, OpType.PRODUCT, OpType.AND, OpType.OR])
        weights = None
        if op is OpType.SUM:  # an int weight too: the plan's are floats
            weights = [rng.choice([1, 0.5, 0.25]) for _ in children]
        nodes.append(dag.add_op(op, children, weights=weights))
    dag.set_root(nodes[-1])
    return dag


class TestDagPlan:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=40),
    )
    def test_property_plan_equals_the_object_graph(self, seed, leaves, ops):
        dag = random_dag(seed, leaves, ops)
        plan = dag.plan()
        live = reference_topological_order(dag)
        assert plan.order == live
        ops, kids, weights = dag._ops, dag._children, dag._weights
        assert (plan.ops, plan.children, plan.weights) == (ops, kids, weights)
        assert plan.leaf == [op in LEAF_OPS for op in ops]
        assert all(type(w) is float for sums in plan.weights for w in sums)
        parents = collections.Counter(c for children in kids for c in children)
        assert plan.parents == [parents[node_id] for node_id in range(len(ops))]
        assert plan.num_edges == sum(map(len, kids))
        assert plan.max_fan_in == max(len(kids[i]) for i in live)
        assert plan.footprint == sum(1 + len(kids[i]) + len(weights[i]) for i in live)

    def test_plan_is_built_once_and_dropped_by_mutation(self):
        dag, _ = cnf_to_dag(CNF([Clause([1, 2]), Clause([-1, 3])]))
        plan = dag.plan()
        assert dag.plan() is plan
        dag.set_root(dag.root)
        assert dag.plan() is plan
        leaf = dag.add_op(OpType.LITERAL, payload=4)
        assert dag.plan() is not plan
        plan = dag.plan()
        dag.set_root(leaf)
        assert dag.plan() is not plan and dag.plan().order == [leaf]

    def test_plan_stays_out_of_pickles(self):
        dag, _ = cnf_to_dag(random_ksat(6, 12, seed=3))
        plan = dag.plan()
        restored = pickle.loads(pickle.dumps(dag))
        assert "_plan" not in restored.__dict__
        assert dag.plan() is plan
        assert restored.plan().order == plan.order

    def test_plan_needs_a_root_and_rejects_a_cycle(self):
        with pytest.raises(ValueError, match="no root"):
            Dag().plan()
        dag = Dag()
        a = dag.add_op(OpType.LITERAL, payload=1)
        b = dag.add_op(OpType.NOT, [a])
        dag.set_root(b)
        # ``add_op`` only takes existing children, so no DAG built through
        # it has a cycle; corrupt the children column to plant one.
        dag._children[a] = (b,)
        with pytest.raises(ValueError, match="cycle"):
            dag.plan()


def records(dag: Dag) -> list:
    """``(op, children, payload, weights)`` per node id, from the plan's
    columns."""
    plan = dag.plan()
    return list(zip(plan.ops, plan.children, plan.payloads, plan.weights))


def reference_regularize(dag: Dag):
    """``regularize_two_input``'s rule, derived over the columns from the
    rule it replaced: the old rewrite gave each SUM child whose weight is
    not 1 a one-child weighted SUM of its own, then reduced with
    unweighted two-input SUMs.  Folding each such one-child SUM into the
    slot that reads it (its child and its weight take the slot) and
    dropping it from the id order gives the output's :func:`records`,
    and its root."""
    out = []
    scaling = set()  # the one-child SUMs the old rule added

    def add(op, children, payload=None, weights=()):
        out.append((op, tuple(children), payload, tuple(weights)))
        return len(out) - 1

    def balanced_reduce(op, children):
        if len(children) == 1:
            return children[0]
        if len(children) > 2:
            mid = (len(children) + 1) // 2
            children = [balanced_reduce(op, children[:mid]), balanced_reduce(op, children[mid:])]
        return add(op, children, weights=[1.0, 1.0] if op is OpType.SUM else ())

    mapped = {}
    for node_id in reference_topological_order(dag):
        op, weights = dag._ops[node_id], dag._weights[node_id]
        children = [mapped[c] for c in dag._children[node_id]]
        if len(children) <= 2 or op not in corpus.WIDE_OPS:
            mapped[node_id] = add(op, children, dag._payloads[node_id], weights)
        elif op is OpType.SUM:
            scaled = []
            for child, weight in zip(children, weights):
                if weight != 1.0:
                    child = add(OpType.SUM, [child], weights=[weight])
                    scaling.add(child)
                scaled.append(child)
            mapped[node_id] = balanced_reduce(OpType.SUM, scaled)
        else:
            mapped[node_id] = balanced_reduce(op, children)

    kept = [node for node in range(len(out)) if node not in scaling]
    renumber = {node: index for index, node in enumerate(kept)}
    folded = []
    for node in kept:
        op, children, payload, weights = out[node]
        if scaling.intersection(children):
            weights = tuple(out[c][3][0] if c in scaling else w for c, w in zip(children, weights))
            children = tuple(out[c][1][0] if c in scaling else c for c in children)
        folded.append((op, tuple(renumber[c] for c in children), payload, weights))
    return folded, renumber[mapped[dag.root]]


class TestDagColumns:
    @settings(max_examples=200, deadline=None)
    @given(corpus.built_graphs())
    def test_property_columns_equal_the_graph_as_built(self, specs):
        dag = corpus.build_from_specs(specs)
        expected = []
        for op, children, extra in specs:
            if op in LEAF_OPS:
                expected.append((op, (), extra, ()))
            elif op is OpType.SUM:
                weights = (1.0,) * len(children) if extra is None else tuple(map(float, extra))
                expected.append((op, tuple(children), None, weights))
            else:
                expected.append((op, tuple(children), None, ()))
        assert len(dag) == dag.num_nodes == len(specs)
        assert records(dag) == expected
        assert all(type(w) is float for weights in dag.plan().weights for w in weights)
        assert dag.plan().order == reference_topological_order(dag)

    @settings(max_examples=200, deadline=None)
    @given(corpus.built_graphs())
    def test_property_regularize_equals_the_node_object_rewrite(self, specs):
        dag = corpus.build_from_specs(specs)
        regular = regularize_two_input(dag)
        nodes, root = reference_regularize(dag)
        assert records(regular) == nodes
        assert regular.root == root
        assert is_two_input(regular)


class TestEvaluate:
    def test_logic_semantics(self):
        formula = CNF([Clause([1, 2]), Clause([-1])])
        dag, literal_nodes = cnf_to_dag(formula)
        # Assignment x1=False, x2=True satisfies formula.
        inputs = {literal_nodes[1]: 0.0, literal_nodes[2]: 1.0, literal_nodes[-1]: 1.0}
        values = evaluate_dag(dag, inputs)
        assert values[dag.root] == 1.0

    def test_logic_unsatisfying_assignment(self):
        formula = CNF([Clause([1]), Clause([-1])])
        dag, literal_nodes = cnf_to_dag(formula)
        inputs = {literal_nodes[1]: 1.0, literal_nodes[-1]: 0.0}
        assert evaluate_dag(dag, inputs)[dag.root] == 0.0

    def test_arithmetic_semantics(self):
        dag = Dag()
        a = dag.add_op(OpType.LEAF, payload=(0, (0.25,)))
        b = dag.add_op(OpType.LEAF, payload=(1, (4.0,)))
        p = dag.add_op(OpType.PRODUCT, [a, b])
        dag.set_root(p)
        assert evaluate_dag(dag, {})[p] == pytest.approx(1.0)

    def test_not_semantics(self):
        dag = Dag()
        a = dag.add_op(OpType.LITERAL, payload=1)
        n = dag.add_op(OpType.NOT, [a])
        dag.set_root(n)
        assert evaluate_dag(dag, {a: 1.0})[n] == 0.0

    def test_cnf_dag_agrees_with_formula_pointwise(self):
        formula = random_ksat(5, 10, seed=40)
        dag, literal_nodes = cnf_to_dag(formula)
        variables = range(1, formula.num_vars + 1)
        for values in itertools.product([False, True], repeat=len(variables)):
            assignment = dict(zip(variables, values))
            inputs = {
                node: float(assignment[abs(literal)] == (literal > 0))
                for literal, node in literal_nodes.items()
            }
            expected = 1.0 if formula.is_satisfied_by(assignment) else 0.0
            assert evaluate_dag(dag, inputs)[dag.root] == expected


class TestBuilders:
    def test_cnf_dag_shares_literal_leaves(self):
        formula = CNF([Clause([1, 2]), Clause([1, 3])])
        dag, literal_nodes = cnf_to_dag(formula)
        assert len(literal_nodes) == 3  # literal 1 shared

    def test_circuit_dag_preserves_likelihood(self):
        circuit = random_circuit(5, depth=2, seed=1)
        dag, _ = circuit_to_dag(circuit)
        for evidence in ({0: 1}, {1: 0, 2: 1}, {}):
            assert dag_likelihood(dag, evidence) == pytest.approx(
                likelihood(circuit, evidence)
            )

    def test_hmm_unroll_computes_joint_likelihood(self):
        hmm = HMM.random(3, 4, seed=2)
        observations = [0, 2, 1, 3]
        dag = hmm_to_dag(hmm, observations)
        value = evaluate_dag(dag, {})[dag.root]
        assert math.log(value) == pytest.approx(hmm_log_likelihood(hmm, observations))

    def test_hmm_unroll_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            hmm_to_dag(HMM.random(2, 2, seed=3), [])

    def test_hmm_unroll_layers_scale_with_length(self):
        hmm = HMM.random(2, 2, seed=4)
        short = hmm_to_dag(hmm, [0, 1])
        long = hmm_to_dag(hmm, [0, 1, 0, 1, 0, 1])
        assert long.num_nodes > short.num_nodes


class TestLogicPruning:
    def test_pruned_dag_smaller_on_redundant_formulas(self):
        formula = CNF([Clause([-1, 2]), Clause([1, 2, 3])])
        dag, pruned_cnf, report = prune_logic_dag(formula)
        assert report.literals_removed >= 1
        baseline, _ = cnf_to_dag(formula)
        assert dag.memory_footprint() < baseline.memory_footprint()

    def test_equisatisfiable(self):
        for seed in range(5):
            formula = random_ksat(10, 35, k=2, seed=seed)
            _, pruned_cnf, _ = prune_logic_dag(formula)
            before, _ = solve_cnf(formula)
            after, _ = solve_cnf(pruned_cnf)
            assert before is after


class TestCircuitPruning:
    def test_prune_reduces_edges(self):
        circuit = random_circuit(6, depth=3, seed=5)
        data = sample_dataset(circuit, 50, seed=6)
        pruned, report = prune_circuit_by_flow(circuit, data, keep_fraction=0.6)
        assert report.edges_after < report.edges_before

    def test_pruned_circuit_remains_normalized_and_valid(self):
        circuit = random_circuit(6, depth=2, seed=7)
        data = sample_dataset(circuit, 40, seed=8)
        pruned, _ = prune_circuit_by_flow(circuit, data, keep_fraction=0.7)
        pruned.validate()
        assert likelihood(pruned, {}) == pytest.approx(1.0)

    def test_likelihood_degrades_within_reason(self):
        circuit = random_circuit(6, depth=2, seed=9)
        data = sample_dataset(circuit, 80, seed=10)
        pruned, report = prune_circuit_by_flow(circuit, data, keep_fraction=0.8)
        from repro.pc.inference import log_likelihood

        before = np.mean([log_likelihood(circuit, x) for x in data])
        after = np.mean([log_likelihood(pruned, x) for x in data])
        # Pruning the lowest-flow edges should barely move mean LL.
        assert after > before - 1.0

    def test_keep_fraction_one_is_identity(self):
        circuit = random_circuit(5, depth=2, seed=11)
        data = sample_dataset(circuit, 20, seed=12)
        pruned, report = prune_circuit_by_flow(circuit, data, keep_fraction=1.0)
        assert report.edges_after == report.edges_before

    @pytest.mark.parametrize("keep_fraction", [0.0, -0.2, 1.5])
    def test_invalid_keep_fraction(self, keep_fraction):
        # One rule, one message, for both probabilistic families.
        circuit = random_circuit(4, depth=2, seed=13)
        hmm = HMM.random(3, 3, seed=13)
        for kernel, calibration in ((circuit, [{}]), (hmm, [[0, 1, 2]])):
            with pytest.raises(ValueError, match=r"keep_fraction must lie in \(0, 1\]"):
                optimize(kernel, calibration=calibration, keep_fraction=keep_fraction)

    def test_empty_calibration_rejected(self):
        circuit = random_circuit(4, depth=2, seed=14)
        with pytest.raises(ValueError):
            prune_circuit_by_flow(circuit, [])

    @pytest.mark.parametrize(
        "first, last",
        [
            (None, [-0.5, 1.5]),
            ([-0.5, 1.5], None),
            ([-0.5, 1.5], [0.5, 0.5]),
            (None, [math.nan, 0.5]),
            ([math.inf, 0.5], None),
            ([math.inf, 0.5], [-0.5, 1.5]),
        ],
    )
    def test_bad_leaf_table_raises_the_first_bad_leafs_error(self, first, last):
        # The rebuild checks every leaf table in one batch; on a failure
        # the first bad leaf in plan order raises LeafNode's own error.
        # A rebind is checked by the setter, so only an in-place write
        # gets a bad table this far.
        leaves = [bernoulli_leaf(variable, 0.5) for variable in (0, 1, 0, 1)]
        products = [ProductNode(leaves[:2]), ProductNode(leaves[2:])]
        circuit = Circuit(SumNode(products, [0.5, 0.5]))
        assert [leaf.node_id for leaf in circuit.plan().leaves] == [
            leaf.node_id for leaf in leaves
        ]
        for leaf, table in ((leaves[0], first), (leaves[3], last)):
            if table is not None:
                leaf.probabilities[:] = table
        with pytest.raises(ValueError, match="finite and non-negative"):
            prune_circuit_by_flow(circuit, [{0: 1, 1: 0}], keep_fraction=0.5)

    def test_a_repeated_child_is_one_edge_per_slot(self):
        # ``SumNode([a, a, b])`` has three edges with three flows; the
        # lowest (slot 0) goes, though its child stays under slot 1.
        a, b = bernoulli_leaf(0, 0.8), bernoulli_leaf(0, 0.3)
        data = [{0: 1}, {0: 0}, {0: 1}]
        circuit = Circuit(SumNode([a, a, b], [0.2, 0.5, 0.3]))
        pruned, report = prune_circuit_by_flow(circuit, data, keep_fraction=0.4)
        assert [leaf.probabilities.tolist() for leaf in pruned.root.children] == [
            a.probabilities.tolist(),
            b.probabilities.tolist(),
        ]
        assert pruned.root.weights.tolist() == pytest.approx([0.625, 0.375])
        assert (report.edges_before, report.edges_after) == (3, 2)
        flows, count = dataset_edge_flows(circuit, data)
        assert len(flows) == 3 and flows[0] < flows[2] < flows[1]
        assert report.log_likelihood_bound == flow_pruning_bound(flows[0], count)

    def test_no_keep_fraction_empties_a_sum_with_a_repeated_child(self):
        a, b = bernoulli_leaf(0, 0.8), bernoulli_leaf(0, 0.3)
        data = [{0: 1}, {0: 0}, {0: 1}]
        inner = SumNode([a, a], [0.4, 0.6])
        circuit = Circuit(SumNode([inner, b], [0.7, 0.3]))
        for keep_fraction in np.linspace(0.05, 1.0, 20).tolist():
            pruned, _ = prune_circuit_by_flow(circuit, data, keep_fraction)
            assert all(len(node.children) >= MIN_SUM_CHILDREN for node in pruned.plan().sums)
            optimize(circuit, calibration=data, keep_fraction=keep_fraction)
        # Slots: inner's two edges, then the root's.  Slot 0 and the
        # root's edge to ``b`` are lowest, one from each sum: both go.
        _, report = prune_circuit_by_flow(circuit, data, keep_fraction=0.5)
        flows, count = dataset_edge_flows(circuit, data)
        assert np.argsort(flows, kind="stable").tolist()[:2] == [0, 3]
        assert report.log_likelihood_bound == flow_pruning_bound(flows[0] + flows[3], count)

    def test_pruned_leaves_are_fresh_float_copies(self):
        circuit = random_circuit(5, depth=2, seed=15)
        data = sample_dataset(circuit, 20, seed=16)
        pruned, _ = prune_circuit_by_flow(circuit, data, keep_fraction=1.0)
        before = {leaf.node_id for leaf in circuit.plan().leaves}
        for old, new in zip(circuit.plan().leaves, pruned.plan().leaves):
            assert new.node_id not in before
            assert new.probabilities is not old.probabilities
            assert new.probabilities.dtype == np.float64
            np.testing.assert_array_equal(new.probabilities, old.probabilities)


class TestHmmPruning:
    def test_prunes_transitions(self):
        hmm = HMM.random(5, 6, seed=15, concentration=0.3)
        rng = random.Random(16)
        sequences = [hmm.sample(20, rng)[1] for _ in range(10)]
        pruned, report = prune_hmm_by_posterior(hmm, sequences, threshold_quantile=0.3)
        assert report.edges_after < report.edges_before
        pruned.validate_stochastic()

    def test_likelihood_preserved_for_low_usage_pruning(self):
        hmm = HMM.random(4, 5, seed=17, concentration=0.2)
        rng = random.Random(18)
        sequences = [hmm.sample(25, rng)[1] for _ in range(10)]
        pruned, _ = prune_hmm_by_posterior(hmm, sequences, threshold_quantile=0.15)
        before = np.mean([hmm_log_likelihood(hmm, s) for s in sequences])
        after = np.mean([hmm_log_likelihood(pruned, s) for s in sequences])
        assert after > before - 1.0

    def test_requires_calibration(self):
        with pytest.raises(ValueError):
            prune_hmm_by_posterior(HMM.random(2, 2, seed=19), [])

    def test_every_state_keeps_an_outgoing_edge(self):
        hmm = HMM.random(4, 4, seed=20, concentration=0.1)
        rng = random.Random(21)
        sequences = [hmm.sample(15, rng)[1] for _ in range(6)]
        pruned, _ = prune_hmm_by_posterior(hmm, sequences, threshold_quantile=0.9)
        assert np.all(pruned.transition.sum(axis=1) > 0)


class TestRegularization:
    def test_regularized_dag_is_two_input(self):
        formula = random_ksat(8, 20, k=3, seed=22)
        dag, _ = cnf_to_dag(formula)
        assert not is_two_input(dag)
        regular = regularize_two_input(dag)
        assert is_two_input(regular)

    def test_logic_semantics_preserved(self):
        formula = random_ksat(6, 14, k=3, seed=23)
        dag, literal_nodes = cnf_to_dag(formula)
        regular = regularize_two_input(dag)
        # Regularization preserves leaf node count and ids mapping order:
        # re-derive literal inputs by payload.
        lit_inputs_orig = {}
        lit_inputs_reg = {}
        for assignment in itertools.product([False, True], repeat=6):
            assign = {v: assignment[v - 1] for v in range(1, 7)}
            for dag_obj, inputs in ((dag, lit_inputs_orig), (regular, lit_inputs_reg)):
                inputs.clear()
                plan = dag_obj.plan()
                for node_id in plan.order:
                    if plan.ops[node_id] is OpType.LITERAL:
                        lit = plan.payloads[node_id]
                        value = assign[abs(lit)] == (lit > 0)
                        inputs[node_id] = 1.0 if value else 0.0
            original = evaluate_dag(dag, lit_inputs_orig)[dag.root]
            regularized = evaluate_dag(regular, lit_inputs_reg)[regular.root]
            assert original == regularized

    def test_sum_weights_preserved(self):
        dag = Dag()
        leaves = [dag.add_op(OpType.LEAF, payload=(i, (1.0,))) for i in range(5)]
        weights = [0.1, 0.2, 0.3, 0.25, 0.15]
        s = dag.add_op(OpType.SUM, leaves, weights=weights)
        dag.set_root(s)
        regular = regularize_two_input(dag)
        assert is_two_input(regular)
        value = evaluate_dag(regular, {})[regular.root]
        assert value == pytest.approx(sum(weights))

    def test_circuit_likelihood_preserved(self):
        circuit = random_circuit(5, depth=2, sum_children=4, seed=24)
        dag, _ = circuit_to_dag(circuit)
        regular = regularize_two_input(dag)
        assert is_two_input(regular)
        for evidence in ({}, {0: 1}, {1: 0, 3: 1}):
            assert dag_likelihood(regular, evidence) == pytest.approx(
                likelihood(circuit, evidence)
            )

    def test_depth_grows_logarithmically(self):
        dag = Dag()
        leaves = [dag.add_op(OpType.LITERAL, payload=i + 1) for i in range(16)]
        node = dag.add_op(OpType.OR, leaves)
        dag.set_root(node)
        regular = regularize_two_input(dag)
        assert regular.depth() == 4  # log2(16)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=3, max_value=20))
    def test_balanced_reduction_depth_bound(self, fan_in):
        dag = Dag()
        leaves = [dag.add_op(OpType.LITERAL, payload=i + 1) for i in range(fan_in)]
        node = dag.add_op(OpType.AND, leaves)
        dag.set_root(node)
        regular = regularize_two_input(dag)
        assert regular.depth() == math.ceil(math.log2(fan_in))


class TestOptimizePipeline:
    def test_cnf_pipeline(self):
        formula = random_ksat(10, 30, k=2, seed=25)
        result = optimize(formula)
        assert is_two_input(result.dag)
        assert 0.0 <= result.memory_reduction <= 1.0
        before, _ = solve_cnf(formula)
        after, _ = solve_cnf(result.pruned_model)
        assert before is after

    def test_circuit_pipeline(self):
        circuit = random_circuit(5, depth=2, seed=26)
        data = sample_dataset(circuit, 30, seed=27)
        result = optimize(circuit, calibration=data, keep_fraction=0.7)
        assert is_two_input(result.dag)
        assert result.memory_reduction > 0

    def test_hmm_pipeline(self):
        hmm = HMM.random(4, 4, seed=28, concentration=0.3)
        rng = random.Random(29)
        sequences = [hmm.sample(12, rng)[1] for _ in range(8)]
        result = optimize(hmm, calibration=sequences, keep_fraction=0.7)
        assert is_two_input(result.dag)
        assert result.memory_after <= result.memory_before

    def test_circuit_requires_calibration(self):
        with pytest.raises(ValueError):
            optimize(random_circuit(4, depth=2, seed=30))

    def test_unknown_kernel_rejected(self):
        with pytest.raises(TypeError):
            optimize("not a kernel")

    def test_hmm_requires_calibration(self):
        with pytest.raises(ValueError):
            optimize(HMM.random(3, 3, seed=31))

    def test_memory_after_is_the_pruned_dags_footprint(self):
        # The two-input rewrite only changes the DAG handed on.
        formula = random_ksat(10, 30, k=3, seed=32)
        pruned, _, _ = prune_logic_dag(formula)
        regular = optimize(formula)
        assert regular.memory_after == pruned.memory_footprint()
        assert not is_two_input(pruned)
        assert is_two_input(regular.dag)

    def test_empty_footprint_reports_no_reduction(self):
        assert OptimizationResult(None, 0, 0).memory_reduction == 0.0
        assert OptimizationResult(None, 200, 50).memory_reduction == pytest.approx(0.75)


class TestBaselineFootprints:
    """``optimize`` reports the unpruned DAG's size without building it:
    the counts on the kernel equal the built DAG's footprint."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_circuit_footprint_equals_built_dag(self, seed):
        circuit = random_circuit(2 + seed % 5, depth=1 + seed % 3, seed=seed)
        dag, _ = circuit_to_dag(circuit)
        assert circuit_dag_footprint(circuit) == dag.memory_footprint()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_cnf_footprint_equals_built_dag(self, seed):
        formula = random_ksat(3 + seed % 8, seed % 25, seed=seed)
        dag, _ = cnf_to_dag(formula)
        assert cnf_dag_footprint(formula) == dag.memory_footprint()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.0, max_value=0.9),
    )
    def test_hmm_footprint_equals_built_dag(self, seed, steps, sparsity):
        # Zeroed transitions drop SUM edges, leave states with nothing
        # coming in (a lone zero LEAF) and states nothing reads (not
        # reachable from the root, so not counted).
        rng = random.Random(seed)
        hmm = HMM.random(2 + seed % 4, 3, seed=seed)
        for i, j in itertools.product(range(hmm.num_states), repeat=2):
            if rng.random() < sparsity:
                hmm.transition[i, j] = 0.0
        observations = [rng.randrange(3) for _ in range(steps)]
        dag = hmm_to_dag(hmm, observations)
        assert hmm_dag_footprint(hmm, steps) == dag.memory_footprint()

    def test_hmm_footprint_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            hmm_dag_footprint(HMM.random(3, 3, seed=1), 0)

    def test_optimize_reports_the_built_baseline(self):
        circuit = random_circuit(5, depth=2, seed=26)
        data = sample_dataset(circuit, 30, seed=27)
        baseline, _ = circuit_to_dag(circuit)
        assert optimize(circuit, calibration=data).memory_before == (
            baseline.memory_footprint()
        )
        hmm = HMM.random(4, 4, seed=28, concentration=0.3)
        sequences = [hmm.sample(9, random.Random(29))[1] for _ in range(3)]
        assert optimize(hmm, calibration=sequences).memory_before == (
            hmm_to_dag(hmm, sequences[0]).memory_footprint()
        )
        formula = random_ksat(10, 30, k=2, seed=25)
        assert optimize(formula).memory_before == (
            cnf_to_dag(formula)[0].memory_footprint()
        )
