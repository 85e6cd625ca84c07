"""Tests for circuit flows and EM learning."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pc.circuit import Circuit, LeafNode, SumNode, bernoulli_leaf
from repro.pc.flows import (
    _evaluate_batch,
    _evidence_columns,
    _flow_batch,
    dataset_edge_flows,
    flow_pruning_bound,
)
from repro.pc.inference import (
    _evaluate_all,
    likelihood,
    log_likelihood,
)
from repro.pc.learn import fit_em, random_circuit, sample_dataset

from tests.corpus import EVIDENCE_VALUES, shared_circuit_and_data


def reference_node_flows(circuit, evidence):
    """Top-down flow F_n(x) reaching each node for one input, from the
    scalar evaluator: the root carries 1, a product passes its flow to
    every child, and a sum splits its flow by each child's share of
    its value."""
    values = _evaluate_all(circuit, evidence)
    order = circuit.topological_order()
    flows = dict.fromkeys((node.node_id for node in order), 0.0)
    flows[circuit.root.node_id] = 1.0
    for node in reversed(order):
        if isinstance(node, SumNode):
            parent_value = values[node.node_id]
            if parent_value <= 0:
                continue
            for child, weight in zip(node.children, node.weights):
                share = weight * values[child.node_id] / parent_value
                flows[child.node_id] += share * flows[node.node_id]
        elif not isinstance(node, LeafNode):
            for child in node.children:
                flows[child.node_id] += flows[node.node_id]
    return flows


def flows_of(circuit, evidence):
    """Every sum-edge slot's flow for one input."""
    return dataset_edge_flows(circuit, [evidence])[0].tolist()


def by_sum(circuit, flows):
    """Each sum of the plan with its slots' flows: sums in plan order,
    a sum's slots in child order."""
    start = 0
    for node in circuit.plan().sums:
        yield node, flows[start : start + len(node.children)]
        start += len(node.children)


class TestFlows:
    def test_root_flow_is_one(self):
        circuit = random_circuit(4, depth=2, seed=1)
        root, outgoing = list(by_sum(circuit, flows_of(circuit, {0: 1})))[-1]
        assert root is circuit.root
        assert sum(outgoing) == pytest.approx(1.0)

    def test_sum_edge_flows_sum_to_parent_flow(self):
        circuit = random_circuit(4, depth=2, seed=2)
        evidence = {0: 1, 1: 0, 2: 1, 3: 0}
        flows = reference_node_flows(circuit, evidence)
        for node, outgoing in by_sum(circuit, flows_of(circuit, evidence)):
            assert sum(outgoing) == pytest.approx(flows[node.node_id], abs=1e-9)

    def test_flows_nonnegative(self):
        circuit = random_circuit(5, depth=2, seed=3)
        assert all(value >= -1e-12 for value in flows_of(circuit, {0: 1, 2: 0}))

    def test_dataset_flows_accumulate(self):
        circuit = random_circuit(4, depth=2, seed=4)
        data = [{0: 1}, {1: 0}, {2: 1}]
        totals, count = dataset_edge_flows(circuit, data)
        assert count == 3
        assert totals.shape == (circuit.plan().num_sum_edges,) and totals.any()

    def test_pruning_bound(self):
        assert flow_pruning_bound(2.0, 4) == 0.5
        with pytest.raises(ValueError):
            flow_pruning_bound(1.0, 0)

    def test_zero_probability_input_gives_zero_flows(self):
        circuit = Circuit(
            SumNode(
                [LeafNode(0, [1.0, 0.0]), LeafNode(0, [0.0, 1.0])],
                [1.0, 0.0],
            )
        )
        assert flows_of(circuit, {0: 1}) == [0.0, 0.0]


def mixed_circuit_and_data(seed: int, m: int):
    """A random circuit whose odd variables carry three-state tables
    (written after the flow plan was cached), and ``m`` evidence dicts
    mixing present, absent, ``None``, out-of-range and negative values."""
    rng = random.Random(seed)
    num_vars = rng.randint(2, 6)
    circuit = random_circuit(
        num_vars, depth=rng.randint(1, 3), sum_children=rng.randint(2, 3), seed=seed
    )
    circuit.plan()
    for node in circuit.topological_order():
        if isinstance(node, LeafNode) and node.variable % 2:
            node.probabilities = np.array([rng.random() for _ in range(3)])
    data = []
    for _ in range(m):
        evidence = {}
        for variable in range(num_vars):
            if rng.random() < 0.75:
                evidence[variable] = rng.choice(EVIDENCE_VALUES)
        data.append(evidence)
    return circuit, data


def assert_ordered_sum_of_per_sample_flows(circuit, data):
    """Each slot's dataset total is its per-input flows added in
    dataset order, one slot per sum edge (a repeated child included)."""
    totals, count = dataset_edge_flows(circuit, data)
    expected = [0.0] * circuit.plan().num_sum_edges
    for evidence in data:
        for slot, flow in enumerate(flows_of(circuit, evidence)):
            expected[slot] += flow
    assert count == len(data)
    assert totals.tolist() == expected


class TestBatchEvaluation:
    """The array path against the per-sample definitions, with ``==``."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1, 7, 64]))
    def test_dataset_flows_are_the_ordered_sum_of_per_sample_flows(self, seed, m):
        circuit, data = mixed_circuit_and_data(seed, m)
        assert_ordered_sum_of_per_sample_flows(circuit, data)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1, 7, 64]))
    def test_rows_equal_the_scalar_evaluator(self, seed, m):
        circuit, data = mixed_circuit_and_data(seed, m)
        plan = circuit.plan()
        values = _evaluate_batch(plan, _evidence_columns(plan, data))
        scalar = [_evaluate_all(circuit, evidence) for evidence in data]
        for row, node in zip(values.tolist(), plan.order):
            if isinstance(node, LeafNode):
                assert row == [node.prob(e.get(node.variable)) for e in data]
            assert row == [per_node[node.node_id] for per_node in scalar]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_edge_rows_equal_the_scalar_recurrence(self, seed):
        """Every sum edge carries ``(θ·p_c / p_n)·F_n`` of the scalar
        pass, and exactly 0.0 below a sum of value or flow zero."""
        circuit, data = mixed_circuit_and_data(seed, 1)
        evidence = data[0]
        values = _evaluate_all(circuit, evidence)
        flows = reference_node_flows(circuit, evidence)
        expected = []
        for node in circuit.plan().sums:
            parent_value = values[node.node_id]
            for child, weight in zip(node.children, node.weights):
                live = parent_value > 0 and flows[node.node_id] != 0.0
                share = weight * values[child.node_id] / parent_value if live else 0.0
                expected.append(share * flows[node.node_id])
        assert flows_of(circuit, evidence) == expected

    def test_non_integer_evidence_raises_instead_of_truncating(self):
        circuit = random_circuit(3, depth=2, seed=5)
        with pytest.raises(TypeError):
            dataset_edge_flows(circuit, [{0: 1.5}])
        with pytest.raises(TypeError):
            dataset_edge_flows(circuit, [{0: 1}, {1: 1.5}])

    def test_numpy_integers_are_evidence(self):
        circuit = random_circuit(3, depth=2, seed=6)
        plain = flows_of(circuit, {0: 1, 2: 0})
        assert flows_of(circuit, {0: np.int64(1), 2: np.int32(0)}) == plain

    def test_the_lowest_int64_is_a_value_not_a_marginal(self):
        # -2**63 is negative, so probability 0.0 like any other negative
        # value; it once doubled as the column code of "marginalised".
        circuit = Circuit(SumNode([bernoulli_leaf(0, 0.2), bernoulli_leaf(0, 0.7)], [0.5, 0.5]))
        lowest = -(2**63)
        assert likelihood(circuit, {0: lowest}) == 0.0
        assert flows_of(circuit, {0: lowest}) == flows_of(circuit, {0: -1})
        assert flows_of(circuit, {0: lowest}) != flows_of(circuit, {})

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1, 5, 64]))
    def test_leaf_gather_equals_the_per_leaf_loop(self, seed, m):
        """Tables of 1-12 entries (zeros and negative zeros included),
        several sizes per variable, evidence in range, past the end,
        negative, ``None`` or absent: the values are the bytes the
        per-leaf loop produced."""
        rng = random.Random(seed)
        num_vars = rng.randint(1, 5)
        circuit = random_circuit(
            num_vars, depth=rng.randint(1, 3), sum_children=rng.randint(2, 3), seed=seed
        )
        plan = circuit.plan()
        for leaf in plan.leaves:
            size = rng.randint(1, 12)
            leaf.probabilities = np.array(
                [rng.choice((0.0, -0.0, rng.random(), rng.random() * 1e-9)) for _ in range(size)]
            )
        choices = (None, 0, 1, 2, 5, 11, 12, 40, -1, -7, -(2**63), 2**63 - 1)
        data = [
            {v: rng.choice(choices) for v in range(num_vars) if rng.random() < 0.8}
            for _ in range(m)
        ]
        columns = _evidence_columns(plan, data)
        expected = per_leaf_loop(plan, columns)
        assert _evaluate_batch(plan, columns).tobytes() == expected.tobytes()


def per_leaf_loop(plan, columns):
    """``_evaluate_batch`` as it was written before its leaf rows became
    one gather: one ``np.take`` per leaf from the leaf's own table
    extended by an out-of-table 0.0 and its ``sum()``."""
    m = len(next(iter(columns.values()))[0])
    values = np.empty((len(plan.order), m), dtype=float)
    slots_of = {}
    for kind, dense, node, children, _ in plan.entries:
        if isinstance(node, LeafNode):
            probabilities = node.probabilities
            size = len(probabilities)
            slots = slots_of.get((node.variable, size))
            if slots is None:
                codes, marginal = columns[node.variable]
                slots = np.where((codes >= 0) & (codes < size), codes, size)
                slots[marginal] = size + 1
                slots_of[node.variable, size] = slots
            table = np.empty(size + 2)
            table[:size] = probabilities
            table[size] = 0.0
            table[size + 1] = probabilities.sum()
            np.take(table, slots, out=values[dense])
        elif isinstance(node, SumNode):
            row = np.zeros(m)
            for child, weight in zip(children, node.weights):
                row += weight * values[child]
            values[dense] = row
        else:
            row = values[children[0]].copy()
            for child in children[1:]:
                row *= values[child]
            values[dense] = row
    return values


def reference_em_step(circuit, dataset):
    """One EM iteration written one input at a time (the loop
    ``fit_em`` replaced): scalar bottom-up values, that input's node
    flows, counts added in dataset order from a 0.1 pseudo-count."""
    nodes = circuit.topological_order()
    counts = {}
    for node in nodes:
        if isinstance(node, SumNode):
            counts[node.node_id] = np.zeros(len(node.children))
        elif isinstance(node, LeafNode):
            counts[node.node_id] = np.zeros(len(node.probabilities))
    for evidence in dataset:
        values = _evaluate_all(circuit, evidence)
        flows = reference_node_flows(circuit, evidence)
        for node in nodes:
            if isinstance(node, SumNode):
                parent_value = values[node.node_id]
                if parent_value <= 0:
                    continue
                for k, (child, weight) in enumerate(zip(node.children, node.weights)):
                    share = weight * values[child.node_id] / parent_value
                    counts[node.node_id][k] += share * flows[node.node_id]
            elif isinstance(node, LeafNode):
                value = evidence.get(node.variable)
                if value is not None:
                    counts[node.node_id][value] += flows[node.node_id]
    for node in nodes:
        if isinstance(node, SumNode):
            smoothed = counts[node.node_id] + 0.1
            node.weights = smoothed / smoothed.sum()
        elif isinstance(node, LeafNode):
            smoothed = counts[node.node_id] + 0.1
            node.probabilities = smoothed / smoothed.sum()


def parameters(circuit):
    return [
        (node.weights if isinstance(node, SumNode) else node.probabilities).tolist()
        for node in circuit.topological_order()
        if isinstance(node, (SumNode, LeafNode))
    ]


class TestEM:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1, 7, 64]))
    def test_em_steps_equal_the_per_input_loop(self, seed, m):
        rng = random.Random(seed)
        num_vars = rng.randint(2, 5)
        shape = dict(depth=rng.randint(1, 3), sum_children=rng.randint(2, 3))
        data = []
        for _ in range(m):  # in-range, absent or None: what EM counts
            data.append(
                {
                    v: rng.choice((0, 1, None))
                    for v in range(num_vars)
                    if rng.random() < 0.8
                }
            )
        batch = random_circuit(num_vars, seed=seed, **shape)
        loop = random_circuit(num_vars, seed=seed, **shape)
        for _ in range(3):
            fit_em(batch, data, iterations=1)
            reference_em_step(loop, data)
            assert parameters(batch) == parameters(loop)

    def test_em_increases_log_likelihood(self):
        teacher = random_circuit(5, depth=2, seed=10)
        data = sample_dataset(teacher, 200, seed=11)
        student = random_circuit(5, depth=2, seed=12)
        before = np.mean([log_likelihood(student, x) for x in data])
        student, history = fit_em(student, data, iterations=8)
        assert history[-1] >= before - 1e-9

    def test_em_trajectory_monotone(self):
        teacher = random_circuit(4, depth=2, seed=20)
        data = sample_dataset(teacher, 100, seed=21)
        student = random_circuit(4, depth=2, seed=22)
        _, history = fit_em(student, data, iterations=6)
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - 1e-6

    def test_em_keeps_circuit_normalized(self):
        circuit = random_circuit(4, depth=2, seed=30)
        data = sample_dataset(circuit, 50, seed=31)
        fit_em(circuit, data, iterations=1)
        assert likelihood(circuit, {}) == pytest.approx(1.0)

    def test_fit_em_reproduces_recorded_parameters(self):
        # Recorded at 861c41a at EM's 0.1 pseudo-count: every learned
        # weight and leaf table (digest over their bytes in topological
        # order) and the LL history, bit for bit.
        teacher = random_circuit(6, depth=2, seed=10)
        data = sample_dataset(teacher, 60, seed=11)
        for j, evidence in enumerate(data):
            if j % 5 == 0:
                del evidence[j % 6]
            elif j % 7 == 0:
                evidence[j % 6] = None
        student = random_circuit(6, depth=2, seed=12)
        _, history = fit_em(student, data, iterations=5)
        digest = hashlib.sha256()
        for node in student.topological_order():
            if isinstance(node, SumNode):
                digest.update(node.weights.tobytes())
            elif isinstance(node, LeafNode):
                digest.update(node.probabilities.tobytes())
        assert history == [
            -3.799713360232613,
            -3.7330590910749715,
            -3.690812667228959,
            -3.666202514441882,
            -3.646536953775189,
        ]
        assert digest.hexdigest() == (
            "304db499ac5e497413d0cef2cf583016433e4ce95a1fd5765fcdc999836e7019"
        )

    def test_one_iteration_of_fit_em_is_one_em_step(self):
        data = sample_dataset(random_circuit(4, depth=2, seed=40), 30, seed=41)
        stepped = random_circuit(4, depth=2, seed=42)
        fitted = random_circuit(4, depth=2, seed=42)
        reference_em_step(stepped, data)
        _, history = fit_em(fitted, data, iterations=1)
        assert parameters(stepped) == parameters(fitted)
        mean_ll = sum(log_likelihood(stepped, x) for x in data) / len(data)
        assert history == [mean_ll]

    def test_em_recovers_biased_leaf(self):
        # Single Bernoulli: EM should match the empirical frequency.
        circuit = Circuit(bernoulli_leaf(0, 0.5))
        data = [{0: 1}] * 80 + [{0: 0}] * 20
        fit_em(circuit, data, iterations=3)
        assert likelihood(circuit, {0: 1}) == pytest.approx(0.8, abs=0.01)

    @pytest.mark.parametrize("value", [7, -1, -(2**63)])
    def test_out_of_table_evidence_has_zero_mass_in_em(self, value):
        """A value past a leaf's table is probability 0 in every
        evaluator, so EM learns what it learns without that row."""
        data = sample_dataset(random_circuit(4, depth=2, seed=50), 20, seed=51)
        with_row = data[:8] + [{0: value, 1: 1}] + data[8:]
        assert likelihood(random_circuit(4, depth=2, seed=52), with_row[8]) == 0.0
        for iterations in (1, 4):
            clean = random_circuit(4, depth=2, seed=52)
            dirty = random_circuit(4, depth=2, seed=52)
            fit_em(clean, data, iterations=iterations)
            fit_em(dirty, with_row, iterations=iterations)
            assert parameters(dirty) == parameters(clean)



class TestSharedChildren:
    """A child with several parents sums their flows in reverse plan
    order, a parent's edges in child order: the batch passes against
    the per-sample definitions on DAG-shaped circuits, with ``==``."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1, 7, 64]))
    def test_rows_and_node_flows_equal_the_per_sample_recurrence(self, seed, m):
        circuit, data = shared_circuit_and_data(seed, m)
        plan = circuit.plan()
        values = _evaluate_batch(plan, _evidence_columns(plan, data))
        flows, _ = _flow_batch(plan, values)
        for j, evidence in enumerate(data):
            scalar = _evaluate_all(circuit, evidence)
            per_node = reference_node_flows(circuit, evidence)
            assert values[:, j].tolist() == [scalar[node.node_id] for node in plan.order]
            assert flows[:, j].tolist() == [per_node[node.node_id] for node in plan.order]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1, 7, 64]))
    def test_dataset_totals_are_the_ordered_sum_of_per_sample_flows(self, seed, m):
        circuit, data = shared_circuit_and_data(seed, m)
        assert_ordered_sum_of_per_sample_flows(circuit, data)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_em_steps_equal_the_per_input_loop(self, seed):
        batch, data = shared_circuit_and_data(seed, 16)
        loop, _ = shared_circuit_and_data(seed, 16)
        counted = [{v: value for v, value in e.items() if value in (0, 1, None)} for e in data]
        for _ in range(2):
            fit_em(batch, counted, iterations=1)
            reference_em_step(loop, counted)
            assert parameters(batch) == parameters(loop)
