"""Tests for probabilistic circuit structure and inference."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pc.circuit import (
    Circuit,
    LeafNode,
    ProductNode,
    SumNode,
    bernoulli_leaf,
    copy_leaf_tables,
)
from repro.pc.inference import (
    conditional,
    expected_flops,
    likelihood,
    log_likelihood,
    partition_function,
    sample,
)
from repro.pc.learn import random_circuit


def simple_mixture() -> Circuit:
    """0.6 * [X0 ~ B(0.9)] + 0.4 * [X0 ~ B(0.2)]."""
    node = SumNode([bernoulli_leaf(0, 0.9), bernoulli_leaf(0, 0.2)], [0.6, 0.4])
    return Circuit(node)


def two_var_product() -> Circuit:
    """X0 ~ B(0.7) independent of X1 ~ B(0.3)."""
    return Circuit(ProductNode([bernoulli_leaf(0, 0.7), bernoulli_leaf(1, 0.3)]))


class TestNodes:
    def test_leaf_rejects_negative_probs(self):
        with pytest.raises(ValueError):
            LeafNode(0, [-0.1, 1.1])

    def test_leaf_marginalizes_on_none(self):
        leaf = bernoulli_leaf(0, 0.3)
        assert leaf.prob(None) == pytest.approx(1.0)

    def test_leaf_out_of_range_value_is_zero(self):
        assert bernoulli_leaf(0, 0.3).prob(5) == 0.0

    def test_bernoulli_leaf_validates_range(self):
        with pytest.raises(ValueError):
            bernoulli_leaf(0, 1.5)

    def test_sum_requires_matching_weights(self):
        with pytest.raises(ValueError):
            SumNode([bernoulli_leaf(0, 0.5)], [0.5, 0.5])

    def test_sum_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            SumNode([bernoulli_leaf(0, 0.5)], [-1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_sum_rejects_non_finite_weights(self, bad):
        # NaN < 0 is False, so a sign test alone lets it through.
        with pytest.raises(ValueError, match="finite"):
            SumNode([bernoulli_leaf(0, 0.5), bernoulli_leaf(0, 0.2)], [0.5, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_leaf_rejects_non_finite_probs(self, bad):
        with pytest.raises(ValueError, match="finite"):
            LeafNode(0, [bad, 0.5])

    def test_sum_rejects_weights_not_one_per_child(self):
        # Two rows of one weight have the children's length but are not
        # one weight per child; they used to fail deep in the compiler.
        leaves = [bernoulli_leaf(0, 0.5), bernoulli_leaf(0, 0.2)]
        with pytest.raises(ValueError, match="one weight per child"):
            SumNode(leaves, [[0.5], [0.5]])

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.lists(
                    st.sampled_from(
                        [0.0, -0.0, 0.5, 1e-300, 2.0, -0.5, math.nan, math.inf, -math.inf]
                    ),
                    max_size=3,
                ),
                st.just([[0.5, 0.5]]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_batch_table_check_agrees_with_leaf_construction(self, tables):
        """The setter accepts exactly the tables ``LeafNode`` constructs
        from, and ``copy_leaf_tables``' one-pass flag over tables written
        in place agrees with it, whatever mix they come in."""

        def constructs(table):
            try:
                LeafNode(0, table)
            except ValueError:
                return False
            return True

        for table in tables:
            leaf = bernoulli_leaf(0, 0.5)
            try:
                leaf.probabilities = table
            except ValueError:
                assert not constructs(table)
            else:
                assert constructs(table)
        # Only an in-place write of the right length reaches a built leaf.
        shaped = [table for table in tables if table and not isinstance(table[0], list)]
        if not shaped:
            return
        leaves = [LeafNode(v, [1.0] * len(table)) for v, table in enumerate(shaped)]
        plan = Circuit(ProductNode(leaves)).plan()
        for leaf, table in zip(leaves, shaped):
            leaf.probabilities[:] = table
        copies, valid = copy_leaf_tables(plan)
        assert valid == all(constructs(table) for table in shaped)
        assert [copy.tobytes() for copy in copies] == [
            np.array(table, dtype=float).tobytes() for table in shaped
        ]

    def test_product_requires_children(self):
        with pytest.raises(ValueError):
            ProductNode([])


class TestStructure:
    def test_num_edges_counts_every_parent_child_pair(self):
        circuit = random_circuit(5, depth=2, seed=4)
        pairs = {
            (parent, child)
            for parent in circuit.topological_order()
            for child in parent.children
        }
        assert len(pairs) == circuit.num_edges

    def test_smoothness_detected(self):
        smooth = simple_mixture()
        assert smooth.is_smooth()
        non_smooth = Circuit(
            SumNode([bernoulli_leaf(0, 0.5), bernoulli_leaf(1, 0.5)], [0.5, 0.5])
        )
        assert not non_smooth.is_smooth()

    def test_decomposability_detected(self):
        ok = two_var_product()
        assert ok.is_decomposable()
        bad = Circuit(ProductNode([bernoulli_leaf(0, 0.5), bernoulli_leaf(0, 0.5)]))
        assert not bad.is_decomposable()

    def test_validate_raises_on_bad_structure(self):
        bad = Circuit(ProductNode([bernoulli_leaf(0, 0.5), bernoulli_leaf(0, 0.5)]))
        with pytest.raises(ValueError):
            bad.validate()

    def test_deep_chain_constructs_and_validates(self):
        # 3,000 nested sums: a recursive scope walk would pass the
        # interpreter's limit; the circuit reads its plan instead.
        node = bernoulli_leaf(0, 0.5)
        for _ in range(3000):
            node = SumNode([node], [1.0])
        circuit = Circuit(node)
        assert circuit.variables() == frozenset({0})
        circuit.validate()
        assert (circuit.num_nodes, circuit.num_edges) == (3001, 3000)

    def test_shared_diamond_validates_in_linear_time(self):
        # 40 levels of SumNode([a, a]): an unmemoised scope walk
        # visits 2**40 paths.  A product repeating a variable sits under
        # the shared levels, so both checks have to reach the bottom.
        bottom = ProductNode([bernoulli_leaf(0, 0.5), bernoulli_leaf(1, 0.5)])
        bad = ProductNode([bernoulli_leaf(0, 0.5), bernoulli_leaf(0, 0.5)])
        tops = []
        for product in (bottom, bad):
            node = product
            for _ in range(40):
                node = SumNode([node, node], [0.5, 0.5])
            tops.append(node)
        start = time.perf_counter()
        good, shared_bad = Circuit(tops[0]), Circuit(tops[1])
        good.validate()
        assert not shared_bad.is_decomposable() and shared_bad.is_smooth()
        assert good.variables() == frozenset({0, 1})
        assert time.perf_counter() - start < 1.0

    def test_topological_order_children_first(self):
        circuit = simple_mixture()
        order = circuit.topological_order()
        positions = {node.node_id: i for i, node in enumerate(order)}
        for node in order:
            for child in node.children:
                assert positions[child.node_id] < positions[node.node_id]

    def test_counts(self):
        circuit = simple_mixture()
        assert circuit.num_nodes == 3
        assert circuit.num_edges == 2


class TestInference:
    def test_mixture_likelihood(self):
        circuit = simple_mixture()
        # P(X0=1) = 0.6*0.9 + 0.4*0.2 = 0.62
        assert likelihood(circuit, {0: 1}) == pytest.approx(0.62)

    def test_product_factorizes(self):
        circuit = two_var_product()
        assert likelihood(circuit, {0: 1, 1: 1}) == pytest.approx(0.7 * 0.3)

    def test_partition_function_of_normalized_circuit(self):
        assert partition_function(simple_mixture()) == pytest.approx(1.0)

    def test_marginalization_sums_out_missing_vars(self):
        circuit = two_var_product()
        assert likelihood(circuit, {0: 1}) == pytest.approx(0.7)

    def test_marginal_equals_brute_force(self):
        circuit = random_circuit(5, depth=2, seed=3)
        variables = sorted(circuit.variables())
        total = sum(
            likelihood(circuit, dict(zip(variables, values)))
            for values in itertools.product([0, 1], repeat=len(variables))
        )
        assert total == pytest.approx(partition_function(circuit))

    def test_conditional_consistency(self):
        circuit = two_var_product()
        # Independent variables: conditioning is a no-op.
        assert conditional(circuit, {0: 1}, {1: 0}) == pytest.approx(0.7)

    def test_conditional_contradiction_is_zero(self):
        circuit = two_var_product()
        assert conditional(circuit, {0: 1}, {0: 0}) == 0.0

    def test_conditional_zero_evidence_raises(self):
        circuit = Circuit(
            ProductNode([LeafNode(0, [0.0, 1.0]), bernoulli_leaf(1, 0.5)])
        )
        with pytest.raises(ValueError):
            conditional(circuit, {1: 1}, {0: 0})

    def test_log_likelihood_of_impossible_evidence(self):
        circuit = Circuit(LeafNode(0, [0.0, 1.0]))
        assert log_likelihood(circuit, {0: 0}) == float("-inf")

    def test_sample_matches_marginals(self):
        import random

        circuit = simple_mixture()
        rng = random.Random(0)
        draws = [sample(circuit, rng)[0] for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(0.62, abs=0.03)

    def test_expected_flops_positive(self):
        assert expected_flops(simple_mixture()) > 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_circuits_are_normalized(self, seed):
        circuit = random_circuit(4, depth=2, seed=seed)
        assert partition_function(circuit) == pytest.approx(1.0)
