"""A circuit's parameters are one buffer: every leaf table and sum weight
vector is a view into its plan's float64 layout, and the cache key reads
that buffer whole.

Every case checks the key against ``fresh_key``, the key of a
never-keyed ``copy.deepcopy``, which has no layout and no memo."""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.pc.circuit import Circuit, LeafNode
from repro.pc.learn import fit_em, random_circuit, sample_dataset

from tests.corpus import fresh_key, key


@pytest.fixture
def circuit():
    return random_circuit(6, depth=3, seed=21)


def test_every_node_views_one_buffer_in_key_order(circuit):
    key(circuit)
    plan = circuit.plan()
    _, lengths, buffer = plan.parameters()
    arrays = [leaf.probabilities for leaf in plan.leaves]
    arrays += [node.weights for node in plan.sums]
    assert all(array.base is buffer for array in arrays)
    assert lengths == np.array([len(a) for a in arrays], dtype=np.int64).tobytes()
    assert buffer.tobytes() == np.concatenate(arrays).tobytes()


class TestInPlaceWrites:
    @pytest.mark.parametrize("family", ["leaf", "sum"])
    def test_a_write_through_the_view_moves_the_key(self, circuit, family):
        before = key(circuit)
        plan = circuit.plan()
        view = plan.leaves[2].probabilities if family == "leaf" else plan.sums[1].weights
        old = view[0]
        view[0] = old / 4 + 0.125
        assert key(circuit) == fresh_key(circuit) != before
        view[0] = old
        assert key(circuit) == before


class TestRebinds:
    def test_each_setter_and_normalize_move_the_key_and_restoring_returns_it(self, circuit):
        before = key(circuit)
        leaf, node = circuit.plan().leaves[3], circuit.plan().sums[2]
        old_table, old_weights = leaf.probabilities, node.weights
        keys = {before}
        for rebind in (
            lambda: setattr(leaf, "probabilities", old_table[::-1].copy()),
            lambda: setattr(node, "weights", old_weights * 3.0),
            node.normalize,
        ):
            rebind()
            moved = key(circuit)
            assert moved == fresh_key(circuit) and moved not in keys
            keys.add(moved)
        # The arrays read before the rebinds kept their values.
        leaf.probabilities, node.weights = old_table, old_weights
        assert key(circuit) == before

    def test_one_em_iteration_moves_the_key(self, circuit):
        before = key(circuit)
        saved = copy.deepcopy(circuit.root)
        fit_em(circuit, sample_dataset(circuit, 30, seed=22), iterations=1)
        assert key(circuit) == fresh_key(circuit) != before
        plan, old = circuit.plan(), Circuit(saved).plan()
        for leaf, table in zip(plan.leaves, old.leaves):
            leaf.probabilities = table.probabilities
        for node, weights in zip(plan.sums, old.sums):
            node.weights = weights.weights
        assert key(circuit) == before

    def test_a_length_change_lays_the_buffer_out_again(self, circuit):
        before = key(circuit)
        plan = circuit.plan()
        leaf = plan.leaves[0]
        _, lengths, buffer = plan.parameters()
        leaf.probabilities = [0.25, 0.5, 0.25]
        changed = key(circuit)
        assert changed == fresh_key(circuit) != before
        _, new_lengths, new_buffer = plan.parameters()
        assert new_lengths != lengths and len(new_buffer) == len(buffer) + 1
        assert leaf.probabilities.base is new_buffer
        leaf.probabilities = [0.5, 0.5, 0.0]  # same length, other values
        assert key(circuit) == fresh_key(circuit) != changed

    def test_an_array_read_before_a_rebind_stops_aliasing_at_the_next_key(self, circuit):
        key(circuit)
        plan = circuit.plan()
        stale = plan.leaves[0].probabilities
        plan.sums[0].normalize()
        current = key(circuit)
        stale[0] = 0.0625  # writes the old buffer, which no node views now
        assert key(circuit) == current == fresh_key(circuit)
        assert plan.leaves[0].probabilities[0] != 0.0625


class TestChecks:
    @pytest.mark.parametrize(
        "table, message",
        [
            (np.array([np.nan, 1.0]), "finite"),
            ([0.5, -0.5], "non-negative"),
            ([np.inf, 0.5], "finite"),
            (np.array([[0.5, 0.5]]), "1-D"),
            ([], "1-D"),
        ],
    )
    def test_a_bad_table_is_refused_and_changes_nothing(self, circuit, table, message):
        before = key(circuit)
        leaf = circuit.plan().leaves[1]
        old = leaf.probabilities
        with pytest.raises(ValueError, match=message):
            leaf.probabilities = table
        assert leaf.probabilities is old and key(circuit) == before

    @pytest.mark.parametrize(
        "rewrite, message",
        [
            (lambda old: np.append(-1.0, old[1:]), "non-negative"),
            (lambda old: np.append(np.nan, old[1:]), "finite"),
            (lambda old: old[1:], "one weight per child"),
            (lambda old: old[None, :], "one weight per child"),
        ],
    )
    def test_bad_weights_are_refused_and_change_nothing(self, circuit, rewrite, message):
        before = key(circuit)
        node = circuit.plan().sums[0]
        old = node.weights
        with pytest.raises(ValueError, match=message):
            node.weights = rewrite(old)
        assert node.weights is old and key(circuit) == before

    def test_a_list_becomes_a_float_array(self, circuit):
        leaf = circuit.plan().leaves[0]
        leaf.probabilities = [1, 3]
        assert leaf.probabilities.dtype == np.float64
        assert leaf.probabilities.tolist() == [1.0, 3.0]
        assert key(circuit) == fresh_key(circuit)


class TestSharing:
    def test_a_write_through_a_shared_node_moves_both_keys(self, circuit):
        twin = copy.copy(circuit)  # shares every node; builds its own plan
        before = key(circuit)
        assert key(twin) == before  # twin's layout takes the nodes over
        circuit.plan().leaves[4].probabilities[1] = 0.03125
        moved = fresh_key(circuit)
        assert moved != before
        assert key(circuit) == moved and key(twin) == moved
        circuit.plan().sums[0].weights[0] = 0.0
        assert key(twin) == key(circuit) == fresh_key(circuit) != moved

    def test_pickle_and_deepcopy_round_trips_keep_the_key(self, circuit):
        before = key(circuit)
        for twin in (pickle.loads(pickle.dumps(circuit)), copy.deepcopy(circuit)):
            nodes = [*twin.plan().leaves, *twin.plan().sums]
            assert all(node._owner is None for node in nodes)
            assert key(twin) == before
        assert key(circuit) == before
        for node in (circuit.plan().leaves[0], circuit.plan().sums[0]):
            twin = pickle.loads(pickle.dumps(node))  # a view pickles as its values
            assert twin._owner is None and pickle.dumps(twin) == pickle.dumps(node)


THREADS = 8


def test_threads_racing_the_first_key_after_a_rebind_read_the_rebound_values():
    """Threads key a circuit and a ``copy.copy`` twin that shares its
    nodes right after a rebind, so layouts of two plans race for the
    same nodes.  Every key equals ``fresh_key``, and afterwards an
    in-place write through every node still moves both keys: no node
    was left viewing a buffer its layout calls fresh."""
    circuit = random_circuit(6, depth=3, seed=23)
    twin = copy.copy(circuit)
    plan = circuit.plan()
    nodes = [*plan.leaves, *plan.sums]
    barrier = threading.Barrier(THREADS)
    results = []

    def worker(index):
        barrier.wait(timeout=10)
        results.append(key(twin if index % 2 else circuit))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for step in range(24):
            node = nodes[step * 7 % len(nodes)]
            if isinstance(node, LeafNode):
                node.probabilities = np.append(node.probabilities, 0.125 * (step % 3))
            else:
                node.weights = node.weights[::-1] + 0.0625
            expected = fresh_key(circuit)
            del results[:]
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * THREADS
    finally:
        sys.setswitchinterval(interval)
    for node in nodes:
        values = node.probabilities if isinstance(node, LeafNode) else node.weights
        values[0] += 0.5
        expected = fresh_key(circuit)
        assert key(circuit) == key(twin) == expected
