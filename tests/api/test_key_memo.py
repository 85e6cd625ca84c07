"""The key memo: a kernel remembers its last digest against what it was
computed from, and serves it again only while that compares equal.

Every case checks the remembered answer against a never-keyed
``copy.deepcopy`` of the kernel, which has no memo to consult."""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.api.adapters as adapters_module
from repro.api.adapters import adapter_for
from repro.core.arch.config import DEFAULT_CONFIG
from repro.hmm.model import HMM
from repro.logic.cnf import Clause
from repro.logic.generators import random_ksat
from repro.pc.circuit import LeafNode, SumNode
from repro.pc.learn import random_circuit

from tests.corpus import KINDS, fresh_key, key, small

OTHER_CONFIG = DEFAULT_CONFIG.with_ablation(linked_list_layout=False)


@pytest.fixture
def hashes(monkeypatch):
    """How many digests the adapters compute."""
    calls = []
    real = adapters_module.content_key

    def counting(*parts):
        calls.append(parts)
        return real(*parts)

    monkeypatch.setattr(adapters_module, "content_key", counting)
    return calls


class TestCnf:
    def test_num_vars_raised_in_place(self):
        cnf = random_ksat(12, 40, seed=1)
        before = key(cnf)
        cnf.num_vars += 3
        assert key(cnf) == fresh_key(cnf) != before
        cnf.num_vars -= 3
        assert key(cnf) == before

    def test_clauses_reassigned_to_a_new_list(self):
        cnf = random_ksat(12, 40, seed=2)
        before = key(cnf)
        cnf.clauses = list(reversed(cnf.clauses))
        assert key(cnf) == fresh_key(cnf) != before
        cnf.clauses = list(reversed(cnf.clauses))
        assert key(cnf) == before

    def test_an_equal_clause_in_place_is_a_hit(self, hashes):
        cnf = random_ksat(12, 40, seed=3)
        before = key(cnf)
        cnf.clauses[5] = Clause(cnf.clauses[5].literals)
        del hashes[:]
        assert key(cnf) == before == fresh_key(cnf)
        assert len(hashes) == 1  # the fresh copy's, not the kernel's

    def test_a_different_clause_in_place_is_a_miss(self, hashes):
        cnf = random_ksat(12, 40, seed=4)
        before = key(cnf)
        original = cnf.clauses[5]
        cnf.clauses[5] = Clause([-lit for lit in original.literals])
        del hashes[:]
        changed = key(cnf)
        assert len(hashes) == 1
        assert changed == fresh_key(cnf) != before
        cnf.clauses[5] = original
        assert key(cnf) == before


class TestContext:
    @pytest.mark.parametrize("family", KINDS)
    def test_one_kernel_alternates_configs_and_options(self, family):
        kernel = small(family)[0]
        requests = [
            (DEFAULT_CONFIG, {}),
            (OTHER_CONFIG, {}),
            (DEFAULT_CONFIG, {"optimize": False}),
            (OTHER_CONFIG, {"optimize": False}),
            (DEFAULT_CONFIG, {"keep_fraction": 0.5}),
        ]
        expected = [fresh_key(kernel, config, **options) for config, options in requests]
        for _ in range(3):
            assert [key(kernel, c, **o) for c, o in requests] == expected
        # Configs and read options split keys; unread ones do not.
        reads = adapter_for(kernel).option_fields
        assert len(set(expected[:2])) == 2
        assert (expected[2] != expected[0]) == ("optimize" in reads)
        assert (expected[4] != expected[0]) == ("keep_fraction" in reads)

    def test_an_equal_option_of_another_type_is_another_key(self):
        """``True == 1``, but ``repr`` tells them apart and so does the
        key: the memo compares the bytes that are hashed."""
        cnf = random_ksat(8, 20, seed=5)
        assert key(cnf, optimize=True) != key(cnf, optimize=1) == fresh_key(cnf, optimize=1)
        assert key(cnf, optimize=True) == fresh_key(cnf, optimize=True)


class TestParameters:
    def test_hmm_emission_row_written_in_place(self):
        hmm = HMM.random(4, 5, seed=6)
        before = key(hmm)
        row = hmm.emission[2].copy()
        hmm.emission[2] = row[::-1]
        assert key(hmm) == fresh_key(hmm) != before
        hmm.emission[2] = row
        assert key(hmm) == before

    def test_a_leaf_table_reinterpreted_with_the_same_bytes(self):
        circuit = random_circuit(5, depth=2, seed=8)
        leaf = circuit.plan().leaves[0]
        before = key(circuit)
        table = leaf.probabilities
        # These bytes read as float32 hold a negative entry: the setter
        # refuses them and the leaf keeps its table.
        with pytest.raises(ValueError, match="non-negative"):
            leaf.probabilities = np.frombuffer(table.tobytes(), dtype=np.float32)
        assert leaf.probabilities is table and key(circuit) == before
        # 0.5 as float64 reads as float32 [0.0, 1.75]: valid, another key.
        leaf.probabilities = np.full(len(table), 0.5)
        halves = key(circuit)
        leaf.probabilities = np.frombuffer(leaf.probabilities.tobytes(), dtype=np.float32)
        assert key(circuit) == fresh_key(circuit) not in (before, halves)
        leaf.probabilities = table
        assert key(circuit) == before


class TestHygiene:
    @pytest.mark.parametrize("family", KINDS)
    def test_an_unchanged_kernel_is_not_hashed_again(self, family, hashes):
        kernel = small(family)[0]
        first = key(kernel)
        assert len(hashes) == 1
        assert all(key(kernel) == first for _ in range(5))
        assert len(hashes) == 1

    def test_an_unchanged_cnf_is_not_walked_again(self, monkeypatch):
        cnf = random_ksat(12, 40, seed=9)
        first = key(cnf)
        walks = []
        real = np.fromiter

        def counting(*args, **kwargs):
            walks.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "fromiter", counting)
        assert all(key(cnf) == first for _ in range(5))
        assert walks == []

    def test_an_unchanged_circuit_is_not_gathered_again(self, monkeypatch):
        """Re-keyed, an unchanged circuit reads its parameter buffer
        whole: no ``np.concatenate``, no node's table or weights read,
        and no new layout."""
        circuit = random_circuit(6, depth=3, seed=9)
        first = key(circuit)
        layout = circuit.plan().parameters()
        reads = []
        real = np.concatenate

        def counting(*args, **kwargs):
            reads.append(args)
            return real(*args, **kwargs)

        def counted(prop):
            def get(node):
                reads.append(node)
                return prop.fget(node)

            return property(get, prop.fset)

        monkeypatch.setattr(np, "concatenate", counting)
        for cls, name in ((LeafNode, "probabilities"), (SumNode, "weights")):
            monkeypatch.setattr(cls, name, counted(getattr(cls, name)))
        assert all(key(circuit) == first for _ in range(5))
        assert reads == [] and circuit.plan().parameters() is layout

    @pytest.mark.parametrize("family", KINDS)
    def test_pickles_equality_and_repr_are_unaffected(self, family):
        kernel = small(family)[0]
        twin = copy.copy(kernel)  # shares the parameters; never keyed
        before = (pickle.dumps(kernel), repr(kernel))
        key(kernel)
        assert kernel._key_memo is not None and twin._key_memo is None
        assert (pickle.dumps(kernel), repr(kernel)) == before
        assert pickle.loads(pickle.dumps(kernel))._key_memo is None
        if family in ("cnf", "circuit"):  # dataclass ``==`` over the fields
            assert kernel == twin and twin == kernel


def test_racing_threads_never_read_a_torn_memo():
    """Threads keying one kernel under alternating options keep
    overwriting each other's memo; each one is written whole, so every
    key read back is the one for that thread's own options."""
    cnf = random_ksat(12, 40, seed=13)
    expected = {flag: fresh_key(cnf, optimize=flag) for flag in (True, False)}
    barrier = threading.Barrier(8)
    wrong = []

    def worker(index):
        barrier.wait(timeout=10)
        for step in range(300):
            flag = (index + step) % 2 == 0
            if key(cnf, optimize=flag) != expected[flag]:
                wrong.append((index, step))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def cnf_steps():
    return st.lists(
        st.tuples(
            st.sampled_from(
                ["num_vars", "append", "pop", "equal", "negate", "swap", "reassign", "restore"]
            ),
            st.integers(min_value=0, max_value=10_000),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    )


@settings(max_examples=40, deadline=None)
@given(steps=cnf_steps())
def test_random_cnf_mutations_never_serve_a_stale_key(steps):
    cnf = random_ksat(10, 24, seed=11)
    saved = (list(cnf.clauses), cnf.num_vars)
    for op, draw, optimize in steps:
        clauses = cnf.clauses
        i = draw % len(clauses) if clauses else 0
        if op == "num_vars":
            cnf.num_vars += 1 + draw % 3
        elif op == "append":
            cnf.add_clause([1 + draw % cnf.num_vars, -(1 + (draw // 7) % cnf.num_vars)])
        elif op == "pop" and clauses:
            clauses.pop(i)
        elif op == "equal" and clauses:
            clauses[i] = Clause(clauses[i].literals)
        elif op == "negate" and clauses:
            clauses[i] = Clause([-lit for lit in clauses[i].literals])
        elif op == "swap" and clauses:
            j = (draw // 13) % len(clauses)
            clauses[i], clauses[j] = clauses[j], clauses[i]
        elif op == "reassign":
            cnf.clauses = list(clauses)
        elif op == "restore":
            cnf.clauses[:] = saved[0]
            cnf.num_vars = saved[1]
        assert key(cnf, optimize=optimize) == fresh_key(cnf, optimize=optimize)


def circuit_steps():
    return st.lists(
        st.tuples(
            st.sampled_from(["weight", "leaf", "narrow", "normalize", "root", "restore"]),
            st.integers(min_value=0, max_value=10_000),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    )


@settings(max_examples=40, deadline=None)
@given(steps=circuit_steps())
def test_random_circuit_mutations_never_serve_a_stale_key(steps):
    circuit = random_circuit(5, depth=3, seed=12)
    plan = circuit.plan()
    root, leaves, sums = circuit.root, list(plan.leaves), list(plan.sums)
    saved_tables = [leaf.probabilities.copy() for leaf in leaves]
    saved_weights = [node.weights.copy() for node in sums]
    for op, draw, other_config in steps:
        leaf = leaves[draw % len(leaves)]
        node = sums[draw % len(sums)]
        if op == "weight":
            node.weights[draw % len(node.weights)] = (draw % 97) / 97
        elif op == "leaf":
            leaf.probabilities[draw % len(leaf.probabilities)] = (draw % 89) / 89
        elif op == "narrow":
            leaf.probabilities = leaf.probabilities.astype(np.float32)
        elif op == "normalize":
            node.normalize()
        elif op == "root":
            circuit.root = root.children[draw % len(root.children)]
        elif op == "restore":
            circuit.root = root
            for leaf, table in zip(leaves, saved_tables):
                leaf.probabilities = table.copy()
            for node, weights in zip(sums, saved_weights):
                node.weights = weights.copy()
        config = OTHER_CONFIG if other_config else DEFAULT_CONFIG
        assert key(circuit, config) == fresh_key(circuit, config)
