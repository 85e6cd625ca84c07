"""The key memo: a kernel remembers its last digest against what it was
computed from, and serves it again only while that compares equal.

Every case checks the remembered answer against a never-keyed
``copy.deepcopy`` of the kernel, which has no memo to consult."""

import copy
import math
import pickle
import sys
import threading
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.api.adapters as adapters_module
from repro.api.adapters import DEFAULT_OPTIONS, HmmAdapter, RunOptions, adapter_for
from repro.api.cache import key_part
from repro.core.arch.config import DEFAULT_CONFIG
from repro.hmm.model import HMM
from repro.logic.cnf import Clause
from repro.logic.generators import random_ksat
from repro.pc.circuit import LeafNode, SumNode
from repro.pc.learn import random_circuit

from tests.corpus import KINDS, fresh_key, key, small

OTHER_CONFIG = DEFAULT_CONFIG.with_ablation(linked_list_layout=False)

#: ``(kind, field) -> key`` of the kind's ``small`` corpus kernel under
#: the default options (``"default"``) and with each option its adapter
#: reads changed (:func:`recorded_options`), recorded at 4fe8d3c.  Every
#: other test here holds a key to a fresh copy's; these hold it to what
#: a ``DiskStore`` written before a change is addressed by, so a change
#: that repacks every key alike fails here.
RECORDED_KEYS = {
    ("cnf", "default"): "a5f64720be0014828d13b96574bf130471e7257229c315b16d911f031774c268",
    ("cnf", "optimize"): "8fe87308dac1b372e586ad23be4feebb2020a5443e67d2a6a5972b90a4446000",
    ("circuit", "default"): "ffa60eb9c06472ace8c678ccedc8d0ef54901c16817a9c1edc35be7bcfa47c06",
    ("circuit", "optimize"): "50248535bce5e6a831b6709ff13dcd6795e54d303aaf57c4ffd86cc31066db19",
    ("circuit", "keep_fraction"): "3fc44dc2da4cc9ed1a6fe427ab591050a30dea3b0ec8c797b0e8be9a217223c1",
    ("circuit", "calibration"): "f6944cb15b2a86842ab2e2c21c7acead12ed457f3c73b785c7d4794c955f7b39",
    ("hmm", "default"): "1dade1db52d23c508d858b2695e23a222915629b89a424f4d70ff5ad64886889",
    ("hmm", "optimize"): "bc6b44fbc34ba0d9533c93d899e5c4e5ba3dfe8dcfb4938e2dcf6658b95c4619",
    ("hmm", "keep_fraction"): "7552d226c814df85090f360bdaf7272d6b4e871653ee126928e9ded331ed1ebd",
    ("hmm", "calibration"): "777c7dd08f6edbce2c80a3eaa32f4bc3c694e08ef1ee4c4921533e1e7e583bb0",
    ("hmm", "hmm_observations"): "b328c7c1c2e7025ce721b6a3c92bc36a5e87666c41a7ceaf5f7296dc59f3f3af",
    ("dag", "default"): "01959409f2cbbac3e994dbb8829df36e6623698806f47f2448679ff67299cb7e",
}


def recorded_options(kind, field):
    """The options a :data:`RECORDED_KEYS` entry is keyed under."""
    if field == "default":
        return {}
    if field == "optimize":
        return {"optimize": False}
    if field == "keep_fraction":
        return {"keep_fraction": 0.5}
    if field == "calibration" and kind == "hmm":
        return {"calibration": [[0, 1, 2, 3], [3, 2, 1, 0]]}
    # The corpus entry's own: the circuit's calibration, the HMM's
    # observation sequence.
    options = small(kind)[1]
    assert list(options) == [field]
    return options


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


class TestRecordedKeys:
    def test_every_option_an_adapter_reads_is_recorded(self):
        for kind in KINDS:
            recorded = {field for k, field in RECORDED_KEYS if k == kind}
            assert recorded == {"default", *adapter_for(small(kind)[0]).option_fields}

    @pytest.mark.parametrize("kind, field", list(RECORDED_KEYS))
    def test_a_key_is_its_recorded_value(self, kind, field):
        kernel = small(kind)[0]
        options = recorded_options(kind, field)
        recorded = RECORDED_KEYS[kind, field]
        # Cold, then warm from the memo.
        assert [key(kernel, **options) for _ in range(3)] == [recorded] * 3
        if field == "default":
            adapter = adapter_for(kernel)
            assert adapter.fingerprint(kernel, DEFAULT_OPTIONS, DEFAULT_CONFIG) == recorded


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

    def test_scalars_equal_under_eq_key_by_their_exact_value(self):
        """Option scalars are compared by their exact value: type, and a
        float's bit pattern.  ``True == 1 == np.True_``, ``0.0 == -0.0``
        and ``0.8 == np.float64(0.8)``, and a NaN equals nothing; each
        still gets the key its own ``repr`` gives it."""

        def cases():
            # A fresh NaN each time: found again by its bits, not by identity.
            return [
                {"optimize": flag} for flag in (True, 1, np.True_)
            ] + [
                {"keep_fraction": fraction}
                for fraction in (0.8, np.float64(0.8), 0.0, -0.0, float("nan"))
            ]

        kernel = small("hmm")[0]
        cold = []
        for options in cases():
            cold.append(key(kernel, **options))
            assert [key(kernel, **options) for _ in range(2)] == [cold[-1]] * 2
            assert cold[-1] == fresh_key(kernel, **options)
        # Alternated, every request follows another case's.
        for _ in range(2):
            assert [key(kernel, **options) for options in cases()] == cold
        scalars = [RunOptions(**options) for options in cases()]
        parts = [(key_part(o.optimize), key_part(o.keep_fraction)) for o in scalars]
        for i, j in combinations(range(len(parts)), 2):
            assert (cold[i] == cold[j]) == (parts[i] == parts[j]), (i, j)
        # The defaults (True, 0.8), then 1, 0.0, -0.0 and NaN at least.
        assert len(set(cold)) >= 5
        # Many exact values on one circuit: each keys apart, as fresh.
        circuit = small("circuit")[0]
        fractions = [index / 40 for index in range(1, 41)]
        keys = [key(circuit, keep_fraction=f) for f in fractions]
        assert len(set(keys)) == len(fractions)
        assert keys == [fresh_key(circuit, keep_fraction=f) for f in fractions]
        assert [key(circuit, keep_fraction=f) for f in fractions] == keys
        assert key(circuit, keep_fraction=math.nan) == fresh_key(circuit, keep_fraction=math.nan)


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

    def test_an_unchanged_hmm_is_not_packed_again(self, monkeypatch, hashes):
        """With its observation sequence: every warm request, the first
        included, compares snapshots and packs nothing."""
        hmm, options = small("hmm")
        packs = []
        real = HmmAdapter.snapshot_key

        def counting(self, snapshot):
            packs.append(snapshot)
            return real(self, snapshot)

        monkeypatch.setattr(HmmAdapter, "snapshot_key", counting)
        first = key(hmm, **options)
        assert len(packs) == len(hashes) == 1
        assert all(key(hmm, **options) == first for _ in range(5))
        assert len(packs) == len(hashes) == 1

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


def hmm_steps():
    return st.lists(
        st.tuples(
            st.sampled_from(["entry", "list", "int", "float32", "reshape", "restore"]),
            st.integers(min_value=0, max_value=10_000),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    )


@settings(max_examples=40, deadline=None)
@given(steps=hmm_steps())
def test_random_hmm_mutations_never_serve_a_stale_key(steps):
    """An HMM's matrices are plain attributes: written in place,
    reassigned as another type, or reshaped over the same bytes."""
    hmm, observed = small("hmm")
    names = ("initial", "transition", "emission")
    saved = {name: getattr(hmm, name).copy() for name in names}
    original = {flag: key(hmm, **(observed if flag else {})) for flag in (True, False)}
    for op, draw, with_observations in steps:
        options = observed if with_observations else {}
        name = names[draw % len(names)]
        matrix = getattr(hmm, name)
        value = (draw % 89) / 89
        before = key(hmm, **options)
        if op == "entry":
            if isinstance(matrix, np.ndarray):
                matrix.flat[draw % matrix.size] = value
            elif isinstance(matrix[0], list):
                matrix[draw % len(matrix)][draw // 7 % len(matrix[0])] = value
            else:
                matrix[draw % len(matrix)] = value
        elif op == "list":
            setattr(hmm, name, np.asarray(matrix, dtype=np.float64).tolist())
        elif op == "int":
            setattr(hmm, name, (np.asarray(matrix, dtype=np.float64) * 4).astype(np.int64))
        elif op == "float32":
            setattr(hmm, name, np.asarray(matrix, dtype=np.float32))
        elif op == "reshape":
            array = np.asarray(matrix, dtype=np.float64)
            setattr(hmm, name, array.reshape(-1) if array.ndim == 2 else array.reshape(1, -1))
        elif op == "restore":
            for saved_name, saved_matrix in saved.items():
                setattr(hmm, saved_name, saved_matrix.copy())
        after = key(hmm, **options)
        assert after == fresh_key(hmm, **options)
        if op == "reshape":
            assert after != before
        elif op == "restore":
            assert after == original[with_observations]
