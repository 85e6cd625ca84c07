"""Adapter registry: type dispatch, fingerprints, and the error path."""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.pc.circuit
from repro.api import (
    DiskStore,
    ReasonSession,
    adapter_for,
    register_adapter,
)
from repro.api.adapters import (
    CircuitAdapter,
    CnfAdapter,
    DagAdapter,
    HmmAdapter,
    KernelAdapter,
    RunOptions,
)
from repro.core.arch.config import DEFAULT_CONFIG
from repro.core.dag import cnf_to_dag, prune_logic_dag
from repro.core.dag.graph import Dag, OpType
from repro.hmm.model import HMM
from repro.logic.cnf import CNF
from repro.logic.generators import random_ksat, redundant_sat
from repro.pc.circuit import Circuit, CircuitNode, LeafNode, ProductNode, SumNode
from repro.pc.flows import dataset_edge_flows
from repro.pc.learn import random_circuit


def fingerprint(kernel, **options):
    return adapter_for(kernel).fingerprint(kernel, RunOptions(**options), DEFAULT_CONFIG)


class TestRegistryDispatch:
    def test_each_kernel_family_resolves(self):
        kinds = {
            adapter_for(random_ksat(6, 18, seed=0)).kind: CNF,
            adapter_for(random_circuit(4, depth=2, seed=1)).kind: Circuit,
            adapter_for(HMM.random(3, 4, seed=2)).kind: HMM,
            adapter_for(cnf_to_dag(random_ksat(5, 12, seed=3))[0]).kind: Dag,
        }
        assert set(kinds) == {"cnf", "circuit", "hmm", "dag"}

    def test_unsupported_type_raises_with_supported_list(self):
        with pytest.raises(TypeError, match="unsupported kernel type: str"):
            adapter_for("not a kernel")
        with pytest.raises(TypeError, match="CNF"):
            adapter_for(42)

    def test_registry_is_extensible(self):
        class Fake:
            pass

        class FakeAdapter(KernelAdapter):
            kind = "fake"

        from repro.api import adapters as adapters_module

        try:
            register_adapter(Fake, FakeAdapter())
            assert adapter_for(Fake()).kind == "fake"
        finally:
            adapters_module._ADAPTERS.pop(Fake, None)

    def test_the_base_methods_raise_until_overridden(self):
        adapter = KernelAdapter()
        with pytest.raises(NotImplementedError):
            adapter.kernel_key(object())
        with pytest.raises(NotImplementedError):
            adapter.prepare(object(), RunOptions(), DEFAULT_CONFIG)
        with pytest.raises(NotImplementedError):
            adapter.reference(None)

    def test_an_adapter_without_a_kernel_key_cannot_fingerprint(self):
        # Were the base kernel_key to return None, every kernel of the
        # family would share one cache key.
        class Fake:
            pass

        class KeylessAdapter(KernelAdapter):
            kind = "keyless"

        from repro.api import adapters as adapters_module

        try:
            register_adapter(Fake, KeylessAdapter())
            with pytest.raises(NotImplementedError):
                adapter_for(Fake()).fingerprint(Fake(), RunOptions(), DEFAULT_CONFIG)
            with pytest.raises(NotImplementedError):
                ReasonSession().run(Fake())
        finally:
            adapters_module._ADAPTERS.pop(Fake, None)


class TestFingerprints:
    def test_identical_content_same_key(self):
        options = RunOptions()
        a = random_ksat(10, 30, seed=4)
        b = random_ksat(10, 30, seed=4)  # fresh object, same content
        adapter = CnfAdapter()
        assert a is not b
        assert adapter.fingerprint(a, options, DEFAULT_CONFIG) == adapter.fingerprint(
            b, options, DEFAULT_CONFIG
        )

    def test_different_content_different_key(self):
        options = RunOptions()
        adapter = CnfAdapter()
        a = random_ksat(10, 30, seed=4)
        b = random_ksat(10, 30, seed=5)
        assert adapter.fingerprint(a, options, DEFAULT_CONFIG) != adapter.fingerprint(
            b, options, DEFAULT_CONFIG
        )

    def test_options_are_part_of_the_key(self):
        adapter = CnfAdapter()
        kernel = random_ksat(10, 30, seed=6)
        optimized = adapter.fingerprint(kernel, RunOptions(optimize=True), DEFAULT_CONFIG)
        raw = adapter.fingerprint(kernel, RunOptions(optimize=False), DEFAULT_CONFIG)
        assert optimized != raw

    def test_hmm_observations_in_key(self):
        adapter = HmmAdapter()
        hmm = HMM.random(3, 4, seed=7)
        a = adapter.fingerprint(hmm, RunOptions(hmm_observations=(0, 1)), DEFAULT_CONFIG)
        b = adapter.fingerprint(hmm, RunOptions(hmm_observations=(1, 0)), DEFAULT_CONFIG)
        assert a != b

    def test_empty_hmm_observations_raise_cold_and_warm(self):
        """``[]`` is a request of its own, not the default unroll: it
        must not be answered from the entry a plain run cached."""
        hmm = HMM.random(4, 6, seed=9)
        session = ReasonSession()
        with pytest.raises(ValueError, match="empty observation"):
            session.run(hmm, hmm_observations=[])
        assert session.run(hmm).result > 0.0
        with pytest.raises(ValueError, match="empty observation"):
            session.run(hmm, hmm_observations=[])

    def test_dag_key_covers_structure(self):
        adapter = DagAdapter()
        dag_a, _ = cnf_to_dag(random_ksat(6, 15, seed=8))
        dag_b, _ = cnf_to_dag(random_ksat(6, 15, seed=9))
        options = RunOptions()
        assert adapter.fingerprint(dag_a, options, DEFAULT_CONFIG) != adapter.fingerprint(
            dag_b, options, DEFAULT_CONFIG
        )

    def test_clause_boundaries_are_part_of_the_key(self):
        # The same literal stream, cut differently.
        assert fingerprint(CNF([[1, 2], [3]], 3)) != fingerprint(CNF([[1], [2, 3]], 3))
        # Clause normalises literal order; declared variables count.
        assert fingerprint(CNF([[1, 2], [3]], 3)) == fingerprint(CNF([(2, 1), (3,)], 3))
        assert fingerprint(CNF([[1, 2], [3]], 3)) != fingerprint(CNF([[1, 2], [3]], 4))

    def test_calibration_boundaries_are_part_of_the_key(self):
        hmm = HMM.random(3, 4, seed=7)

        def key(calibration):
            return fingerprint(hmm, calibration=calibration)

        assert key([[1, 2], [3]]) != key([[1], [2, 3]])
        assert key([[1, 2], [3]]) == key([(1, 2), np.array([3])])
        assert key([]) != key(None) != key([[]])

    def test_marginal_evidence_is_not_a_value(self):
        """``None``, an absent variable and the int64 code flows uses
        for a marginalised one are three different requests."""
        circuit = mixture()
        keys = [
            fingerprint(circuit, calibration=[evidence])
            for evidence in ({1: None}, {}, {1: -(2**63)}, {1: 0}, {0: 1}, {1: 2**63})
        ]
        assert len(set(keys)) == len(keys)

    def test_evidence_order_is_not_part_of_the_key(self):
        circuit = mixture()

        def key(evidence):
            return fingerprint(circuit, calibration=[evidence])

        assert key({0: 1, 1: 0}) == key({1: 0, 0: 1}) == key({0: np.int64(1), 1: False})
        assert key({0: 1, 1: 0}) != key({0: 0, 1: 1})

    def test_float_evidence_still_fails_in_the_front_end(self):
        """The key takes what ``struct`` rejects by ``repr``; the flows
        that read the evidence are where a float is refused."""
        session = ReasonSession()
        with pytest.raises(TypeError):
            session.run(mixture(), calibration=[{0: 1.5}])
        assert session.prepare_calls == 0

    def test_dag_records_are_self_delimiting(self):
        def key(first_children, weights):
            dag = Dag()
            leaves = [dag.add_op(OpType.LEAF, payload=(v, (0.5, 0.5))) for v in range(3)]
            first = dag.add_op(OpType.SUM, [leaves[c] for c in first_children], None, weights)
            dag.set_root(dag.add_op(OpType.PRODUCT, [first, leaves[2]]))
            return fingerprint(dag)

        keys = [
            key([0, 1], [0.5, 0.5]),
            key([0, 1], [0.25, 0.75]),
            key([1, 0], [0.5, 0.5]),
            key([0], [1.0]),
        ]
        assert len(set(keys)) == len(keys)
        assert key([0, 1], [0.5, 0.5]) == keys[0]


COMPILE_OPTIONS = ("optimize", "keep_fraction", "calibration", "hmm_observations")

#: Per family: a kernel builder, a calibration it accepts, and the
#: compile options its ``prepare`` reads (stated here, not read back
#: from the adapter).
FAMILIES = {
    "cnf": (lambda: random_ksat(10, 30, seed=3), [{1: 1}], ("optimize",)),
    "circuit": (
        lambda: random_circuit(4, depth=2, seed=3),
        [{0: 1, 1: 0}, {0: 0}],
        ("optimize", "keep_fraction", "calibration"),
    ),
    "hmm": (lambda: HMM.random(4, 5, seed=3), [[0, 1, 2], [2, 1, 0]], COMPILE_OPTIONS),
    "dag": (lambda: cnf_to_dag(random_ksat(6, 15, seed=3))[0], [[0, 1]], ()),
}


class TestOptionFields:
    """An adapter hashes exactly the options its front end reads."""

    @pytest.mark.parametrize("option", COMPILE_OPTIONS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_unread_options_share_an_entry_and_read_ones_split_it(self, family, option):
        build, calibration, reads = FAMILIES[family]
        value = {
            "optimize": False,
            "keep_fraction": 0.5,
            "calibration": calibration,
            "hmm_observations": (0, 1),
        }[option]
        kernel = build()
        assert adapter_for(kernel).option_fields == reads
        session = ReasonSession()
        session.run(kernel)
        again = session.run(kernel, **{option: value})
        if option in reads:
            assert fingerprint(kernel, **{option: value}) != fingerprint(kernel)
            assert not again.cache_hit and session.prepare_calls == 2
        else:
            assert fingerprint(kernel, **{option: value}) == fingerprint(kernel)
            assert again.cache_hit and session.prepare_calls == 1

    def test_an_adapter_that_declares_nothing_keys_every_compile_option(self):
        assert KernelAdapter.option_fields == COMPILE_OPTIONS

    def test_observation_options_never_enter_a_key(self):
        for build, _, _ in FAMILIES.values():
            kernel = build()
            assert fingerprint(kernel, trace=True, verify=True) == fingerprint(kernel)


SALT_SCRIPT = """
import json
from repro.api.adapters import RunOptions, adapter_for
from repro.core.arch.config import DEFAULT_CONFIG
from repro.core.dag import cnf_to_dag
from repro.hmm.model import HMM
from repro.logic.generators import random_ksat
from repro.pc.learn import random_circuit, sample_dataset

circuit = random_circuit(6, depth=3, seed=11)
requests = [
    (random_ksat(12, 40, seed=11), {"optimize": False}),
    (circuit, {"calibration": sample_dataset(circuit, 4, seed=11)}),
    (HMM.random(4, 5, seed=11), {"hmm_observations": [0, 1, 2]}),
    (cnf_to_dag(random_ksat(6, 15, seed=11))[0], {}),
]
print(json.dumps([
    adapter_for(kernel).fingerprint(kernel, RunOptions(**options), DEFAULT_CONFIG)
    for kernel, options in requests
]))
"""


def test_fingerprints_do_not_depend_on_the_hash_salt():
    """Tier-1 pins ``PYTHONHASHSEED``, so nothing else would notice a
    key that iterates a set or hashes a string: one seeded kernel per
    family, keyed in two interpreters with different salts."""

    def keys(salt):
        result = subprocess.run(
            [sys.executable, "-c", SALT_SCRIPT],
            env={**os.environ, "PYTHONHASHSEED": salt},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        return json.loads(result.stdout)

    first, second = keys("1"), keys("2")
    assert first == second
    assert len(set(first)) == 4


def mixture(weight=0.3, probability=0.2, third_uses=0):
    """Three products over two leaves per variable, mixed by one sum;
    ``third_uses`` picks which X0 leaf the third product points at."""
    x0 = [LeafNode(0, [probability, 1.0 - probability]), LeafNode(0, [0.6, 0.4])]
    x1 = [LeafNode(1, [0.5, 0.5]), LeafNode(1, [0.9, 0.1])]
    products = [
        ProductNode([x0[0], x1[0]]),
        ProductNode([x0[1], x1[1]]),
        ProductNode([x0[third_uses], x1[1]]),
    ]
    return Circuit(SumNode(products, [weight, 0.5, 0.5 - weight]))


class TestCircuitFingerprints:
    """The circuit key is canonical bytes (child indices, variables,
    packed doubles), not a ``repr`` — still content-determined."""

    @staticmethod
    def key(circuit):
        return CircuitAdapter().fingerprint(circuit, RunOptions(), DEFAULT_CONFIG)

    def test_separately_built_equal_circuits_share_a_key(self):
        assert self.key(mixture()) == self.key(mixture())
        big_a, big_b = random_circuit(8, depth=3, seed=5), random_circuit(8, depth=3, seed=5)
        assert big_a is not big_b
        assert self.key(big_a) == self.key(big_b)

    @pytest.mark.parametrize(
        "change",
        [{"weight": 0.3 + 1e-12}, {"probability": 0.2 + 1e-12}, {"third_uses": 1}],
        ids=["one-weight", "one-probability", "one-edge"],
    )
    def test_one_change_changes_the_key(self, change):
        assert self.key(mixture(**change)) != self.key(mixture())

    def test_kernel_key_is_bytes(self):
        # Hashed raw by content_key: nothing left for repr to walk.
        assert isinstance(CircuitAdapter().kernel_key(mixture()), bytes)

    def test_unknown_node_type_rejected(self):
        class Stray(CircuitNode):
            def scope(self):
                return frozenset([0])

        with pytest.raises(TypeError, match="unsupported circuit node type: Stray"):
            self.key(Circuit(Stray()))


    def test_table_boundaries_are_part_of_the_key(self):
        """Tables of 2 and 3 entries against 3 and 2, holding the same
        five doubles in the same order."""

        def two_leaves(first, second):
            return Circuit(ProductNode([LeafNode(0, first), LeafNode(1, second)]))

        values = [0.1, 0.2, 0.3, 0.4, 0.5]
        assert self.key(two_leaves(values[:2], values[2:])) != self.key(
            two_leaves(values[:3], values[3:])
        )

    def test_a_reinterpreted_table_changes_the_key(self):
        """A float32 array assigned over a float64 one with the very
        same bytes is another table; the same *values* in another dtype
        are not."""
        circuit = mixture(probability=0.5)
        leaf = circuit.topological_order()[0]
        before = self.key(circuit)
        table = leaf.probabilities
        # [0.5, 0.5] as float32 is [0.0, 1.75, 0.0, 1.75]: a valid table
        # (bytes that read as a negative float32 are refused by the setter).
        leaf.probabilities = np.frombuffer(table.tobytes(), dtype=np.float32)
        assert leaf.probabilities.tolist() == [0.0, 1.75, 0.0, 1.75]
        assert self.key(circuit) != before
        leaf.probabilities = np.array([0.25, 0.75], dtype=np.float32)
        narrow = self.key(circuit)
        leaf.probabilities = np.array([0.25, 0.75])
        assert self.key(circuit) == narrow != before

    def test_structure_is_walked_once_per_root(self, monkeypatch):
        built = []
        plan_type = repro.pc.circuit.CircuitPlan

        def counting(root):
            built.append(root)
            return plan_type(root)

        monkeypatch.setattr(repro.pc.circuit, "CircuitPlan", counting)
        circuit = random_circuit(6, depth=3, seed=2)
        keys = {self.key(circuit) for _ in range(100)}
        assert len(keys) == 1 and built == [circuit.root]
        # Everything else that walks the graph reads the same plan.
        circuit.topological_order()
        dataset_edge_flows(circuit, [{0: 1}, {1: 0}])
        assert built == [circuit.root]
        # A new root is a new graph.
        circuit.root = circuit.root.children[0]
        assert self.key(circuit) not in keys and len(built) == 2


    def test_racing_first_builds_agree(self):
        """Producer threads keying one never-seen circuit at once may
        each build its plan; whichever is stored, the key is the same."""
        circuit = random_circuit(8, depth=3, seed=4)
        expected = self.key(random_circuit(8, depth=3, seed=4))
        barrier = threading.Barrier(8)
        keys = []

        def worker():
            barrier.wait(timeout=10)
            keys.append(self.key(circuit))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert keys == [expected] * 8


class TestEqualKernelsShareAKey:
    """Keys are content: two objects built apart from one seed agree,
    and a different seed disagrees."""

    BUILDERS = {
        "circuit": lambda seed: random_circuit(2 + seed % 5, depth=1 + seed % 3, seed=seed),
        "cnf": lambda seed: random_ksat(5 + seed % 9, 12 + seed % 17, seed=seed),
        "hmm": lambda seed: HMM.random(2 + seed % 4, 2 + seed % 5, seed=seed),
    }

    @pytest.mark.parametrize("family", BUILDERS)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_one_seed_one_key(self, family, seed):
        build = self.BUILDERS[family]
        assert fingerprint(build(seed)) == fingerprint(build(seed))
        assert fingerprint(build(seed)) != fingerprint(build(seed + 1))


class TestPreparedArtifacts:
    def test_cnf_artifact_carries_trace_and_verdict(self):
        adapter = CnfAdapter()
        artifact = adapter.prepare(random_ksat(10, 30, seed=10), RunOptions(), DEFAULT_CONFIG)
        assert artifact.solver is not None and artifact.solver.trace
        assert "verdict" in artifact.extras
        assert artifact.profile.flops > 0

    def test_cnf_artifact_counts_the_pruned_dag_without_building_it(self, tmp_path):
        kernel, _ = redundant_sat(40, 160, redundancy=0.3, seed=0)
        session = ReasonSession(store=DiskStore(tmp_path))
        artifact = session.compile(kernel)
        optimization = artifact.optimization
        assert optimization.dag is None and artifact.dag is None
        assert optimization.pruned_model is artifact.model
        pruned_dag, pruned_cnf, _ = prune_logic_dag(kernel)
        assert optimization.memory_after == pruned_dag.memory_footprint()
        assert optimization.memory_after < optimization.memory_before
        assert [c.literals for c in artifact.model.clauses] == [
            c.literals for c in pruned_cnf.clauses
        ]
        # The stored artifact replays to the compiling session's report.
        report = session.run(kernel, queries=3)
        restarted = ReasonSession(store=DiskStore(tmp_path))
        replayed = restarted.run(kernel, queries=3)
        assert replayed.cache_hit and restarted.prepare_calls == 0
        assert replayed.identity() == report.identity()

    def test_unoptimized_cnf_artifact_has_no_optimization(self):
        kernel = random_ksat(10, 30, seed=10)
        artifact = CnfAdapter().prepare(kernel, RunOptions(optimize=False), DEFAULT_CONFIG)
        assert artifact.optimization is None and artifact.model is kernel

    def test_dag_artifact_compiles_program(self):
        adapter = DagAdapter()
        dag, _ = cnf_to_dag(random_ksat(6, 15, seed=11))
        artifact = adapter.prepare(dag, RunOptions(), DEFAULT_CONFIG)
        assert artifact.program is not None
        assert artifact.compile_stats.cycles > 0


def leaf_mixture(weight=0.5, table=(0.3, 0.7)):
    """A raw DAG: a SUM over two LEAFs of variable 0, root id 2."""
    dag = Dag()
    first = dag.add_op(OpType.LEAF, payload=(0, list(table)))
    second = dag.add_op(OpType.LEAF, payload=(0, [0.5, 0.5]))
    dag.set_root(dag.add_op(OpType.SUM, [first, second], weights=[weight, 1.0 - weight]))
    return dag


class TestRawDagInputs:
    """A raw DAG reaches no Circuit or HMM constructor, so its adapter
    rejects what they reject before anything compiles."""

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_sum_weight_names_its_node(self, weight):
        with pytest.raises(ValueError, match="DAG node 2 "):
            ReasonSession().run(leaf_mixture(weight=weight))

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")])
    def test_a_non_finite_leaf_probability_names_its_node(self, entry):
        with pytest.raises(ValueError, match="DAG node 0 "):
            ReasonSession().run(leaf_mixture(table=(entry, 0.5)))

    def test_a_rejected_dag_is_not_cached(self):
        session = ReasonSession()
        for _ in range(2):
            with pytest.raises(ValueError):
                session.run(leaf_mixture(weight=float("nan")))
        assert session.run(leaf_mixture()).result == pytest.approx(1.0)
