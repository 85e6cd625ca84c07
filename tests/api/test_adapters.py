"""Adapter registry: type dispatch, fingerprints, and the error path."""

import pytest

from repro.api import (
    DiskStore,
    ReasonSession,
    adapter_for,
    register_adapter,
    registered_adapters,
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
from repro.core.dag.graph import Dag
from repro.hmm.model import HMM
from repro.logic.cnf import CNF
from repro.logic.generators import random_ksat, redundant_sat
from repro.pc.circuit import Circuit, CircuitNode, LeafNode, ProductNode, SumNode
from repro.pc.learn import random_circuit


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

        before = dict(registered_adapters())
        try:
            register_adapter(Fake, FakeAdapter())
            assert adapter_for(Fake()).kind == "fake"
        finally:
            registered = registered_adapters()
            for extra in set(registered) - set(before):
                from repro.api import adapters as adapters_module

                adapters_module._ADAPTERS.pop(extra)


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
