"""A circuit or HMM is lowered to its two-input DAG in one pass.

``optimize`` rewrites the pruned kernel's columns straight into the
two-input DAG (:func:`~repro.core.dag.regularize.two_input`): a
circuit's are its parent's with the dropped edges filtered out, an
HMM's those of its unrolled DAG, read without a plan.  The old route
planned the n-ary Stage-1 DAG and rewrote it with
:func:`~repro.core.dag.regularize_two_input`; that route is the
reference here.  Both must give the same DAG, byte for byte of
``DagAdapter().kernel_key``, with the same sizes, pruned and plain.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.dag.graph as graph
import repro.pc.circuit as circuit_module
from repro import ReasonSession
from repro.api.adapters import DagAdapter
from repro.core.dag import (
    Dag,
    circuit_to_dag,
    hmm_to_dag,
    optimize,
    prune_circuit_by_flow,
    prune_hmm_by_posterior,
    regularize_two_input,
)
from repro.core.dag.builders import circuit_columns
from repro.core.dag.regularize import two_input
from repro.hmm.model import HMM
from repro.pc.circuit import Circuit
from repro.pc.learn import random_circuit, sample_dataset

from tests import corpus


def key(dag: Dag) -> bytes:
    return DagAdapter().kernel_key(dag)


def assert_pruned_circuit_lowering(circuit, calibration, keep_fraction=0.8):
    pruned, report = prune_circuit_by_flow(circuit, calibration, keep_fraction)
    result = optimize(circuit, calibration=calibration, keep_fraction=keep_fraction)
    nary, _ = circuit_to_dag(pruned)
    assert key(result.dag) == key(regularize_two_input(nary))
    assert result.dag.num_nodes == regularize_two_input(nary).num_nodes
    assert result.memory_after == nary.memory_footprint()
    assert vars(result.stage_report) == vars(report)
    assert (report.nodes_after, report.edges_after) == (pruned.num_nodes, pruned.num_edges)
    assert result.pruned_model.num_states == pruned.num_states


def assert_plain_circuit_lowering(circuit):
    nary, _ = circuit_to_dag(circuit)
    columns = circuit_columns(circuit.plan())
    assert columns == nary.columns()
    assert key(two_input(columns, columns.reachable().order)) == key(regularize_two_input(nary))


def assert_hmm_lowering(hmm, observations, calibration):
    nary = hmm_to_dag(hmm, observations)
    columns = nary.columns()
    lowered = two_input(columns, columns.reachable().order)
    assert nary._plan is None
    assert key(lowered) == key(regularize_two_input(nary))
    assert lowered.num_nodes == regularize_two_input(nary).num_nodes
    result = optimize(hmm, calibration=calibration)
    pruned, _ = prune_hmm_by_posterior(hmm, calibration, threshold_quantile=1.0 - 0.8)
    pruned_nary = hmm_to_dag(pruned, calibration[0], prune_transition_below=0.0)
    assert key(result.dag) == key(regularize_two_input(pruned_nary))
    assert result.memory_after == pruned_nary.memory_footprint()


@pytest.mark.parametrize("name", corpus.probabilistic())
def test_corpus_kernels_lower_as_the_old_route_does(name):
    kernel, options = corpus.build(name)
    if isinstance(kernel, Circuit):
        assert_pruned_circuit_lowering(kernel, options["calibration"])
        assert_plain_circuit_lowering(kernel)
    else:
        calibration = options.get("calibration") or [options["hmm_observations"]]
        observations = options.get("hmm_observations") or calibration[0]
        assert_hmm_lowering(kernel, observations, calibration)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans(), st.sampled_from([0.3, 0.8, 1.0]))
def test_tree_and_dag_shaped_circuits_lower_as_the_old_route_does(seed, shared, keep_fraction):
    rng = random.Random(seed)
    if shared:
        circuit, _ = corpus.shared_circuit_and_data(seed, 0)
    else:
        circuit = random_circuit(
            rng.randint(2, 7), depth=rng.randint(1, 3), sum_children=rng.randint(2, 4), seed=seed
        )
    calibration = sample_dataset(circuit, rng.choice((1, 8, 32)), seed=seed)
    assert_pruned_circuit_lowering(circuit, calibration, keep_fraction)
    assert_plain_circuit_lowering(circuit)


def sparse_hmm(seed: int) -> HMM:
    """A random HMM with a share of its transitions zeroed (every row
    keeps one), so some states have fewer parents than others and some
    none at all."""
    rng = np.random.default_rng(seed)
    states = int(rng.integers(1, 7))
    hmm = HMM.random(states, int(rng.integers(2, 5)), seed=seed)
    transition = hmm.transition * (rng.random((states, states)) < rng.random())
    keep = rng.integers(0, states, size=states)
    transition[np.arange(states), keep] += 0.1
    return HMM(hmm.initial, transition / transition.sum(axis=1, keepdims=True), hmm.emission)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sparse_transition_hmms_lower_as_the_old_route_does(seed):
    hmm = sparse_hmm(seed)
    rng = random.Random(seed)
    calibration = [
        [int(o) for o in hmm.sample(rng.randint(1, 7), random.Random(seed + i))[1]]
        for i in range(rng.randint(1, 3))
    ]
    observations = [rng.randrange(hmm.num_observations) for _ in range(rng.randint(1, 6))]
    assert_hmm_lowering(hmm, observations, calibration)


def test_optimize_builds_one_dag_plan_and_no_pruned_plan(monkeypatch):
    """From first sight to a compiled program, a calibrated circuit
    builds one ``CircuitPlan`` (its own, for the key) and one
    ``DagPlan`` (the two-input DAG's, for the compiler)."""
    built = {"dag": 0, "circuit": 0}

    def counted(cls, name):
        init = cls.__init__

        def __init__(self, *args):
            built[name] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", __init__)

    counted(graph.DagPlan, "dag")
    counted(circuit_module.CircuitPlan, "circuit")
    circuit = random_circuit(8, depth=3, sum_children=3, seed=4)
    calibration = sample_dataset(circuit, 16, seed=5)
    artifact = ReasonSession().compile(circuit, calibration=calibration)
    assert built == {"dag": 1, "circuit": 1}
    assert artifact.model._plan is None
    assert artifact.dag.plan() is artifact.dag._plan
    result = optimize(circuit, calibration=calibration)
    assert result.pruned_model._plan is None
    assert result.dag._plan is None
    result = optimize(HMM.random(4, 3, seed=2), calibration=[[0, 1, 2, 1], [2, 2, 0]])
    assert result.dag._plan is None
    assert built == {"dag": 1, "circuit": 1}
