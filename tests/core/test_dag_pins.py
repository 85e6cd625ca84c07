"""Pins of the unified DAG's cache key and sizes.

``DagAdapter.kernel_key`` keys a raw :class:`~repro.core.dag.graph.Dag`
request, and no kernel of the corpus's trace reaches it (it has no
raw DAG), so its bytes are pinned here for four DAGs: a CNF's
three-layer DAG, the regularized DAGs two trace programs compile, and
the corpus's hand-built DAG with every op a raw request can carry.
Their sizes are pinned beside them, and so are ``optimize``'s
footprints and flow-pruning reports for the six probabilistic trace
kernels.  The keys, sizes and footprints were recorded at 5701673,
while a DAG was still a dict of node objects; a change to how a DAG is
stored must pass them unedited.  The two regularized DAGs' keys and
sizes were re-recorded when a SUM's balanced reduction began carrying
its children's weights, so that regularization no longer adds a
one-child SUM per weighted child; the footprints and reports did not
move.

``optimize`` counts a pruned circuit's ``nodes_after`` and
``edges_after`` on the columns it lowers from, not on the pruned
circuit's own plan, which ``prune_circuit_by_flow`` still walks.  Both
reports are pinned in ``REPORTS`` (an HMM's report counts states and
transitions), with the bound as ``float.hex``: recorded at 855650c,
before the counting moved.
"""

import hashlib

import pytest

from repro import ReasonSession
from repro.api.adapters import DagAdapter
from repro.core.dag import Dag, cnf_to_dag, optimize, prune_circuit_by_flow

from tests import corpus


def pinned_dag(name: str) -> Dag:
    kernel, options = corpus.build(name)
    if name.startswith("cnf/"):
        return cnf_to_dag(kernel)[0]
    if name.startswith(("circuit/", "hmm/")):
        return ReasonSession().compile(kernel, **options).dag
    return kernel


#: name -> (sha256 of ``DagAdapter().kernel_key(dag)``, (num_nodes,
#: num_edges, memory_footprint(), plan().max_fan_in, depth())).
PINNED = {
    "cnf/ksat-40": (
        "b9e9ab95785776bd59a8e709e3ad9ac1b6b4fa15b8f2ce35de73d69d0a1e83df",
        (241, 640, 881, 160, 2),
    ),
    "circuit/rand-10": (
        "b58a4027f54fce4fc311970510e2686e7b5e4e5b1b061e5da1b01ff7db13dd67",
        (358, 357, 798, 2, 11),
    ),
    "hmm/rand-12": (
        "34819e1779df242562b4d3a4890690c227ed710bfe1af2adc61ffc9deaf3b95f",
        (1751, 3202, 7891, 2, 60),
    ),
    "hand": (
        "c3dea371bf6bd89cd3c713e2bf2192d1640106fae2a22be80969c936df11671a",
        (6, 7, 12, 2, 3),
    ),
}

#: probabilistic corpus kernel -> ``optimize(...)``'s (memory_before,
#: memory_after); a kernel run without calibration is optimized over
#: its observation sequence.
MEMORY = {
    "circuit/rand-10": (907, 685),
    "circuit/rand-12": (925, 724),
    "hmm/rand-10": (4811, 4051),
    "hmm/rand-12": (3901, 3263),
    "circuit/rand-6": (87, 72),
    "hmm/rand-6": (751, 653),
}

#: kernel -> (edges_before, edges_after, nodes_before, nodes_after,
#: log_likelihood_bound.hex()) of ``optimize(...).stage_report``.
REPORTS = {
    "circuit/rand-10": (411, 308, 412, 309, "0x1.0ed5681c29533p-2"),
    "circuit/rand-12": (432, 337, 433, 338, "0x1.0f1df50d4cca7p-3"),
    "hmm/rand-10": (100, 80, 10, 10, "0x1.7457f4be05ccdp-6"),
    "hmm/rand-12": (144, 115, 12, 12, "0x1.0fe8f42d18e9fp-6"),
    "circuit/rand-6": (39, 32, 40, 33, "0x1.74b8adee505e4p-3"),
    "hmm/rand-6": (36, 29, 6, 6, "0x1.e23c8c6673c37p-7"),
}


def sizes(dag: Dag) -> tuple:
    return (dag.num_nodes, dag.num_edges, dag.memory_footprint(), dag.plan().max_fan_in, dag.depth())


@pytest.mark.parametrize("name", PINNED)
def test_raw_dag_key_and_sizes_match_pins(name):
    dag = pinned_dag(name)
    digest = hashlib.sha256(DagAdapter().kernel_key(dag)).hexdigest()
    assert (digest, sizes(dag)) == PINNED[name]


def calibrated(name: str):
    """The kernel and what ``optimize`` calibrates it on: a kernel run
    without calibration is optimized over its observation sequence."""
    kernel, options = corpus.build(name)
    return kernel, options.get("calibration") or [options["hmm_observations"]]


@pytest.mark.parametrize("name", MEMORY)
def test_optimize_footprints_match_pins(name):
    kernel, calibration = calibrated(name)
    result = optimize(kernel, calibration=calibration)
    assert (result.memory_before, result.memory_after) == MEMORY[name]


def row(report) -> tuple:
    return (
        report.edges_before,
        report.edges_after,
        report.nodes_before,
        report.nodes_after,
        report.log_likelihood_bound.hex(),
    )


def test_the_pins_cover_the_footprint_pins():
    assert REPORTS.keys() == MEMORY.keys() == set(corpus.probabilistic())


@pytest.mark.parametrize("name", REPORTS)
def test_optimize_reports_match_pins(name):
    kernel, calibration = calibrated(name)
    assert row(optimize(kernel, calibration=calibration).stage_report) == REPORTS[name]


@pytest.mark.parametrize("name", [name for name in REPORTS if name.startswith("circuit/")])
def test_prune_circuit_by_flow_reports_match_pins(name):
    _, report = prune_circuit_by_flow(*calibrated(name))
    assert row(report) == REPORTS[name]
