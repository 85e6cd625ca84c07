"""Pins of the unified DAG's cache key and sizes.

``DagAdapter.kernel_key`` keys a raw :class:`~repro.core.dag.graph.Dag`
request, and no corpus kernel reaches it (``build_trace`` has no raw
DAG), so its bytes are pinned here for four DAGs: a CNF's three-layer
DAG, the regularized DAGs two corpus programs compile, and a hand-built
DAG with every op a raw request can carry.  Their sizes are pinned
beside them, and so are ``optimize``'s footprints for the six
probabilistic corpus kernels.  Everything here was recorded at 5701673,
while a DAG was still a dict of node objects; a change to how a DAG is
stored must pass it unedited.
"""

import hashlib

import pytest

from repro import ReasonSession
from repro.api.adapters import DagAdapter
from repro.core.dag import Dag, OpType, cnf_to_dag, optimize
from tests.api.test_report_identity import build_trace

KERNELS = {
    name: (kernel, options)
    for tiny in (True, False)
    for name, kernel, options in build_trace(tiny)
}


def hand_dag() -> Dag:
    """An INPUT, a LITERAL, a NOT and a weighted SUM under an OR that
    shares the NOT with the SUM, plus an unreachable PRODUCT."""
    dag = Dag()
    x = dag.add_op(OpType.INPUT, payload="x")
    literal = dag.add_op(OpType.LITERAL, payload=-3)
    negated = dag.add_op(OpType.NOT, [x])
    mixed = dag.add_op(OpType.SUM, [negated, literal], weights=[0.25, 0.75])
    dag.add_op(OpType.PRODUCT, [literal, x])
    dag.set_root(dag.add_op(OpType.OR, [mixed, negated]))
    return dag


def pinned_dag(name: str) -> Dag:
    if name == "hand":
        return hand_dag()
    kernel, options = KERNELS[name]
    if name.startswith("cnf/"):
        return cnf_to_dag(kernel)[0]
    return ReasonSession().compile(kernel, **options).dag


#: name -> (sha256 of ``DagAdapter().kernel_key(dag)``, (num_nodes,
#: num_edges, memory_footprint(), max_fan_in(), depth())).
PINNED = {
    "cnf/ksat-40": (
        "b9e9ab95785776bd59a8e709e3ad9ac1b6b4fa15b8f2ce35de73d69d0a1e83df",
        (241, 640, 881, 160, 2),
    ),
    "circuit/rand-10": (
        "fee5e028f0dcc84e61bbf23585292793cc0a11d09336d06227cfdcc758d15a88",
        (403, 402, 933, 2, 14),
    ),
    "hmm/rand-12": (
        "7d252445758c6413cd047e2569c363031c13f9e135a1d1abdf5999b78b50ba62",
        (3335, 4786, 12643, 2, 71),
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


def sizes(dag: Dag) -> tuple:
    return (dag.num_nodes, dag.num_edges, dag.memory_footprint(), dag.max_fan_in(), dag.depth())


@pytest.mark.parametrize("name", PINNED)
def test_raw_dag_key_and_sizes_match_pins(name):
    dag = pinned_dag(name)
    digest = hashlib.sha256(DagAdapter().kernel_key(dag)).hexdigest()
    assert (digest, sizes(dag)) == PINNED[name]


@pytest.mark.parametrize("name", MEMORY)
def test_optimize_footprints_match_pins(name):
    kernel, options = KERNELS[name]
    calibration = options.get("calibration") or [options["hmm_observations"]]
    result = optimize(kernel, calibration=calibration)
    assert (result.memory_before, result.memory_after) == MEMORY[name]
