"""Pins of the flow-pruning report.

``optimize`` counts a pruned circuit's ``nodes_after`` and
``edges_after`` on the columns it lowers from, not on the pruned
circuit's own plan, which ``prune_circuit_by_flow`` still walks.  Both
reports are pinned here for the six probabilistic corpus kernels of
``test_dag_pins.MEMORY`` (an HMM's report counts states and
transitions), with the bound as ``float.hex``: recorded at 855650c,
before the counting moved.
"""

import pytest

from repro.core.dag import optimize, prune_circuit_by_flow
from tests.core.test_dag_pins import KERNELS, MEMORY

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


def calibration_of(name: str) -> list:
    options = KERNELS[name][1]
    return options.get("calibration") or [options["hmm_observations"]]


def row(report) -> tuple:
    return (
        report.edges_before,
        report.edges_after,
        report.nodes_before,
        report.nodes_after,
        report.log_likelihood_bound.hex(),
    )


def test_the_pins_cover_the_footprint_pins():
    assert REPORTS.keys() == MEMORY.keys()


@pytest.mark.parametrize("name", REPORTS)
def test_optimize_reports_match_pins(name):
    report = optimize(KERNELS[name][0], calibration=calibration_of(name)).stage_report
    assert row(report) == REPORTS[name]


@pytest.mark.parametrize("name", [name for name in REPORTS if name.startswith("circuit/")])
def test_prune_circuit_by_flow_reports_match_pins(name):
    _, report = prune_circuit_by_flow(KERNELS[name][0], calibration_of(name))
    assert row(report) == REPORTS[name]
