"""Fig. 8: interconnect scalability — tree vs mesh vs all-to-one.

(a) normalized latency breakdown as leaves grow N..8N; (b) normalized
broadcast-to-root cycle counts.  Paper shape: tree O(log N) stays flat,
mesh O(√N) grows moderately, the bus O(N) explodes.
"""

import pytest

from helpers import print_table

from repro.core.arch.interconnect import (
    Topology,
    broadcast_cycles,
    scalability_series,
    traversal_latency,
)

LEAF_COUNTS = [8 * i for i in range(1, 9)]  # N..8N with N = 8


def bench_fig08a_latency_breakdown(benchmark):
    rows = []
    for n in LEAF_COUNTS:
        for topology in Topology:
            breakdown = traversal_latency(topology, n)
            rows.append(
                [
                    str(n),
                    topology.value,
                    f"{breakdown.memory:.2f}",
                    f"{breakdown.pe:.2f}",
                    f"{breakdown.peripheries:.2f}",
                    f"{breakdown.inter_node:.2f}",
                    f"{breakdown.total:.2f}",
                ]
            )
    print_table(
        "Fig. 8(a) — normalized latency breakdown",
        ["Leaves", "Topology", "Memory", "PE", "Periph", "Inter-node", "Total"],
        rows,
    )
    benchmark(traversal_latency, Topology.TREE, 64)


def bench_fig08b_broadcast_cycles(benchmark):
    series = scalability_series(list(Topology), LEAF_COUNTS)
    rows = [
        [str(n)] + [f"{series[t.value][i]:.2f}" for t in Topology]
        for i, n in enumerate(LEAF_COUNTS)
    ]
    print_table(
        "Fig. 8(b) — normalized broadcast-to-root cycles",
        ["Leaves"] + [t.value for t in Topology],
        rows,
    )
    benchmark(scalability_series, list(Topology), LEAF_COUNTS)


def test_fig08_asymptotic_ordering():
    for n in LEAF_COUNTS[2:]:
        tree = broadcast_cycles(Topology.TREE, n)
        mesh = broadcast_cycles(Topology.MESH, n)
        bus = broadcast_cycles(Topology.ALL_TO_ONE, n)
        assert tree < mesh < bus


def test_fig08_tree_growth_is_logarithmic():
    small = broadcast_cycles(Topology.TREE, 8)
    large = broadcast_cycles(Topology.TREE, 64)
    assert large / small == pytest.approx(2.0)  # log2(64)/log2(8)


def test_fig08_bus_growth_is_linear():
    small = broadcast_cycles(Topology.ALL_TO_ONE, 8)
    large = broadcast_cycles(Topology.ALL_TO_ONE, 64)
    assert large / small == pytest.approx(8.0)


def test_fig08_inter_node_term_dominates_bus_at_scale():
    bus = traversal_latency(Topology.ALL_TO_ONE, 64)
    assert bus.inter_node > bus.memory + bus.pe
