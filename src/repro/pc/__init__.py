"""Probabilistic circuits (PCs): tractable probabilistic models as DAGs.

Implements the paper's probabilistic-reasoning primitive (Sec. II-C,
Eq. 1): circuits of sum, product and leaf nodes supporting exact
marginal/conditional/MAP inference in time linear in circuit size,
top-down circuit flows (the quantity REASON's adaptive pruning ranks
edges by), EM parameter learning and random structure generation.
"""

from repro.pc.circuit import (
    Circuit,
    CircuitNode,
    LeafNode,
    ProductNode,
    SumNode,
    bernoulli_leaf,
    categorical_leaf,
    indicator_leaf,
)
from repro.pc.inference import (
    log_likelihood,
    likelihood,
    marginal,
    conditional,
    map_state,
    sample,
)
from repro.pc.flows import edge_flows, node_flows, dataset_edge_flows
from repro.pc.learn import (
    em_step,
    fit_em,
    random_circuit,
    random_binary_tree_circuit,
)

__all__ = [
    "Circuit",
    "CircuitNode",
    "LeafNode",
    "ProductNode",
    "SumNode",
    "bernoulli_leaf",
    "categorical_leaf",
    "indicator_leaf",
    "log_likelihood",
    "likelihood",
    "marginal",
    "conditional",
    "map_state",
    "sample",
    "edge_flows",
    "node_flows",
    "dataset_edge_flows",
    "em_step",
    "fit_em",
    "random_circuit",
    "random_binary_tree_circuit",
]
