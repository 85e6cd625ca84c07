"""Probabilistic circuits (PCs): tractable probabilistic models as DAGs.

Implements the paper's probabilistic-reasoning primitive (Sec. II-C,
Eq. 1): circuits of sum, product and leaf nodes supporting exact
marginal/conditional inference in time linear in circuit size,
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
)
from repro.pc.inference import (
    log_likelihood,
    likelihood,
    conditional,
    sample,
)
from repro.pc.flows import edge_flows, dataset_edge_flows
from repro.pc.learn import (
    fit_em,
    random_circuit,
)

__all__ = [
    "Circuit",
    "CircuitNode",
    "LeafNode",
    "ProductNode",
    "SumNode",
    "bernoulli_leaf",
    "log_likelihood",
    "likelihood",
    "conditional",
    "sample",
    "edge_flows",
    "dataset_edge_flows",
    "fit_em",
    "random_circuit",
]
