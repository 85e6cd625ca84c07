"""Symbolic logic substrate: CNF/SAT solving and first-order logic.

This package implements the logical-reasoning kernels that REASON
accelerates: propositional CNF formulas, a DPLL reference solver,
a CDCL solver with two-watched-literals and 1-UIP clause learning,
hidden-literal pruning on the binary implication graph (the paper's
Stage-2 pruning for logic kernels, and the only preprocessing a CNF
gets), and a first-order-logic layer (unification, clausification,
resolution, forward chaining).
"""

from repro.logic.cnf import CNF, Clause, Literal
from repro.logic.dpll import DPLLSolver, DPLLStats
from repro.logic.cdcl import CDCLSolver, CDCLStats, SolveResult
from repro.logic.implication_graph import (
    BinaryImplicationGraph,
    prune_hidden_literals,
)
from repro.logic.generators import (
    random_ksat,
    pigeonhole,
    graph_coloring_cnf,
    planted_sat,
)

__all__ = [
    "CNF",
    "Clause",
    "Literal",
    "DPLLSolver",
    "DPLLStats",
    "CDCLSolver",
    "CDCLStats",
    "SolveResult",
    "BinaryImplicationGraph",
    "prune_hidden_literals",
    "random_ksat",
    "pigeonhole",
    "graph_coloring_cnf",
    "planted_sat",
]
