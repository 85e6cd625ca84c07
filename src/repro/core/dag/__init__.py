"""Unified DAG representation and the three-stage algorithm pipeline.

Stage 1 (:mod:`builders`) converts SAT/FOL, PC and HMM kernels into one
typed DAG IR; Stage 2 (:mod:`pruning`) removes redundant structure
(hidden literals for logic, low-flow edges for probabilistic models);
Stage 3 (:mod:`regularize`) rewrites every node to fan-in ≤ 2 so the
result maps onto REASON's binary tree PEs.  :func:`optimize` runs all
three stages.
"""

from repro.core.dag.graph import (
    Dag,
    OpType,
    evaluate_dag,
    default_leaf_inputs,
)
from repro.core.dag.builders import (
    cnf_to_dag,
    circuit_to_dag,
    hmm_to_dag,
)
from repro.core.dag.pruning import (
    prune_logic_dag,
    prune_circuit_by_flow,
    prune_hmm_by_posterior,
    FlowPruneReport,
)
from repro.core.dag.regularize import regularize_two_input, is_two_input
from repro.core.dag.pipeline import optimize, OptimizationResult

__all__ = [
    "Dag",
    "OpType",
    "evaluate_dag",
    "default_leaf_inputs",
    "cnf_to_dag",
    "circuit_to_dag",
    "hmm_to_dag",
    "prune_logic_dag",
    "prune_circuit_by_flow",
    "prune_hmm_by_posterior",
    "FlowPruneReport",
    "regularize_two_input",
    "is_two_input",
    "optimize",
    "OptimizationResult",
]
