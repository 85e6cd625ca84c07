"""Stage 2: adaptive DAG pruning (paper Sec. IV-B).

Logic DAGs are pruned through the binary implication graph (hidden
literal / hidden tautology elimination — exact, satisfiability
preserving).  Probabilistic DAGs are pruned by circuit flow: edges whose
cumulative flow over a calibration dataset is smallest are removed, with
the paper's Δ log-likelihood bound reported.  HMMs are pruned by
expected transition usage from forward-backward posteriors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.dag.builders import circuit_columns, cnf_to_dag
from repro.core.dag.graph import Dag, DagColumns
from repro.hmm.inference import transition_usage
from repro.hmm.model import HMM
from repro.logic.cnf import CNF
from repro.logic.implication_graph import PruneReport, prune_hidden_literals
from repro.pc.circuit import (
    _LEAF,
    _PRODUCT,
    _SUM,
    Circuit,
    CircuitNode,
    LeafNode,
    ProductNode,
    SumNode,
    copy_leaf_tables,
)
from repro.pc.flows import dataset_edge_flows, flow_pruning_bound
from repro.pc.inference import Evidence


@dataclass
class FlowPruneReport:
    """Outcome of flow-based pruning."""

    edges_before: int = 0
    edges_after: int = 0
    nodes_before: int = 0
    nodes_after: int = 0
    log_likelihood_bound: float = 0.0


def prune_logic_dag(formula: CNF) -> Tuple[Dag, CNF, PruneReport]:
    """Prune a CNF via its implication graph and rebuild the DAG.

    Returns (pruned DAG, pruned CNF, report).  Exactness comes from the
    underlying hidden-literal elimination: the pruned formula is
    equisatisfiable (indeed equivalent) to the original.
    """
    pruned_cnf, report = prune_hidden_literals(formula)
    dag, _ = cnf_to_dag(pruned_cnf)
    return dag, pruned_cnf, report


#: Children every sum node keeps however low their flow: pruning never
#: empties a mixture.
MIN_SUM_CHILDREN = 1


def prune_circuit_by_flow(
    circuit: Circuit,
    dataset: Sequence[Evidence],
    keep_fraction: float = 0.8,
) -> Tuple[Circuit, FlowPruneReport]:
    """Remove the lowest-flow sum edges of a probabilistic circuit.

    Sum edges — one per slot of the plan, so a child a sum lists twice
    is two edges — are ranked by cumulative flow F_{n,c}(D); the lowest
    ``1 - keep_fraction`` of them are deleted (each sum keeps at
    least :data:`MIN_SUM_CHILDREN` children; ``optimize`` checks that
    ``keep_fraction`` lies in (0, 1]).  Surviving weights are
    renormalized.  The report carries the paper's bound
    Δ log L ≤ Σ_pruned F_{n,c}(D)/|D|.
    """
    pruned, report, _ = prune_circuit_columns(circuit, dataset, keep_fraction)
    report.edges_after = pruned.num_edges
    report.nodes_after = pruned.num_nodes
    return pruned, report


def prune_circuit_columns(
    circuit: Circuit, dataset: Sequence[Evidence], keep_fraction: float
) -> Tuple[Circuit, FlowPruneReport, DagColumns]:
    """:func:`prune_circuit_by_flow`'s pruned circuit, and its unified
    DAG as columns over the parent's dense plan indices: the parent
    plan's children with the dropped edges filtered out.  Nodes no
    longer reachable stay in the columns, below no root.  The report's
    ``edges_after`` / ``nodes_after`` are the caller's to count (they
    are ``columns.reachable()``'s), so the pruned circuit is built
    without a plan walk: it inherits its parent's ``num_states``,
    completed for every variable of the parent."""
    flows, count = dataset_edge_flows(circuit, dataset)
    if count == 0:
        raise ValueError("flow pruning needs a non-empty calibration dataset")
    num_to_drop = int(len(flows) * (1.0 - keep_fraction))

    # Drop slots from the lowest flow up (ties in slot order), skipping
    # one whose sum is down to MIN_SUM_CHILDREN kept slots, until the
    # budget is spent.
    plan = circuit.plan()
    span_of = [  # each slot's sum's slot range
        (slot, slot + len(children))
        for kind, _, _, children, slot in plan.entries
        if kind == _SUM
        for _ in children
    ]
    kept = [True] * len(flows)
    dropped = 0
    bound_mass = 0.0
    flow_of = flows.tolist()
    for slot in np.argsort(flows, kind="stable").tolist():
        if dropped >= num_to_drop:
            break
        start, end = span_of[slot]
        if kept[start:end].count(True) > MIN_SUM_CHILDREN:
            kept[slot] = False
            dropped += 1
            bound_mass += flow_of[slot]

    report = FlowPruneReport(
        edges_before=plan.num_edges,
        nodes_before=len(plan.order),
        log_likelihood_bound=flow_pruning_bound(bound_mass, count) if dropped else 0.0,
    )

    # The rebuild by dense plan index: a node's children precede it.
    # Leaf tables are copied and checked in one pass; only when one
    # fails does each leaf go through ``LeafNode``'s own check, which
    # raises the error the first bad table in plan order raises.
    tables, valid = copy_leaf_tables(plan)
    new_leaf = LeafNode._over_checked if valid else LeafNode
    next_table = iter(tables).__next__
    rebuilt: List[CircuitNode] = []
    # The parent's columns, each sum's children and weights then
    # replaced by the kept ones.
    columns = circuit_columns(plan)
    for kind, dense, node, children, slot in plan.entries:
        if kind == _LEAF:
            rebuilt.append(new_leaf(node.variable, next_table()))
        elif kind == _PRODUCT:
            rebuilt.append(ProductNode([rebuilt[c] for c in children]))
        else:
            mask = kept[slot : slot + len(children)]
            kept_children = tuple(compress(children, mask))
            kept_weights = list(compress(columns.weights[dense], mask))
            total = sum(kept_weights)
            if total > 0:
                kept_weights = [w / total for w in kept_weights]
            rebuilt.append(SumNode([rebuilt[c] for c in kept_children], kept_weights))
            columns.children[dense] = kept_children
            columns.weights[dense] = tuple(kept_weights)
    num_states = dict(circuit.num_states)
    for variable in plan.variables:
        num_states.setdefault(variable, 2)
    pruned = Circuit.with_states(rebuilt[plan.root_index], num_states)
    return pruned, report, columns


def prune_hmm_by_posterior(
    hmm: HMM,
    calibration_sequences: Sequence[Sequence[int]],
    threshold_quantile: float = 0.2,
) -> Tuple[HMM, FlowPruneReport]:
    """Zero out transitions with consistently low posterior usage.

    Expected transition usage is accumulated with forward-backward over
    the calibration sequences; transitions below the
    ``threshold_quantile`` of the usage distribution are removed and
    rows renormalized.  Fidelity degrades gracefully because the removed
    mass bounds the joint-likelihood change (paper Sec. IV-B-b).
    """
    if not calibration_sequences:
        raise ValueError("posterior pruning needs calibration sequences")
    S = hmm.num_states
    usage = transition_usage(hmm, calibration_sequences)

    nonzero_before = int(np.count_nonzero(hmm.transition))
    positive = usage[hmm.transition > 0]
    if positive.size == 0:
        return hmm, FlowPruneReport(nonzero_before, nonzero_before, S, S)
    cutoff = float(np.quantile(positive, threshold_quantile))

    transition = hmm.transition.copy()
    pruned_mass = 0.0
    for i in range(S):
        for j in range(S):
            if transition[i, j] > 0 and usage[i, j] <= cutoff:
                # Keep at least one outgoing transition per state.
                row_nonzero = np.count_nonzero(transition[i])
                if row_nonzero > 1:
                    pruned_mass += usage[i, j]
                    transition[i, j] = 0.0
    sums = transition.sum(axis=1, keepdims=True)
    transition = np.where(sums > 0, transition / np.where(sums > 0, sums, 1.0), hmm.transition)

    pruned = HMM(hmm.initial.copy(), transition, hmm.emission.copy())
    total_steps = sum(max(len(s) - 1, 0) for s in calibration_sequences)
    report = FlowPruneReport(
        edges_before=nonzero_before,
        edges_after=int(np.count_nonzero(transition)),
        nodes_before=S,
        nodes_after=S,
        log_likelihood_bound=pruned_mass / max(total_steps, 1),
    )
    return pruned, report
