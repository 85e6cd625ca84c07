"""Top-down circuit flows (paper Sec. IV-B-b).

For input ``x`` the flow through sum-edge ``(n, c)`` is

    F_{n,c}(x) = (θ_{n,c} · p_c(x) / p_n(x)) · F_n(x)

with ``F_root(x) = 1``: the fraction of the root's probability mass that
passes through the edge.  Cumulative flows over a dataset rank edges for
REASON's adaptive pruning; the decrease in average log-likelihood caused
by deleting an edge is bounded by its mean flow.

Implementation: the circuit is flattened once into its dense plan
(:meth:`Circuit.plan`: node order, child index arrays, edge slots) and
every query evaluates the whole evidence batch as numpy rows — one
integer column per variable, one gather for every leaf row, one bottom-up
value pass and one top-down flow pass for an entire calibration
dataset; nothing is paid per input except reading its evidence dict.  All element-wise operations apply
the same IEEE-754 double operations in the same order as the scalar
recurrences (``inference._evaluate_all``), so flows are bit-identical
to per-input evaluation.

Evidence contract: a variable's value is an integer (anything
``operator.index`` accepts, within int64) or ``None``; ``None`` and an
absent variable marginalise the variable, a value outside a leaf's
table (negative or past its end) has probability 0.0, and a
non-integer such as ``1.5`` raises ``TypeError``.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.pc.circuit import _LEAF, _PRODUCT, Circuit, CircuitPlan, EdgeKey
from repro.pc.inference import Evidence

#: Per circuit variable, one entry per evidence: the value as an int64
#: code, and whether the variable is marginalised there.
Columns = Dict[int, Tuple[np.ndarray, np.ndarray]]


def _evidence_columns(plan: CircuitPlan, dataset: Sequence[Evidence]) -> Columns:
    """Two columns per circuit variable, one entry per evidence.

    Evidence values are integers or ``None``; an absent variable and
    ``None`` are marginalised, and that is what the boolean column
    says: no int64 value is set aside to mean it (a marginalised
    entry's code is -1, read by nothing).  Anything ``operator.index``
    rejects (a float such as ``1.5``) raises instead of being truncated.
    """
    m = len(dataset)
    as_index = operator.index
    columns: Columns = {}
    for variable in plan.variables:
        raw = [evidence.get(variable) for evidence in dataset]
        codes = np.fromiter(
            (-1 if value is None else as_index(value) for value in raw),
            dtype=np.int64,
            count=m,
        )
        marginal = np.fromiter((value is None for value in raw), dtype=bool, count=m)
        columns[variable] = codes, marginal
    return columns


def _evaluate_batch(plan: CircuitPlan, columns: Columns) -> np.ndarray:
    """Bottom-up values, one row per node and one column per evidence.

    Every leaf row comes from one gather.  The leaf tables, which are
    the leaf prefix of the plan's parameter buffer, are laid end to end,
    each followed by two slots — 0.0 for a value outside the table, the
    table's total mass for a marginalised variable — the three cases of
    ``LeafNode.prob``.  Each ``(variable, table size)``
    has one row of slots, one per evidence, and one fancy index reads
    every leaf's row of that extended table at once.  A mass is its
    table's ``sum()`` bit for bit: tables of one size are summed as the
    rows of one array, which numpy reduces row by row with the pairwise
    sum of a lone table (a sequential ``reduceat`` would round
    differently).  The internal rows are then walked bottom-up.  Tables
    and weights are read now, from the buffer and its views.
    Element-wise accumulation order matches the scalar evaluator, so
    each column is bit-identical to ``_evaluate_all`` on that evidence.
    """
    m = len(next(iter(columns.values()))[0])  # a circuit has a leaf, so a column
    values = np.empty((len(plan.order), m), dtype=float)
    leaves = plan.leaves
    _, lengths, buffer = plan.parameters()
    sizes = np.frombuffer(lengths, dtype=np.int64, count=len(leaves))
    flat = buffer[: sizes.sum()]
    starts = np.cumsum(sizes) - sizes
    masses = np.empty(len(leaves))
    for size in np.unique(sizes).tolist():
        group = np.flatnonzero(sizes == size)
        masses[group] = flat[starts[group, None] + np.arange(size)].sum(axis=1)
    # Table i starts at offsets[i] of the extended table: the two slots
    # of every table before it come first.
    offsets = starts + 2 * np.arange(len(leaves))
    extended = np.empty(len(flat) + 2 * len(leaves))
    extended[np.repeat(offsets - starts, sizes) + np.arange(len(flat))] = flat
    extended[offsets + sizes] = 0.0
    extended[offsets + sizes + 1] = masses
    slot_row_of: Dict[Tuple[int, int], int] = {}  # (variable, table size)
    slot_rows = []
    leaf_slot_rows = []
    for leaf, size in zip(leaves, sizes.tolist()):
        key = (leaf.variable, size)
        index = slot_row_of.get(key)
        if index is None:
            codes, marginal = columns[leaf.variable]
            slots = np.where((codes >= 0) & (codes < size), codes, size)
            slots[marginal] = size + 1
            index = slot_row_of[key] = len(slot_rows)
            slot_rows.append(slots)
        leaf_slot_rows.append(index)
    values[plan.leaf_rows] = extended[offsets[:, None] + np.stack(slot_rows)[leaf_slot_rows]]
    for kind, dense, node, children, _ in plan.entries:
        if kind == _LEAF:
            continue
        if kind == _PRODUCT:
            row = values[children[0]].copy()
            for child in children[1:]:
                row *= values[child]
            values[dense] = row
        else:  # _SUM
            row = np.zeros(m)
            for child, weight in zip(children, node.weights):
                row += weight * values[child]
            values[dense] = row
    return values


def _flow_batch(
    plan: CircuitPlan, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-down flows per node and per sum edge."""
    num_nodes, m = values.shape
    flows = np.zeros((num_nodes, m))
    flows[plan.root_index] = 1.0
    edge_values = np.zeros((len(plan.edge_keys), m))
    for kind, dense, node, children, slot in reversed(plan.entries):
        if kind == _LEAF:
            continue
        flow = flows[dense]
        if kind == _PRODUCT:
            # A product passes its full flow to every child.
            if flow.any():
                for child in children:
                    flows[child] += flow
            continue
        parent_value = values[dense]
        # Contribution ((θ·p_c)/p_n)·F_n masked where it is skipped by
        # the scalar recurrence; adding the masked zeros is exact
        # because every flow is non-negative.
        mask = (parent_value > 0) & (flow != 0.0)
        if not mask.any():
            continue  # every edge row stays zero
        for offset, (child, weight) in enumerate(zip(children, node.weights)):
            contribution = np.divide(
                weight * values[child],
                parent_value,
                out=np.zeros(m),
                where=mask,
            )
            contribution *= flow
            flows[child] += contribution
            edge_values[slot + offset] = contribution
    return flows, edge_values


def _totals_in_dataset_order(per_input: np.ndarray) -> np.ndarray:
    """Row totals of a (rows, inputs) array, one input added at a time:
    the same ordered float sum a per-input loop produces (``np.sum``
    pairs terms up and rounds differently)."""
    totals = np.zeros(per_input.shape[0])
    for column in per_input.T:
        totals += column
    return totals


def edge_flows(circuit: Circuit, evidence: Evidence) -> Dict[EdgeKey, float]:
    """Flow through every sum edge for one input."""
    plan = circuit.plan()
    values = _evaluate_batch(plan, _evidence_columns(plan, [evidence]))
    _, edge_values = _flow_batch(plan, values)
    return {
        key: float(edge_values[k, 0]) for k, key in enumerate(plan.edge_keys)
    }


def dataset_edge_flows(
    circuit: Circuit, dataset: Iterable[Evidence]
) -> Tuple[Dict[EdgeKey, float], int]:
    """Cumulative edge flows F_{n,c}(D) = Σ_x F_{n,c}(x) over a dataset.

    Returns the flow map and the number of inputs accumulated.
    """
    data = list(dataset)
    if not data:
        return {}, 0
    plan = circuit.plan()
    values = _evaluate_batch(plan, _evidence_columns(plan, data))
    _, edge_values = _flow_batch(plan, values)
    totals = _totals_in_dataset_order(edge_values)
    return (
        {key: float(totals[k]) for k, key in enumerate(plan.edge_keys)},
        len(data),
    )


def flow_pruning_bound(cumulative_flow: float, dataset_size: int) -> float:
    """Paper's bound: Δ log L ≤ F_{n,c}(D) / |D| for removing one edge."""
    if dataset_size <= 0:
        raise ValueError("dataset_size must be positive")
    return cumulative_flow / dataset_size
