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
integer column per variable, one gather for every leaf row, then the
internal rows bottom-up and the flows top-down one level group at a
time (every node of one height, kind and fan-in as one block of rows,
see :class:`_LevelGroups`) for an entire calibration dataset; nothing
is paid per input except reading its evidence dict.  All element-wise
operations apply the same IEEE-754 double operations in the same order
as the scalar recurrences (``inference._evaluate_all``), so flows are
bit-identical to per-input evaluation.

Evidence contract: a variable's value is an integer (anything
``operator.index`` accepts, within int64) or ``None``; ``None`` and an
absent variable marginalise the variable, a value outside a leaf's
table (negative or past its end) has probability 0.0, and a
non-integer such as ``1.5`` raises ``TypeError``.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.pc.circuit import _LEAF, _PRODUCT, _SUM, Circuit, CircuitPlan
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
    differently).  The internal rows then follow level group by level
    group, from the lowest up.  Tables and weights are read now, from
    the buffer.
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
    # Every sum's weights by edge slot: they follow the tables.  A term
    # is computed as ``p_c · θ``, the same IEEE product as ``θ · p_c``.
    weights = buffer[len(flat) :]
    levels = _level_groups(plan)
    rows_out, terms = np.empty((2, levels.widest, m))
    for kind, rows, kids, slots in levels.up:
        row, term = rows_out[: len(rows)], terms[: len(rows)]
        if kind == _PRODUCT:
            _gather(values, kids[0], row)
            for column in kids[1:]:
                row *= _gather(values, column, term)
        else:  # _SUM
            row.fill(0.0)
            for column, slot in zip(kids, slots):
                _gather(values, column, term)
                term *= weights[slot][:, None]
                row += term
        values[rows] = row
    return values


def _flow_batch(
    plan: CircuitPlan, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-down flows per node and per sum edge, as two views of one
    array: node rows first, then one row per edge slot.

    A node's flow is the ordered sum of what reaches it, in the order
    the scalar recurrence adds it: parent by parent in reverse plan
    order, a parent's edges in child order.  A product passes on its
    own row, a sum edge ``((θ·p_c)/p_n)·F_n``, zero where the scalar
    recurrence skips it (``p_n`` not positive or ``F_n`` zero); adding
    a zero is exact, since no flow is negative or ``-0.0``.  The levels
    run from the root down, so every parent's row is final before a
    child sums it.
    """
    num_nodes, m = values.shape
    _, lengths, buffer = plan.parameters()
    weights = buffer[np.frombuffer(lengths, np.int64, len(plan.leaves)).sum() :]
    pool = np.zeros((num_nodes + plan.num_sum_edges, m))
    pool[plan.root_index] = 1.0
    levels = _level_groups(plan)
    first, second, terms, shares = np.empty((4, levels.widest, m))
    for inflows, sums in levels.down:
        for rows, sources in inflows:
            # ``0.0 + F`` of the recurrence, as ``F + 0.0``: the same sum.
            flow = _gather(pool, sources[0], first[: len(rows)])
            flow += 0.0
            for column in sources[1:]:
                flow += _gather(pool, column, terms[: len(rows)])
            pool[rows] = flow
        for rows, kids, slots in sums:
            count = len(rows)
            parent_value = _gather(values, rows, first[:count])
            flow = _gather(pool, rows, second[:count])
            mask = (parent_value > 0) & (flow != 0.0)
            term, contribution = terms[:count], shares[:count]
            for column, slot in zip(kids, slots):
                _gather(values, column, term)
                term *= weights[slot][:, None]
                contribution.fill(0.0)
                np.divide(term, parent_value, out=contribution, where=mask)
                contribution *= flow
                pool[num_nodes + slot] = contribution
    return pool[:num_nodes], pool[num_nodes:]


class _LevelGroups:
    """A plan's internal nodes and its flows in level groups, built once
    per plan (:func:`_level_groups`).

    A node's height is 0 for a leaf and one more than its highest child
    otherwise; a level group is every node of one height, kind and
    fan-in, as index arrays, so a pass handles the group with one fancy
    index per child position.  ``up`` holds ``(kind, rows, kids,
    slots)`` by rising height: ``kids[j]`` / ``slots[j]`` are the
    group's ``j``-th children and edge slots.  ``down`` holds one
    ``(inflows, sums)`` pair per height, from the top: ``inflows`` are
    ``(rows, sources)`` per in-degree, where ``sources[j]`` is the
    ``j``-th row each node's flow adds (a product's node row, a sum
    edge's row past the node rows) in the scalar recurrence's order,
    and ``sums`` are the height's sum groups as ``(rows, kids, slots)``.
    ``widest`` is the most rows one group holds: the passes gather into
    scratch that wide, allocated once a pass rather than once a group.
    """

    __slots__ = ("up", "down", "widest")

    def __init__(self, plan: CircuitPlan):
        num_nodes = len(plan.entries)
        height = [0] * num_nodes
        internal = [entry for entry in plan.entries if entry[0] != _LEAF]
        for _, dense, _, children, _ in internal:
            height[dense] = 1 + max(map(height.__getitem__, children))
        heights = np.array(height)
        count = len(internal)
        kinds, nodes, slots = (
            np.fromiter(map(operator.itemgetter(field), internal), np.intp, count)
            for field in (0, 1, 4)
        )
        kids = list(map(operator.itemgetter(3), internal))
        fan_in = np.fromiter(map(len, kids), np.intp, count)
        # Every edge, parent by parent in plan order: its child, and its
        # node's first edge.
        children = np.fromiter(chain.from_iterable(kids), np.intp, fan_in.sum())
        first = np.cumsum(fan_in) - fan_in
        top = height[plan.root_index]
        self.up: List[tuple] = []
        sums: List[list] = [[] for _ in range(top + 1)]
        for group in _groups(heights[nodes], kinds, fan_in):
            kind, level = int(kinds[group[0]]), heights[nodes[group[0]]]
            positions = np.arange(fan_in[group[0]])[:, None]
            rows, slot_rows = nodes[group], slots[group] + positions
            self.up.append((kind, rows, children[first[group] + positions], slot_rows))
            if kind == _SUM:
                sums[level].append(self.up[-1][1:])
        # An edge's source row: the parent's own row for a product, its
        # slot's row past the node rows for a sum edge.  A child's
        # sources run parent by parent in reverse plan order (a stable
        # sort keeps a parent's edges in child order).
        parents = np.repeat(nodes, fan_in)
        sources = parents.copy()
        sum_edges = np.repeat(kinds == _SUM, fan_in)
        sources[sum_edges] = num_nodes + np.arange(plan.num_sum_edges)
        sources = sources[np.lexsort((-parents, children))]
        in_degree = np.bincount(children, minlength=num_nodes)
        in_first = np.cumsum(in_degree) - in_degree
        targets = np.flatnonzero(in_degree)
        down: List[list] = [[] for _ in range(top + 1)]
        for group in _groups(heights[targets], in_degree[targets]):
            rows = targets[group]
            columns = sources[in_first[rows] + np.arange(in_degree[rows[0]])[:, None]]
            down[heights[rows[0]]].append((rows, columns))
        self.down = [(down[level], sums[level]) for level in range(top, -1, -1)]
        # The most rows one group reads or writes: the passes' scratch.
        widths = chain(
            (group[1] for group in self.up), (group[0] for level in down for group in level)
        )
        self.widest = max(map(len, widths), default=0)


def _gather(rows: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``rows[index]`` written into ``out``: scratch the passes reuse, so
    no group allocates its own block (``mode="clip"`` is numpy's
    unbuffered ``take``; every index is in range)."""
    return np.take(rows, index, axis=0, out=out, mode="clip")


def _groups(*keys: np.ndarray) -> List[np.ndarray]:
    """Indices of equal key tuples, one array per distinct tuple (first
    key most significant)."""
    order = np.lexsort(keys[::-1])
    sorted_keys = np.stack(keys)[:, order]
    cuts = np.flatnonzero((sorted_keys[:, 1:] != sorted_keys[:, :-1]).any(axis=0)) + 1
    return np.split(order, cuts) if len(order) else []


def _level_groups(plan: CircuitPlan) -> _LevelGroups:
    """The plan's level groups, built on first use and kept on the plan
    (its structure never changes).  Two threads racing the first build
    each store equal groups; either is served."""
    levels = plan.levels
    if levels is None:
        levels = plan.levels = _LevelGroups(plan)
    return levels


def _totals_in_dataset_order(per_input: np.ndarray) -> np.ndarray:
    """Row totals of a (rows, inputs) array, one input added at a time:
    the same ordered float sum a per-input loop from 0.0 produces
    (``np.sum`` pairs terms up and rounds differently).  ``cumsum``
    adds left to right; adding its last column to 0.0 gives a total of
    zeros the loop's ``+0.0``."""
    totals = np.zeros(per_input.shape[0])
    if per_input.shape[1]:
        totals += np.cumsum(per_input, axis=1)[:, -1]
    return totals


def dataset_edge_flows(
    circuit: Circuit, dataset: Iterable[Evidence]
) -> Tuple[np.ndarray, int]:
    """Cumulative edge flows F_{n,c}(D) = Σ_x F_{n,c}(x) over a dataset.

    Returns one total per sum-edge slot and the number of inputs
    accumulated.  Slots run in plan order: each sum of
    :meth:`Circuit.plan` in turn, its edges in child order, so a child
    a sum lists twice has two slots and two totals.
    """
    data = list(dataset)
    plan = circuit.plan()
    values = _evaluate_batch(plan, _evidence_columns(plan, data))
    _, edge_values = _flow_batch(plan, values)
    return _totals_in_dataset_order(edge_values), len(data)


def flow_pruning_bound(cumulative_flow: float, dataset_size: int) -> float:
    """Paper's bound: Δ log L ≤ F_{n,c}(D) / |D| for removing one edge."""
    if dataset_size <= 0:
        raise ValueError("dataset_size must be positive")
    return cumulative_flow / dataset_size
