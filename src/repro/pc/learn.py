"""Parameter learning and structure generation for probabilistic circuits.

EM via circuit flows: expected edge usage over the data gives the
sufficient statistics for sum weights and leaf distributions in closed
form — the same flow quantity REASON's pruning stage ranks edges by, so
learning and pruning share one machinery.
"""

from __future__ import annotations

import math
import random as _random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.pc.circuit import (
    _LEAF,
    _SUM,
    Circuit,
    CircuitNode,
    CircuitPlan,
    ProductNode,
    SumNode,
    bernoulli_leaf,
)
from repro.pc.flows import (
    Columns,
    _evaluate_batch,
    _evidence_columns,
    _flow_batch,
    _totals_in_dataset_order,
)
from repro.pc.inference import Evidence


def _em_update(plan: CircuitPlan, columns: Columns, values: np.ndarray) -> None:
    """The M-step from ``values``, the bottom-up pass over the dataset
    under the current parameters; writes new weights and leaf tables,
    every count starting from a 0.1 pseudo-count.

    Expected counts add up one input at a time in dataset order, so the
    parameters are the ones a per-input loop learns, bit for bit.
    """
    flows, edge_rows = _flow_batch(plan, values)
    edge_counts = _totals_in_dataset_order(edge_rows)
    for kind, dense, node, children, slot in plan.entries:
        if kind == _SUM:
            counts = edge_counts[slot : slot + len(children)] + 0.1
            node.weights = counts / counts.sum()
        elif kind == _LEAF:
            counts = np.zeros(len(node.probabilities))
            codes, marginal = columns[node.variable]
            # A marginalised variable counts nowhere, and neither does a
            # value outside the table (mass 0 in every evaluator).
            observed = ~marginal & (codes >= 0) & (codes < len(counts))
            # Unbuffered: repeated values add in dataset order.
            np.add.at(counts, codes[observed], flows[dense][observed])
            counts += 0.1
            node.probabilities = counts / counts.sum()


def fit_em(
    circuit: Circuit,
    dataset: Sequence[Evidence],
    iterations: int = 10,
) -> Tuple[Circuit, List[float]]:
    """Run EM to convergence; returns the circuit and the LL trajectory.

    Every count starts from a 0.1 pseudo-count; EM stops early once an
    iteration gains less than 1e-6 in mean log-likelihood.  One
    bottom-up pass per iteration: the pass that scores an update's
    log-likelihood is the E-step input of the next update.
    """
    history: List[float] = []
    plan = circuit.plan()
    columns = _evidence_columns(plan, dataset)
    values = _evaluate_batch(plan, columns)
    for _ in range(iterations):
        _em_update(plan, columns, values)
        values = _evaluate_batch(plan, columns)
        total = sum(
            math.log(value) if value > 0 else float("-inf")
            for value in values[plan.root_index].tolist()
        )
        history.append(total / max(len(dataset), 1))
        if len(history) >= 2 and abs(history[-1] - history[-2]) < 1e-6:
            break
    return circuit, history


def random_circuit(
    num_vars: int,
    depth: int = 3,
    sum_children: int = 3,
    seed: Optional[int] = None,
) -> Circuit:
    """Random smooth & decomposable circuit over binary variables.

    Recursively splits the variable scope at product nodes and mixes
    ``sum_children`` alternative decompositions at sum nodes — the
    region-graph style structure used by learned PCs.
    """
    rng = _random.Random(seed)

    def build(scope: List[int], level: int) -> CircuitNode:
        if len(scope) == 1:
            return bernoulli_leaf(scope[0], rng.uniform(0.1, 0.9))
        if level <= 0:
            # Fully factorize the remaining scope.
            return ProductNode([build([v], 0) for v in scope])
        mixtures: List[CircuitNode] = []
        for _ in range(sum_children):
            shuffled = scope[:]
            rng.shuffle(shuffled)
            cut = rng.randint(1, len(shuffled) - 1)
            left = sorted(shuffled[:cut])
            right = sorted(shuffled[cut:])
            mixtures.append(
                ProductNode([build(left, level - 1), build(right, level - 1)])
            )
        weights = [rng.uniform(0.2, 1.0) for _ in mixtures]
        node = SumNode(mixtures, weights)
        node.normalize()
        return node

    circuit = Circuit(build(list(range(num_vars)), depth))
    circuit.validate()
    return circuit


def sample_dataset(
    circuit: Circuit, size: int, seed: Optional[int] = None
) -> List[Evidence]:
    """Draw a dataset of full assignments from the circuit."""
    from repro.pc.inference import sample

    rng = _random.Random(seed)
    return [sample(circuit, rng) for _ in range(size)]
