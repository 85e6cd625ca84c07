"""Exact inference on probabilistic circuits.

All queries are a single bottom-up pass in topological order — the
"bottom-up probability aggregation" REASON executes on its tree PEs
(paper Fig. 5).  Evidence maps variable → value; missing variables are
marginalized by letting their leaves sum out (indicator trick).
"""

from __future__ import annotations

import math
import random as _random
from typing import Dict, List, Optional

from repro.pc.circuit import Circuit, CircuitNode, LeafNode, ProductNode, SumNode

Evidence = Dict[int, Optional[int]]


def _evaluate_all(circuit: Circuit, evidence: Evidence) -> Dict[int, float]:
    """Bottom-up evaluation; returns node_id → value."""
    values: Dict[int, float] = {}
    for node in circuit.topological_order():
        if isinstance(node, LeafNode):
            values[node.node_id] = node.prob(evidence.get(node.variable))
        elif isinstance(node, ProductNode):
            out = 1.0
            for child in node.children:
                out *= values[child.node_id]
            values[node.node_id] = out
        elif isinstance(node, SumNode):
            out = 0.0
            for child, weight in zip(node.children, node.weights):
                out += weight * values[child.node_id]
            values[node.node_id] = out
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown node type: {node!r}")
    return values


def likelihood(circuit: Circuit, evidence: Evidence) -> float:
    """P(evidence): unnormalized circuit output for the evidence."""
    return _evaluate_all(circuit, evidence)[circuit.root.node_id]


def log_likelihood(circuit: Circuit, evidence: Evidence) -> float:
    """log P(evidence); -inf when the evidence has zero mass."""
    value = likelihood(circuit, evidence)
    return math.log(value) if value > 0 else float("-inf")


def partition_function(circuit: Circuit) -> float:
    """Total mass of the circuit (1.0 for a normalized circuit)."""
    return likelihood(circuit, {})


def marginal(circuit: Circuit, evidence: Evidence) -> float:
    """Normalized marginal probability of the evidence."""
    z = partition_function(circuit)
    if z == 0:
        raise ValueError("circuit has zero total mass")
    return likelihood(circuit, evidence) / z


def conditional(circuit: Circuit, query: Evidence, given: Evidence) -> float:
    """P(query | given) with consistency checks on overlapping variables."""
    overlap = set(query) & set(given)
    for variable in overlap:
        if query[variable] != given[variable]:
            return 0.0
    denominator = likelihood(circuit, given)
    if denominator == 0:
        raise ValueError("conditioning evidence has zero probability")
    joint = dict(given)
    joint.update(query)
    return likelihood(circuit, joint) / denominator


def sample(circuit: Circuit, rng: Optional[_random.Random] = None) -> Dict[int, int]:
    """Ancestral sampling: descend sums by weight, leaves by distribution."""
    rng = rng or _random.Random()
    assignment: Dict[int, int] = {}
    stack: List[CircuitNode] = [circuit.root]
    while stack:
        node = stack.pop()
        if isinstance(node, LeafNode):
            probs = node.probabilities / node.probabilities.sum()
            r = rng.random()
            cumulative = 0.0
            for value, p in enumerate(probs):
                cumulative += p
                if r <= cumulative:
                    assignment[node.variable] = value
                    break
            else:  # numerical tail
                assignment[node.variable] = len(probs) - 1
        elif isinstance(node, ProductNode):
            stack.extend(node.children)
        elif isinstance(node, SumNode):
            weights = node.weights / node.weights.sum()
            r = rng.random()
            cumulative = 0.0
            chosen = node.children[-1]
            for child, w in zip(node.children, weights):
                cumulative += w
                if r <= cumulative:
                    chosen = child
                    break
            stack.append(chosen)
    return assignment


def expected_flops(circuit: Circuit) -> int:
    """Arithmetic operations of one bottom-up pass (adds + multiplies).

    This is the per-query work REASON's tree PEs execute and the unit
    the performance model charges for probabilistic kernels.
    """
    flops = 0
    for node in circuit.topological_order():
        arity = len(node.children)
        if isinstance(node, ProductNode):
            flops += max(arity - 1, 0)
        elif isinstance(node, SumNode):
            flops += arity + max(arity - 1, 0)  # weight multiplies + adds
    return flops
