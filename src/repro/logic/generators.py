"""Structured and random CNF generators used by the benchmarks.

The paper evaluates logic kernels on closed research datasets; these
generators produce instances of the same structural classes (random
k-SAT near/below threshold, pigeonhole, graph coloring, planted
satisfiable instances) so every solver and hardware experiment runs on
reproducible inputs.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.logic.cnf import CNF, Clause


def random_ksat(
    num_vars: int,
    num_clauses: int,
    k: int = 3,
    seed: Optional[int] = None,
) -> CNF:
    """Sample a uniform random k-SAT formula.

    Each clause contains ``k`` distinct variables with random polarity.
    """
    if k > num_vars:
        raise ValueError("clause width k cannot exceed the variable count")
    rng = random.Random(seed)
    clauses: List[Clause] = []
    variables = list(range(1, num_vars + 1))
    for _ in range(num_clauses):
        chosen = rng.sample(variables, k)
        clauses.append(Clause(v if rng.random() < 0.5 else -v for v in chosen))
    return CNF(clauses, num_vars)


def planted_sat(
    num_vars: int,
    num_clauses: int,
    k: int = 3,
    seed: Optional[int] = None,
) -> Tuple[CNF, dict]:
    """Sample a satisfiable k-SAT formula with a planted model.

    Returns the formula and the planted assignment.  Every clause is
    guaranteed to contain at least one literal satisfied by the plant.
    """
    rng = random.Random(seed)
    plant = {v: rng.random() < 0.5 for v in range(1, num_vars + 1)}
    variables = list(range(1, num_vars + 1))
    clauses: List[Clause] = []
    for _ in range(num_clauses):
        chosen = rng.sample(variables, min(k, num_vars))
        lits = [v if rng.random() < 0.5 else -v for v in chosen]
        if not any(plant[abs(l)] == (l > 0) for l in lits):
            fix = rng.randrange(len(lits))
            v = abs(lits[fix])
            lits[fix] = v if plant[v] else -v
        clauses.append(Clause(lits))
    return CNF(clauses, num_vars), plant


def pigeonhole(holes: int) -> CNF:
    """PHP(holes+1, holes): provably unsatisfiable, hard for resolution.

    Variable p(i, j) means pigeon ``i`` sits in hole ``j``.  Raises
    ``ValueError`` for a negative number of holes.
    """
    if holes < 0:
        raise ValueError(f"pigeonhole needs holes >= 0, got {holes}")
    pigeons = holes + 1

    def var(i: int, j: int) -> int:
        return i * holes + j + 1

    formula = CNF(num_vars=pigeons * holes)
    for i in range(pigeons):
        formula.add_clause([var(i, j) for j in range(holes)])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                formula.add_clause([-var(i1, j), -var(i2, j)])
    return formula


def graph_coloring_cnf(
    edges: Sequence[Tuple[int, int]],
    num_nodes: int,
    colors: int,
) -> CNF:
    """Encode graph k-coloring: node ``n`` gets exactly one of ``colors``."""

    def var(node: int, color: int) -> int:
        return node * colors + color + 1

    formula = CNF(num_vars=num_nodes * colors)
    for node in range(num_nodes):
        formula.add_clause([var(node, c) for c in range(colors)])
        for c1 in range(colors):
            for c2 in range(c1 + 1, colors):
                formula.add_clause([-var(node, c1), -var(node, c2)])
    for a, b in edges:
        for c in range(colors):
            formula.add_clause([-var(a, c), -var(b, c)])
    return formula


def random_graph(num_nodes: int, num_edges: int, seed: Optional[int] = None) -> List[Tuple[int, int]]:
    """Sample a simple undirected random graph as an edge list."""
    rng = random.Random(seed)
    seen = set()
    edges: List[Tuple[int, int]] = []
    max_edges = num_nodes * (num_nodes - 1) // 2
    target = min(num_edges, max_edges)
    while len(edges) < target:
        a = rng.randrange(num_nodes)
        b = rng.randrange(num_nodes)
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        edges.append(key)
    return edges


def redundant_sat(
    num_vars: int,
    num_clauses: int,
    redundancy: float = 0.4,
    seed: Optional[int] = None,
) -> Tuple[CNF, dict]:
    """A planted-SAT instance carrying prunable redundancy.

    A fraction ``redundancy`` of the clause budget goes to (a) binary
    implication chains consistent with the planted model and (b) wide
    clauses containing literals those chains imply — exactly the
    "logically implied literals" and hidden tautologies the paper's
    Stage-2 pruning removes.  The rest is planted 3-SAT.  Returns the
    formula and the planted model.
    """
    rng = random.Random(seed)
    base_clauses = int(num_clauses * (1.0 - redundancy))
    formula, plant = planted_sat(num_vars, base_clauses, k=3, seed=seed)

    def planted_literal(v: int) -> int:
        return v if plant[v] else -v

    budget = num_clauses - base_clauses
    variables = list(range(1, num_vars + 1))
    chains: List[List[int]] = []
    while budget > 0:
        chain = [planted_literal(v) for v in rng.sample(variables, min(4, num_vars))]
        # Chain of implications l1 → l2 → l3 → l4 (all satisfied by plant).
        for a, b in zip(chain, chain[1:]):
            if budget <= 0:
                break
            formula.add_clause([-a, b])
            budget -= 1
        chains.append(chain)
        # A wide clause containing both an antecedent and its consequent:
        # the antecedent is hidden and prunable.
        if budget > 0 and len(chain) >= 3:
            extra = planted_literal(rng.choice(variables))
            formula.add_clause([chain[0], chain[-1], extra])
            budget -= 1
    return formula, plant
