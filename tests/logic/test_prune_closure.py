"""The pruner's closure may only ever skip work.

``prune_hidden_literals`` consults a transitive closure of the binary
implication graph before it searches: a clause whose literals cannot
reach a sibling even in that superset is kept without one
``reaches_any`` call.  The oracle here is the same sweep with the
filter switched off (every clause answered "maybe", so every clause
is searched by ``reaches_any`` exactly as before the closure existed):
the pruned formula and the report must match it clause for clause — on
graphs where reference counts exceed 1 (duplicate binary clauses),
where edges disappear (binary clauses removed or narrowed to units)
and where edges are *added* mid-sweep (ternary clauses narrowed to
binary), which is when the closure has to be widened.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.cnf import CNF, Clause
from repro.logic.generators import pigeonhole, random_ksat, redundant_sat
from repro.logic.implication_graph import BinaryImplicationGraph, _bit, prune_hidden_literals

from tests.corpus import brute_force_sat, chain_implications, graph_pigeonhole


def reachable(graph, lit):
    """Every literal ``lit`` implies, ``lit`` excluded: the exact closure,
    by depth-first search over the graph's edges."""
    seen, stack = set(), [lit]
    while stack:
        for nxt in graph._succ.get(stack.pop(), ()):
            if nxt not in seen and nxt != lit:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def sweep(formula):
    pruned, report = prune_hidden_literals(formula)
    return (
        [clause.literals for clause in pruned.clauses],
        (report.literals_removed, report.clauses_removed),
    )


def unfiltered_sweep(formula):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BinaryImplicationGraph, "may_reach_sibling", lambda self, clause: True)
        return sweep(formula)


@st.composite
def binary_heavy_cnf(draw):
    """Mostly binary clauses over few variables (long chains, cycles and
    duplicates), then wider ones for the chains to narrow."""
    num_vars = draw(st.integers(min_value=2, max_value=7))
    literal = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    binary = draw(st.lists(st.tuples(literal, literal), min_size=1, max_size=14))
    repeats = draw(st.lists(st.sampled_from(binary), max_size=3))
    wide = draw(st.lists(st.lists(literal, min_size=3, max_size=4), max_size=6))
    clauses = [Clause(literals) for literals in binary + repeats + wide]
    draw(st.randoms(use_true_random=False)).shuffle(clauses)
    return CNF(clauses, num_vars)


@settings(max_examples=300, deadline=None)
@given(binary_heavy_cnf())
def test_filtered_sweep_equals_the_unfiltered_one(formula):
    assert sweep(formula) == unfiltered_sweep(formula)
    pruned, _ = prune_hidden_literals(formula)
    assert brute_force_sat(pruned) == brute_force_sat(formula)


def structured_formulas():
    rng = random.Random("prune-closure")
    yield "redundant-100", redundant_sat(100, 420, seed=3)[0]
    yield "redundant-40", redundant_sat(40, 160, redundancy=0.3, seed=0)[0]
    yield "graph-php-7x5", graph_pigeonhole(7, 5, rng)
    yield "graph-php-4x3", graph_pigeonhole(4, 3, rng)
    yield "php-5", pigeonhole(5)
    yield "2sat-12", random_ksat(12, 45, k=2, seed=4)
    wide = chain_implications(6)
    wide.add_clause([1, 3, 6])
    yield "chain+wide", wide
    # (1 2 3) narrows to (2 3): an edge added mid-sweep lets the next
    # clause drop -2 (-2 -> 3 -> 4), then a duplicate is an HTE.
    yield "narrow-then-use", CNF(
        [Clause([-1, 2]), Clause([1, 2, 3]), Clause([-3, 4]), Clause([-2, 4, 5]), Clause([-3, 4])]
    )


@pytest.mark.parametrize(
    "name,formula", list(structured_formulas()), ids=[name for name, _ in structured_formulas()]
)
def test_structured_families_prune_as_without_the_closure(name, formula):
    assert sweep(formula) == unfiltered_sweep(formula)


def test_the_corpus_exercises_what_it_claims(monkeypatch):
    """Counts above 1, an edge added mid-sweep, and clauses the filter
    really skips."""
    searched = []
    real = BinaryImplicationGraph.may_reach_sibling

    def spy(self, clause):
        answer = real(self, clause)
        searched.append(answer)
        return answer

    monkeypatch.setattr(BinaryImplicationGraph, "may_reach_sibling", spy)
    formula = dict(structured_formulas())["narrow-then-use"]
    pruned, report = prune_hidden_literals(formula)
    assert [clause.literals for clause in pruned.clauses] == [(-1, 2), (2, 3), (4, 5), (-3, 4)]
    assert (report.literals_removed, report.clauses_removed) == (2, 1)
    del searched[:]
    prune_hidden_literals(dict(structured_formulas())["graph-php-7x5"])
    assert searched and not any(searched)  # no clause of a pigeonhole needs a search


@settings(max_examples=100, deadline=None)
@given(binary_heavy_cnf())
def test_closure_is_a_superset_of_reachability_under_edits(formula):
    """Close the empty graph, add every binary clause's edges one by one
    (each widens the closure), then remove them again: after each edit
    every literal's mask still covers ``reachable``."""
    graph = BinaryImplicationGraph()
    graph.close()
    binary = [clause for clause in formula.clauses if len(clause) == 2 and not clause.is_tautology]
    edits = [(graph.add_clause_edges, clause) for clause in binary]
    edits += [(graph.remove_clause_edges, clause) for clause in binary]
    for edit, clause in edits:
        edit(clause)
        for variable in range(1, formula.num_vars + 1):
            for lit in (variable, -variable):
                mask = graph._reach.get(lit, 0)
                assert all(mask & _bit(other) for other in reachable(graph, lit))
