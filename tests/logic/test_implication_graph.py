"""Tests for implication-graph construction and hidden-literal pruning."""

from hypothesis import given, settings, strategies as st

from repro.logic.cdcl import solve_cnf
from repro.logic.cnf import CNF, Clause
from repro.logic.generators import random_ksat
from repro.logic.implication_graph import BinaryImplicationGraph, prune_hidden_literals

from tests.corpus import chain_implications


class TestBinaryImplicationGraph:
    def test_binary_clause_induces_two_edges(self):
        graph = BinaryImplicationGraph(CNF([Clause([1, 2])]))
        assert graph.reaches_any(-1, {2})
        assert graph.reaches_any(-2, {1})
        assert graph.num_edges == 2

    def test_non_binary_clauses_ignored(self):
        graph = BinaryImplicationGraph(CNF([Clause([1, 2, 3])]))
        assert graph.num_edges == 0

    def test_reachability_is_transitive(self):
        formula = chain_implications(5)  # x1→x2→x3→x4→x5
        graph = BinaryImplicationGraph(formula)
        assert graph.reaches_any(1, {5})
        assert not graph.reaches_any(5, {1})

    def test_closure_excludes_self(self):
        graph = BinaryImplicationGraph(CNF([Clause([-1, 2]), Clause([-2, 1])]))
        assert graph.reaches_any(1, {2})
        assert not graph.reaches_any(1, {1})  # 1 → 2 → 1 returns to the start


class TestHiddenLiteralPruning:
    def test_drops_hidden_literal(self):
        # x1 → x2, so clause (x1 ∨ x2 ∨ x3) can drop x1.
        formula = CNF([Clause([-1, 2]), Clause([1, 2, 3])])
        pruned, report = prune_hidden_literals(formula)
        assert report.literals_removed >= 1
        widths = sorted(len(c) for c in pruned.clauses)
        assert widths[0] == 2

    def test_removes_hidden_tautology(self):
        # ¬x1 → x2 means (x1 ∨ x2) is implied; clause (x1 ∨ x2) itself
        # is a hidden tautology w.r.t. the implication x̄1→x2 edge from
        # itself — it must NOT be dropped when it is the only source.
        # Use a separate implication source instead.
        formula = CNF([Clause([-3, 2]), Clause([1, -3]), Clause([1, 2, 4])])
        pruned, report = prune_hidden_literals(formula)
        result_before, _ = solve_cnf(formula)
        result_after, _ = solve_cnf(pruned)
        assert result_before is result_after

    def test_preserves_satisfiability_on_random_formulas(self):
        for seed in range(8):
            formula = random_ksat(12, 45, k=2, seed=seed)
            pruned, _ = prune_hidden_literals(formula)
            before, _ = solve_cnf(formula)
            after, _ = solve_cnf(pruned)
            assert before is after, f"seed {seed} changed satisfiability"

    def test_reduces_literal_count_on_chains(self):
        base = chain_implications(6)
        wide = CNF(list(base.clauses), base.num_vars)
        wide.add_clause([1, 3, 6])  # 1→3 and 1→6 hidden: 1 droppable
        pruned, report = prune_hidden_literals(wide)
        assert report.literals_removed >= 1
        assert pruned.num_literals < wide.num_literals

    def test_skips_wide_clauses(self):
        # 1 → 2 hides literal 1, but only in a clause of at most 64.
        narrow = CNF([Clause([-1, 2]), Clause(list(range(1, 65)))])
        assert prune_hidden_literals(narrow)[1].literals_removed == 1
        wide = CNF([Clause([-1, 2]), Clause(list(range(1, 66)))])
        assert prune_hidden_literals(wide)[1].literals_removed == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_equisatisfiable_property(self, seed):
        formula = random_ksat(8, 24, k=2, seed=seed)
        pruned, report = prune_hidden_literals(formula)
        before, _ = solve_cnf(formula)
        after, _ = solve_cnf(pruned)
        assert before is after
