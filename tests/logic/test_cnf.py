"""Tests for the CNF core representation."""

import pytest

from repro.logic.cnf import CNF, Clause, var_of


class TestLiteralHelpers:
    def test_var_of_strips_sign(self):
        assert var_of(5) == 5
        assert var_of(-5) == 5


class TestClause:
    def test_deduplicates_literals(self):
        assert len(Clause([1, 1, 2])) == 2

    def test_normalized_order_makes_equal_clauses_equal(self):
        assert Clause([2, -1]) == Clause([-1, 2])

    def test_rejects_zero_literal(self):
        with pytest.raises(ValueError):
            Clause([0, 1])

    def test_empty_clause(self):
        clause = Clause([])
        assert clause.is_empty
        assert not clause.is_unit

    def test_unit_clause(self):
        assert Clause([4]).is_unit

    def test_tautology_detection(self):
        assert Clause([1, -1]).is_tautology
        assert not Clause([1, 2]).is_tautology

    def test_variables(self):
        assert Clause([1, -3]).variables() == frozenset({1, 3})

    def test_without_removes_literal(self):
        assert Clause([1, 2]).without(2) == Clause([1])

    def test_evaluate_satisfied(self):
        assert Clause([1, -2]).evaluate({2: False}) is True

    def test_evaluate_falsified(self):
        assert Clause([1, 2]).evaluate({1: False, 2: False}) is False

    def test_evaluate_undecided(self):
        assert Clause([1, 2]).evaluate({1: False}) is None


class TestCNF:
    def test_num_vars_tracks_highest_variable(self):
        formula = CNF([Clause([1, -5])])
        assert formula.num_vars == 5

    def test_add_clause_accepts_iterables(self):
        formula = CNF()
        formula.add_clause([1, 2])
        assert len(formula) == 1
        assert formula.num_vars == 2

    def test_evaluate_full_assignment(self):
        formula = CNF([Clause([1, 2]), Clause([-1, 3])])
        assert formula.is_satisfied_by({1: True, 2: False, 3: True})
        assert formula.evaluate({1: True, 2: False, 3: False}) is False

    def test_evaluate_partial_assignment_is_none(self):
        formula = CNF([Clause([1, 2])])
        assert formula.evaluate({1: False}) is None

    def test_simplify_drops_tautologies_and_duplicates(self):
        formula = CNF([Clause([1, -1]), Clause([1, 2]), Clause([2, 1])])
        assert len(formula.simplify()) == 1

    def test_condition_removes_satisfied_clauses(self):
        formula = CNF([Clause([1, 2]), Clause([-1, 3])])
        conditioned = formula.condition(1)
        assert len(conditioned) == 1
        assert conditioned.clauses[0] == Clause([3])

    def test_condition_can_produce_empty_clause(self):
        formula = CNF([Clause([1])])
        conditioned = formula.condition(-1)
        assert conditioned.clauses[0].is_empty

    def test_num_literals(self):
        formula = CNF([Clause([1, 2]), Clause([3])])
        assert formula.num_literals == 3
