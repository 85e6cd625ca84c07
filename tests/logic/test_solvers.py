"""Tests for the DPLL and CDCL solvers, including
hypothesis-driven agreement and model-soundness properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.cdcl import CDCLSolver, SolveResult, solve_cnf
from repro.logic.cnf import CNF, Clause
from repro.logic.dpll import DPLLSolver, DPLLStats
from repro.logic.generators import (
    graph_coloring_cnf,
    pigeonhole,
    planted_sat,
    random_ksat,
)


def brute_force_sat(formula: CNF) -> bool:
    variables = sorted(frozenset().union(*(clause.variables() for clause in formula)))
    for mask in range(1 << len(variables)):
        assignment = {v: bool(mask >> i & 1) for i, v in enumerate(variables)}
        if formula.is_satisfied_by(assignment):
            return True
    return False


@st.composite
def small_cnf(draw):
    num_vars = draw(st.integers(min_value=1, max_value=6))
    num_clauses = draw(st.integers(min_value=1, max_value=12))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        lits = draw(
            st.lists(
                st.integers(min_value=1, max_value=num_vars).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                min_size=width,
                max_size=width,
            )
        )
        clauses.append(Clause(lits))
    return CNF(clauses, num_vars)


class TestDPLL:
    def test_trivially_sat(self):
        model = DPLLSolver().solve(CNF([Clause([1])]))
        assert model == {1: True}

    def test_trivially_unsat(self):
        assert DPLLSolver().solve(CNF([Clause([1]), Clause([-1])])) is None

    def test_empty_formula_is_sat(self):
        assert DPLLSolver().solve(CNF()) == {}

    def test_model_satisfies_formula(self):
        formula = random_ksat(12, 40, seed=1)
        model = DPLLSolver().solve(formula)
        if model is not None:
            assert formula.is_satisfied_by(model)

    def test_planted_instances_are_sat(self):
        formula, _ = planted_sat(15, 60, seed=7)
        assert DPLLSolver().solve(formula) is not None

    def test_pigeonhole_unsat(self):
        assert DPLLSolver().solve(pigeonhole(3)) is None
        # No holes: the one pigeon's clause is empty.
        assert DPLLSolver().solve(pigeonhole(0)) is None

    def test_pigeonhole_rejects_negative_holes(self):
        # pigeonhole(-2) used to return a CNF with no clauses: satisfiable.
        with pytest.raises(ValueError, match="holes >= 0"):
            pigeonhole(-2)

    def test_stats_are_populated(self):
        solver = DPLLSolver()
        solver.solve(pigeonhole(3))
        assert solver.stats.decisions > 0
        assert solver.stats.backtracks > 0

    def test_propagation_alone_makes_no_decision(self):
        formula = CNF([Clause([1]), Clause([-1, 2]), Clause([-2, 3])])
        solver = DPLLSolver()
        assert solver.solve(formula) == {1: True, 2: True, 3: True}
        assert (solver.stats.decisions, solver.stats.propagations) == (0, 3)

    def test_pure_literals_are_set_without_branching(self):
        formula = CNF([Clause([1, 2]), Clause([1, -3]), Clause([2, -3])])
        with_pure = DPLLSolver()
        assert formula.is_satisfied_by(with_pure.solve(formula))
        assert with_pure.stats.decisions == 0
        assert with_pure.stats.pure_eliminations > 0

    def test_stats_reset_on_every_solve(self):
        solver = DPLLSolver()
        solver.solve(pigeonhole(3))
        assert solver.stats.decisions > 0
        solver.solve(CNF([Clause([1])]))
        assert solver.stats == DPLLStats(propagations=1)

    @settings(max_examples=40, deadline=None)
    @given(small_cnf())
    def test_agrees_with_brute_force(self, formula):
        assert (DPLLSolver().solve(formula) is not None) == brute_force_sat(formula)


class TestCDCL:
    @pytest.mark.parametrize(
        "formula", [pigeonhole(5), planted_sat(80, 340, seed=2)[0]], ids=["pigeonhole", "planted"]
    )
    def test_activity_rescale_keeps_the_answer(self, formula, monkeypatch):
        # A tiny decay multiplies the bump by 1000 per conflict, so
        # activities pass 1e100 within a few dozen conflicts.
        rescales = []
        rescale = CDCLSolver._rescale_activities
        monkeypatch.setattr(
            CDCLSolver, "_rescale_activities", lambda self: rescales.append(1) or rescale(self)
        )
        result, model = CDCLSolver(var_decay=0.001).solve(formula)
        assert rescales
        assert result is CDCLSolver().solve(formula)[0]
        if result is SolveResult.SAT:
            assert formula.is_satisfied_by(model)

    def test_trivially_sat(self):
        result, model = solve_cnf(CNF([Clause([1]), Clause([-1, 2])]))
        assert result is SolveResult.SAT
        assert model == {1: True, 2: True}

    def test_trivially_unsat(self):
        result, _ = solve_cnf(CNF([Clause([1]), Clause([-1])]))
        assert result is SolveResult.UNSAT

    def test_empty_clause_is_unsat(self):
        result, _ = solve_cnf(CNF([Clause([])]))
        assert result is SolveResult.UNSAT

    def test_model_satisfies_formula(self):
        formula = random_ksat(30, 110, seed=3)
        result, model = solve_cnf(formula)
        if result is SolveResult.SAT:
            assert formula.is_satisfied_by(model)

    def test_pigeonhole_unsat_with_learning(self):
        solver = CDCLSolver()
        result, _ = solver.solve(pigeonhole(4))
        assert result is SolveResult.UNSAT
        assert solver.stats.learned_clauses > 0

    def test_planted_large_instance(self):
        formula, _ = planted_sat(80, 320, seed=11)
        result, model = solve_cnf(formula)
        assert result is SolveResult.SAT
        assert formula.is_satisfied_by(model)

    def test_graph_coloring_triangle_needs_three_colors(self):
        triangle = [(0, 1), (1, 2), (0, 2)]
        result2, _ = solve_cnf(graph_coloring_cnf(triangle, 3, 2))
        result3, _ = solve_cnf(graph_coloring_cnf(triangle, 3, 3))
        assert result2 is SolveResult.UNSAT
        assert result3 is SolveResult.SAT

    def test_assumptions_sat_and_unsat(self):
        formula = CNF([Clause([1, 2])])
        result, model = CDCLSolver().solve(formula, assumptions=[-1])
        assert result is SolveResult.SAT and model[2] is True
        result, _ = CDCLSolver().solve(CNF([Clause([1])]), assumptions=[-1])
        assert result is SolveResult.UNSAT

    def test_conflict_budget_returns_unknown(self):
        solver = CDCLSolver(max_conflicts=1)
        result, _ = solver.solve(pigeonhole(5))
        assert result is SolveResult.UNKNOWN

    def test_trace_records_decisions_and_conflicts(self):
        solver = CDCLSolver(record_trace=True)
        solver.solve(pigeonhole(3))
        kinds = {event.kind for event in solver.trace}
        assert "decide" in kinds
        assert "conflict" in kinds

    def test_restarts_occur_on_hard_instances(self):
        solver = CDCLSolver(restart_base=5)
        solver.solve(pigeonhole(5))
        assert solver.stats.restarts > 0

    def test_clause_db_reduction(self):
        solver = CDCLSolver(clause_db_limit=10, restart_base=10_000)
        result, _ = solver.solve(pigeonhole(5))
        assert result is SolveResult.UNSAT
        assert solver.stats.deleted_clauses > 0

    @settings(max_examples=40, deadline=None)
    @given(small_cnf())
    def test_agrees_with_brute_force(self, formula):
        result, model = solve_cnf(formula)
        assert (result is SolveResult.SAT) == brute_force_sat(formula)
        if model is not None:
            assert formula.is_satisfied_by(model)

    @settings(max_examples=25, deadline=None)
    @given(small_cnf())
    def test_agrees_with_dpll(self, formula):
        result, _ = solve_cnf(formula)
        dpll_model = DPLLSolver().solve(formula)
        assert (result is SolveResult.SAT) == (dpll_model is not None)
