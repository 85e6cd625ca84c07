"""DPLL SAT solver with unit propagation, pure-literal elimination and
optional lookahead branching.

The DPLL procedure is the "cube" side of the paper's cube-and-conquer
execution (Sec. II-C, Sec. V-E): REASON's tree PEs broadcast decisions
and reduce implications for DPLL subproblems, while CDCL handles the
conquer phase.  This software solver is the functional reference the
hardware simulator is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.logic.cnf import CNF, Literal, var_of


@dataclass
class DPLLStats:
    """Search counters exposed for profiling and hardware-trace derivation."""

    decisions: int = 0
    propagations: int = 0
    backtracks: int = 0
    pure_eliminations: int = 0
    max_depth: int = 0


@dataclass
class DPLLSolver:
    """Recursive DPLL with unit propagation.

    Parameters
    ----------
    use_pure_literal:
        Enable pure-literal elimination (sound for satisfiability but
        not model counting).
    use_lookahead:
        Branch on the variable whose two sub-cubes trigger the most unit
        propagations (the lookahead heuristic from cube-and-conquer).
    max_decisions:
        Abort with ``None`` once this many decisions were made; used by
        the cube generator to bound cube cost.
    """

    use_pure_literal: bool = True
    use_lookahead: bool = False
    max_decisions: Optional[int] = None
    stats: DPLLStats = field(default_factory=DPLLStats)

    def solve(self, formula: CNF, assumptions: Tuple[Literal, ...] = ()) -> Optional[Dict[int, bool]]:
        """Return a satisfying assignment or ``None`` when UNSAT.

        Raises :class:`BudgetExceeded` when ``max_decisions`` runs out.
        """
        self.stats = DPLLStats()
        working = formula.simplify()
        for lit in assumptions:
            working = working.condition(lit)
        model = self._search(working, {abs(l): l > 0 for l in assumptions}, depth=0)
        return model

    def _search(
        self, formula: CNF, assignment: Dict[int, bool], depth: int
    ) -> Optional[Dict[int, bool]]:
        self.stats.max_depth = max(self.stats.max_depth, depth)
        formula, assignment, conflict = self._propagate(formula, assignment)
        if conflict:
            return None
        if self.use_pure_literal:
            formula, assignment = self._eliminate_pure(formula, assignment)
        if not formula.clauses:
            return dict(assignment)
        if self.max_decisions is not None and self.stats.decisions >= self.max_decisions:
            raise BudgetExceeded(self.stats.decisions)

        branch_var = self._pick_branch_variable(formula)
        self.stats.decisions += 1
        for value in (True, False):
            lit = branch_var if value else -branch_var
            extended = dict(assignment)
            extended[branch_var] = value
            model = self._search(formula.condition(lit), extended, depth + 1)
            if model is not None:
                return model
            self.stats.backtracks += 1
        return None

    def _propagate(
        self, formula: CNF, assignment: Dict[int, bool]
    ) -> Tuple[CNF, Dict[int, bool], bool]:
        """Exhaustively apply the unit-clause rule."""
        assignment = dict(assignment)
        while True:
            unit: Optional[Literal] = None
            for clause in formula.clauses:
                if clause.is_empty:
                    return formula, assignment, True
                if clause.is_unit:
                    unit = clause.literals[0]
                    break
            if unit is None:
                return formula, assignment, False
            self.stats.propagations += 1
            assignment[var_of(unit)] = unit > 0
            formula = formula.condition(unit)

    def _eliminate_pure(
        self, formula: CNF, assignment: Dict[int, bool]
    ) -> Tuple[CNF, Dict[int, bool]]:
        assignment = dict(assignment)
        while True:
            polarity: Dict[int, int] = {}
            for clause in formula.clauses:
                for lit in clause:
                    polarity[var_of(lit)] = polarity.get(var_of(lit), 0) | (1 if lit > 0 else 2)
            pure = [v if p == 1 else -v for v, p in polarity.items() if p in (1, 2)]
            if not pure:
                return formula, assignment
            for lit in pure:
                self.stats.pure_eliminations += 1
                assignment[var_of(lit)] = lit > 0
                formula = formula.condition(lit)

    def _pick_branch_variable(self, formula: CNF) -> int:
        if self.use_lookahead:
            return self._lookahead_variable(formula)
        counts: Dict[int, int] = {}
        for clause in formula.clauses:
            for lit in clause:
                counts[var_of(lit)] = counts.get(var_of(lit), 0) + 1
        return max(counts.items(), key=lambda kv: kv[1])[0]

    def _lookahead_variable(self, formula: CNF) -> int:
        """Score each candidate by propagation strength of both branches.

        This mirrors the lookahead ranking LA(·) in the paper's Fig. 9:
        the DPLL node preferring the sub-cube with stronger implied
        reductions.
        """
        best_var, best_score = 0, -1.0
        for variable in sorted(formula.variables()):
            pos = self._propagation_gain(formula, variable)
            negv = self._propagation_gain(formula, -variable)
            score = pos * negv + pos + negv
            if score > best_score:
                best_var, best_score = variable, score
        return best_var

    def _propagation_gain(self, formula: CNF, lit: Literal) -> float:
        reduced, _, conflict = self._propagate(formula.condition(lit), {})
        if conflict:
            return float(formula.num_literals)
        return float(formula.num_literals - reduced.num_literals)


class BudgetExceeded(RuntimeError):
    """Raised when the solver exhausts its decision budget."""

    def __init__(self, decisions: int):
        super().__init__(f"decision budget exhausted after {decisions} decisions")
        self.decisions = decisions
