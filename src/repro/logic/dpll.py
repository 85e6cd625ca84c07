"""DPLL SAT solver with unit propagation and pure-literal elimination.

It shares no code with the CDCL solver the accelerator replays, so
it is the independent reference an UNSAT verdict is checked against
(``bench/oracle.py``).
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
    """Recursive DPLL with unit propagation and pure-literal
    elimination (sound for satisfiability, not for model counting)."""

    stats: DPLLStats = field(default_factory=DPLLStats)

    def solve(self, formula: CNF) -> Optional[Dict[int, bool]]:
        """Return a satisfying assignment or ``None`` when UNSAT."""
        self.stats = DPLLStats()
        return self._search(formula.simplify(), {}, depth=0)

    def _search(
        self, formula: CNF, assignment: Dict[int, bool], depth: int
    ) -> Optional[Dict[int, bool]]:
        self.stats.max_depth = max(self.stats.max_depth, depth)
        formula, assignment, conflict = self._propagate(formula, assignment)
        if conflict:
            return None
        formula, assignment = self._eliminate_pure(formula, assignment)
        if not formula.clauses:
            return dict(assignment)

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
        counts: Dict[int, int] = {}
        for clause in formula.clauses:
            for lit in clause:
                counts[var_of(lit)] = counts.get(var_of(lit), 0) + 1
        return max(counts.items(), key=lambda kv: kv[1])[0]
