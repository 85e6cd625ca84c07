"""Propositional CNF formulas.

Literals use the DIMACS integer convention: variable ``v`` is a positive
integer, literal ``+v`` asserts the variable, ``-v`` its negation.  A
clause is a disjunction of literals; a CNF formula is a conjunction of
clauses.  This representation is shared by every solver in
:mod:`repro.logic` and by the unified DAG builders in
:mod:`repro.core.dag.builders`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

Literal = int


def var_of(lit: Literal) -> int:
    """Return the variable index of a literal."""
    return abs(lit)


@dataclass(frozen=True)
class Clause:
    """An immutable disjunction of literals.

    Duplicate literals are removed on construction; the literal order is
    normalized so structurally equal clauses compare equal.
    """

    literals: Tuple[Literal, ...]

    def __init__(self, literals: Iterable[Literal]):
        uniq = sorted(set(literals), key=lambda l: (abs(l), l < 0))
        if any(l == 0 for l in uniq):
            raise ValueError("literal 0 is reserved by the DIMACS format")
        object.__setattr__(self, "literals", tuple(uniq))

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __contains__(self, lit: Literal) -> bool:
        return lit in self.literals

    @property
    def is_empty(self) -> bool:
        """An empty clause is unsatisfiable."""
        return not self.literals

    @property
    def is_unit(self) -> bool:
        return len(self.literals) == 1

    @property
    def is_tautology(self) -> bool:
        """True when the clause contains both a literal and its negation."""
        lits = set(self.literals)
        return any(-l in lits for l in lits)

    def variables(self) -> FrozenSet[int]:
        return frozenset(abs(l) for l in self.literals)

    def without(self, lit: Literal) -> "Clause":
        """Return a copy with ``lit`` removed."""
        return Clause(l for l in self.literals if l != lit)

    def evaluate(self, assignment: Dict[int, bool]) -> Optional[bool]:
        """Evaluate under a (possibly partial) assignment.

        Returns True if satisfied, False if falsified, None if undecided.
        """
        undecided = False
        for lit in self.literals:
            value = assignment.get(abs(lit))
            if value is None:
                undecided = True
            elif value == (lit > 0):
                return True
        return None if undecided else False


@dataclass
class CNF:
    """A CNF formula: a conjunction of :class:`Clause` objects.

    ``num_vars`` may exceed the highest variable mentioned by a clause
    (DIMACS permits declaring unused variables).
    """

    clauses: List[Clause] = field(default_factory=list)
    num_vars: int = 0

    # The cache key's memo (see ``KernelAdapter.fingerprint``): derived
    # data, like ``Circuit._plan``.  A class default rather than a
    # field, so it stays out of ``==`` and ``repr``; dropped from pickles.
    _key_memo = None

    def __post_init__(self) -> None:
        self.clauses = [c if isinstance(c, Clause) else Clause(c) for c in self.clauses]
        highest = max((max(c.variables(), default=0) for c in self.clauses), default=0)
        self.num_vars = max(self.num_vars, highest)

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_key_memo", None)
        return state

    def __len__(self) -> int:
        return len(self.clauses)

    def add_clause(self, literals: Iterable[Literal]) -> Clause:
        clause = literals if isinstance(literals, Clause) else Clause(literals)
        self.clauses.append(clause)
        highest = max(clause.variables(), default=0)
        self.num_vars = max(self.num_vars, highest)
        return clause

    @property
    def num_literals(self) -> int:
        """Total literal occurrences across all clauses."""
        return sum(len(c) for c in self.clauses)

    def evaluate(self, assignment: Dict[int, bool]) -> Optional[bool]:
        """Evaluate under a (possibly partial) assignment."""
        undecided = False
        for clause in self.clauses:
            value = clause.evaluate(assignment)
            if value is False:
                return False
            if value is None:
                undecided = True
        return None if undecided else True

    def is_satisfied_by(self, assignment: Dict[int, bool]) -> bool:
        return self.evaluate(assignment) is True

    def simplify(self) -> "CNF":
        """Drop tautological and duplicate clauses."""
        seen = set()
        kept: List[Clause] = []
        for clause in self.clauses:
            if clause.is_tautology or clause.literals in seen:
                continue
            seen.add(clause.literals)
            kept.append(clause)
        return CNF(kept, self.num_vars)

    def condition(self, lit: Literal) -> "CNF":
        """Return the formula conditioned on ``lit`` being true.

        Satisfied clauses are removed and the negated literal is deleted
        from the remaining clauses (may produce empty clauses).
        """
        kept: List[Clause] = []
        for clause in self.clauses:
            if lit in clause:
                continue
            kept.append(clause.without(-lit) if -lit in clause else clause)
        return CNF(kept, self.num_vars)
