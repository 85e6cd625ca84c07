"""First-order logic terms and formulas as immutable trees."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple, Union


@dataclass(frozen=True)
class Var:
    """A logic variable."""

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class Const:
    """A constant (domain element)."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Func:
    """A function application, e.g. fatherOf(x)."""

    name: str
    args: Tuple["Term", ...]

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


Term = Union[Var, Const, Func]


@dataclass(frozen=True)
class Predicate:
    """An atomic formula, e.g. Mentor(y)."""

    name: str
    args: Tuple[Term, ...] = ()

    def __repr__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(map(repr, self.args))})"


@dataclass(frozen=True)
class Not:
    operand: "Formula"

    def __repr__(self) -> str:
        return f"¬{self.operand!r}"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"

    def __repr__(self) -> str:
        return f"({self.left!r} ∧ {self.right!r})"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"

    def __repr__(self) -> str:
        return f"({self.left!r} ∨ {self.right!r})"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"

    def __repr__(self) -> str:
        return f"({self.left!r} → {self.right!r})"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"

    def __repr__(self) -> str:
        return f"({self.left!r} ↔ {self.right!r})"


@dataclass(frozen=True)
class ForAll:
    variable: Var
    body: "Formula"

    def __repr__(self) -> str:
        return f"∀{self.variable.name}. {self.body!r}"


@dataclass(frozen=True)
class Exists:
    variable: Var
    body: "Formula"

    def __repr__(self) -> str:
        return f"∃{self.variable.name}. {self.body!r}"


Formula = Union[Predicate, Not, And, Or, Implies, Iff, ForAll, Exists]


def term_variables(term: Term) -> FrozenSet[Var]:
    """Free variables of a term."""
    if isinstance(term, Var):
        return frozenset([term])
    if isinstance(term, Const):
        return frozenset()
    out: FrozenSet[Var] = frozenset()
    for arg in term.args:
        out |= term_variables(arg)
    return out


def formula_variables(formula: Formula) -> FrozenSet[Var]:
    """Free variables of a formula."""
    if isinstance(formula, Predicate):
        out: FrozenSet[Var] = frozenset()
        for arg in formula.args:
            out |= term_variables(arg)
        return out
    if isinstance(formula, Not):
        return formula_variables(formula.operand)
    if isinstance(formula, (And, Or, Implies, Iff)):
        return formula_variables(formula.left) | formula_variables(formula.right)
    if isinstance(formula, (ForAll, Exists)):
        return formula_variables(formula.body) - {formula.variable}
    raise TypeError(f"unknown formula node: {formula!r}")
