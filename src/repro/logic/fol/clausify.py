"""Clausification: FOL formulas → clause normal form.

Implements the paper's Step-1 "Normalization" for FOL inputs
(Sec. IV-A-a): eliminate ↔ and →, push negations inward (NNF),
standardize variables apart, Skolemize existentials, drop universal
quantifiers, and distribute ∨ over ∧ to reach CNF.  The result is a list
of :class:`FOLClause` objects; when the clause set is ground it can be
lowered to a propositional :class:`~repro.logic.cnf.CNF` for SAT solving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.logic.cnf import CNF
from repro.logic.fol.terms import (
    And,
    Const,
    Exists,
    ForAll,
    Formula,
    Func,
    Iff,
    Implies,
    Not,
    Or,
    Predicate,
    Term,
    Var,
    formula_variables,
)
from repro.logic.fol.unification import Substitution, substitute


@dataclass(frozen=True)
class FOLLiteral:
    """A possibly-negated atom."""

    atom: Predicate
    positive: bool = True

    def __repr__(self) -> str:
        return repr(self.atom) if self.positive else f"¬{self.atom!r}"


@dataclass(frozen=True)
class FOLClause:
    """A disjunction of FOL literals."""

    literals: Tuple[FOLLiteral, ...]

    def __iter__(self):
        return iter(self.literals)

    def is_ground(self) -> bool:
        return all(
            not _term_has_var(arg) for lit in self.literals for arg in lit.atom.args
        )

    def __repr__(self) -> str:
        return " ∨ ".join(map(repr, self.literals)) if self.literals else "⊥"


def _term_has_var(term: Term) -> bool:
    if isinstance(term, Var):
        return True
    if isinstance(term, Const):
        return False
    return any(_term_has_var(a) for a in term.args)


class _Gensym:
    """Fresh-name source for standardization and Skolem symbols."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def fresh(self, prefix: str) -> str:
        n = self._counters.get(prefix, 0)
        self._counters[prefix] = n + 1
        return f"{prefix}{n}"


def _eliminate_arrows(f: Formula) -> Formula:
    if isinstance(f, Predicate):
        return f
    if isinstance(f, Not):
        return Not(_eliminate_arrows(f.operand))
    if isinstance(f, And):
        return And(_eliminate_arrows(f.left), _eliminate_arrows(f.right))
    if isinstance(f, Or):
        return Or(_eliminate_arrows(f.left), _eliminate_arrows(f.right))
    if isinstance(f, Implies):
        return Or(Not(_eliminate_arrows(f.left)), _eliminate_arrows(f.right))
    if isinstance(f, Iff):
        left = _eliminate_arrows(f.left)
        right = _eliminate_arrows(f.right)
        return And(Or(Not(left), right), Or(Not(right), left))
    if isinstance(f, ForAll):
        return ForAll(f.variable, _eliminate_arrows(f.body))
    if isinstance(f, Exists):
        return Exists(f.variable, _eliminate_arrows(f.body))
    raise TypeError(f"unknown formula node: {f!r}")


def _to_nnf(f: Formula) -> Formula:
    """Push negations to atoms (input must be arrow-free)."""
    if isinstance(f, Predicate):
        return f
    if isinstance(f, And):
        return And(_to_nnf(f.left), _to_nnf(f.right))
    if isinstance(f, Or):
        return Or(_to_nnf(f.left), _to_nnf(f.right))
    if isinstance(f, ForAll):
        return ForAll(f.variable, _to_nnf(f.body))
    if isinstance(f, Exists):
        return Exists(f.variable, _to_nnf(f.body))
    if isinstance(f, Not):
        g = f.operand
        if isinstance(g, Predicate):
            return f
        if isinstance(g, Not):
            return _to_nnf(g.operand)
        if isinstance(g, And):
            return Or(_to_nnf(Not(g.left)), _to_nnf(Not(g.right)))
        if isinstance(g, Or):
            return And(_to_nnf(Not(g.left)), _to_nnf(Not(g.right)))
        if isinstance(g, ForAll):
            return Exists(g.variable, _to_nnf(Not(g.body)))
        if isinstance(g, Exists):
            return ForAll(g.variable, _to_nnf(Not(g.body)))
    raise TypeError(f"formula not arrow-free: {f!r}")


def _standardize(f: Formula, gensym: _Gensym, renaming: Dict[Var, Var]) -> Formula:
    """Give every quantifier a unique variable."""
    if isinstance(f, Predicate):
        return Predicate(f.name, tuple(_rename_term(a, renaming) for a in f.args))
    if isinstance(f, Not):
        return Not(_standardize(f.operand, gensym, renaming))
    if isinstance(f, (And, Or)):
        cls = type(f)
        return cls(
            _standardize(f.left, gensym, renaming),
            _standardize(f.right, gensym, renaming),
        )
    if isinstance(f, (ForAll, Exists)):
        fresh = Var(gensym.fresh("v"))
        inner = dict(renaming)
        inner[f.variable] = fresh
        cls = type(f)
        return cls(fresh, _standardize(f.body, gensym, inner))
    raise TypeError(f"unexpected node during standardization: {f!r}")


def _rename_term(term: Term, renaming: Dict[Var, Var]) -> Term:
    if isinstance(term, Var):
        return renaming.get(term, term)
    if isinstance(term, Const):
        return term
    return Func(term.name, tuple(_rename_term(a, renaming) for a in term.args))


def _skolemize(f: Formula, gensym: _Gensym, universal: Tuple[Var, ...]) -> Formula:
    """Replace existentials with Skolem functions of enclosing universals."""
    if isinstance(f, Predicate):
        return f
    if isinstance(f, Not):
        return Not(_skolemize(f.operand, gensym, universal))
    if isinstance(f, (And, Or)):
        cls = type(f)
        return cls(
            _skolemize(f.left, gensym, universal),
            _skolemize(f.right, gensym, universal),
        )
    if isinstance(f, ForAll):
        return ForAll(f.variable, _skolemize(f.body, gensym, universal + (f.variable,)))
    if isinstance(f, Exists):
        if universal:
            skolem: Term = Func(gensym.fresh("sk"), universal)
        else:
            skolem = Const(gensym.fresh("sk"))
        body = _substitute_formula(f.body, {f.variable: skolem})
        return _skolemize(body, gensym, universal)
    raise TypeError(f"unexpected node during skolemization: {f!r}")


def _substitute_formula(f: Formula, subst: Substitution) -> Formula:
    if isinstance(f, Predicate):
        return Predicate(f.name, tuple(substitute(a, subst) for a in f.args))
    if isinstance(f, Not):
        return Not(_substitute_formula(f.operand, subst))
    if isinstance(f, (And, Or, Implies, Iff)):
        cls = type(f)
        return cls(
            _substitute_formula(f.left, subst), _substitute_formula(f.right, subst)
        )
    if isinstance(f, (ForAll, Exists)):
        narrowed = {v: t for v, t in subst.items() if v != f.variable}
        cls = type(f)
        return cls(f.variable, _substitute_formula(f.body, narrowed))
    raise TypeError(f"unexpected node during substitution: {f!r}")


def _drop_universals(f: Formula) -> Formula:
    if isinstance(f, ForAll):
        return _drop_universals(f.body)
    if isinstance(f, (And, Or)):
        cls = type(f)
        return cls(_drop_universals(f.left), _drop_universals(f.right))
    if isinstance(f, Not):
        return Not(_drop_universals(f.operand))
    return f


def _to_clauses(f: Formula) -> List[List[FOLLiteral]]:
    """Distribute ∨ over ∧ on a quantifier-free NNF matrix."""
    if isinstance(f, Predicate):
        return [[FOLLiteral(f, True)]]
    if isinstance(f, Not) and isinstance(f.operand, Predicate):
        return [[FOLLiteral(f.operand, False)]]
    if isinstance(f, And):
        return _to_clauses(f.left) + _to_clauses(f.right)
    if isinstance(f, Or):
        left = _to_clauses(f.left)
        right = _to_clauses(f.right)
        return [lc + rc for lc in left for rc in right]
    raise TypeError(f"matrix not in NNF: {f!r}")


def clausify(formula: Formula, gensym: Optional[_Gensym] = None) -> List[FOLClause]:
    """Full clausification pipeline for one formula."""
    gensym = gensym or _Gensym()
    f = _eliminate_arrows(formula)
    f = _to_nnf(f)
    # Close over free variables: interpret them as universally quantified.
    for variable in sorted(formula_variables(f), key=lambda v: v.name):
        f = ForAll(variable, f)
    f = _standardize(f, gensym, {})
    f = _skolemize(f, gensym, ())
    f = _drop_universals(f)
    clauses = []
    for lits in _to_clauses(f):
        # Deduplicate literals inside the clause.
        uniq: List[FOLLiteral] = []
        for lit in lits:
            if lit not in uniq:
                uniq.append(lit)
        clauses.append(FOLClause(tuple(uniq)))
    return clauses


def clausify_all(formulas: Iterable[Formula]) -> List[FOLClause]:
    """Clausify a theory, sharing one gensym so Skolem names stay unique."""
    gensym = _Gensym()
    out: List[FOLClause] = []
    for formula in formulas:
        out.extend(clausify(formula, gensym))
    return out


def ground_to_cnf(clauses: Iterable[FOLClause]) -> Tuple[CNF, Dict[Predicate, int]]:
    """Lower a *ground* clause set to propositional CNF.

    Each distinct ground atom becomes a propositional variable; the
    returned map records the correspondence.  Raises ``ValueError`` on
    non-ground input.
    """
    atom_ids: Dict[Predicate, int] = {}
    cnf = CNF()
    for clause in clauses:
        if not clause.is_ground():
            raise ValueError(f"clause is not ground: {clause!r}")
        lits = []
        for lit in clause.literals:
            if lit.atom not in atom_ids:
                atom_ids[lit.atom] = len(atom_ids) + 1
            v = atom_ids[lit.atom]
            lits.append(v if lit.positive else -v)
        cnf.add_clause(lits)
    cnf.num_vars = max(cnf.num_vars, len(atom_ids))
    return cnf, atom_ids
