"""Resolution theorem prover for first-order clause sets.

Refutation-style: to prove ``theory ⊨ goal`` we clausify
``theory ∪ {¬goal}`` and search for the empty clause by binary
resolution with factoring.  The paper's FOL DAG execution ("inference
rules act as graph transformation operators that derive contradictions
through node and edge expansion", Sec. IV-A-a) corresponds exactly to
this saturation loop; the prover records each step so proofs are
verifiable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.logic.fol.clausify import FOLClause, FOLLiteral, clausify_all
from repro.logic.fol.terms import Formula, Not, Predicate, Var
from repro.logic.fol.unification import substitute_predicate, unify_predicates


@dataclass(frozen=True)
class ProofStep:
    """One resolution (or factoring) inference."""

    conclusion: FOLClause
    premises: Tuple[int, ...]
    rule: str


@dataclass
class ProverStats:
    resolutions: int = 0
    factorings: int = 0
    clauses_generated: int = 0
    clauses_kept: int = 0


class ResolutionProver:
    """Saturation prover with subsumption-lite deduplication.

    Parameters
    ----------
    max_clauses:
        Generated-clause budget; exceeding it makes :meth:`prove` return
        ``None`` (unknown) rather than loop forever — first-order
        entailment is only semi-decidable.

    Resolvents wider than 12 literals are discarded (keeps search
    shallow).
    """

    def __init__(self, max_clauses: int = 5000):
        self.max_clauses = max_clauses
        self.stats = ProverStats()
        self.proof: List[ProofStep] = []

    def prove(self, theory: Iterable[Formula], goal: Formula) -> Optional[bool]:
        """Return True if the goal is entailed, None if budget exhausted.

        (False is never returned: failure to refute within budget does
        not establish non-entailment.)
        """
        clauses = clausify_all(list(theory) + [Not(goal)])
        return self.refute(clauses)

    def refute(self, clauses: List[FOLClause]) -> Optional[bool]:
        """Saturate; True when the empty clause is derived."""
        self.stats = ProverStats()
        self.proof = []
        kept: List[FOLClause] = []
        seen: Set[Tuple] = set()

        def canonical(clause: FOLClause) -> Tuple:
            return tuple(
                sorted((lit.positive, _atom_shape(lit.atom)) for lit in clause.literals)
            )

        queue: List[FOLClause] = []
        for clause in clauses:
            key = canonical(clause)
            if key not in seen:
                seen.add(key)
                queue.append(clause)

        while queue:
            current = queue.pop(0)
            if not current.literals:
                return True
            kept.append(current)
            self.stats.clauses_kept += 1
            index = len(kept) - 1
            for other_index, other in enumerate(kept):
                for resolvent in self._resolve_pair(current, other):
                    self.stats.resolutions += 1
                    self.stats.clauses_generated += 1
                    if self.stats.clauses_generated > self.max_clauses:
                        return None
                    if len(resolvent.literals) > 12:
                        continue
                    key = canonical(resolvent)
                    if key in seen:
                        continue
                    seen.add(key)
                    self.proof.append(
                        ProofStep(resolvent, (index, other_index), "resolution")
                    )
                    if not resolvent.literals:
                        return True
                    queue.append(resolvent)
            for factored in self._factor(current):
                self.stats.factorings += 1
                key = canonical(factored)
                if key not in seen:
                    seen.add(key)
                    self.proof.append(ProofStep(factored, (index,), "factoring"))
                    queue.append(factored)
        return False  # saturated without empty clause: genuinely not entailed

    def _resolve_pair(self, a: FOLClause, b: FOLClause) -> List[FOLClause]:
        """All binary resolvents of two clauses (variables renamed apart)."""
        b = _rename_apart(b, suffix="_r")
        out: List[FOLClause] = []
        for i, lit_a in enumerate(a.literals):
            for j, lit_b in enumerate(b.literals):
                if lit_a.positive == lit_b.positive:
                    continue
                subst = unify_predicates(lit_a.atom, lit_b.atom)
                if subst is None:
                    continue
                rest = [
                    FOLLiteral(substitute_predicate(l.atom, subst), l.positive)
                    for k, l in enumerate(a.literals)
                    if k != i
                ] + [
                    FOLLiteral(substitute_predicate(l.atom, subst), l.positive)
                    for k, l in enumerate(b.literals)
                    if k != j
                ]
                uniq: List[FOLLiteral] = []
                for lit in rest:
                    if lit not in uniq:
                        uniq.append(lit)
                if _is_tautology(uniq):
                    continue
                out.append(FOLClause(tuple(uniq)))
        return out

    def _factor(self, clause: FOLClause) -> List[FOLClause]:
        """Unify pairs of same-polarity literals within one clause."""
        out: List[FOLClause] = []
        for i, j in itertools.combinations(range(len(clause.literals)), 2):
            la, lb = clause.literals[i], clause.literals[j]
            if la.positive != lb.positive:
                continue
            subst = unify_predicates(la.atom, lb.atom)
            if subst is None:
                continue
            lits = [
                FOLLiteral(substitute_predicate(l.atom, subst), l.positive)
                for k, l in enumerate(clause.literals)
                if k != j
            ]
            uniq: List[FOLLiteral] = []
            for lit in lits:
                if lit not in uniq:
                    uniq.append(lit)
            out.append(FOLClause(tuple(uniq)))
        return out


def _is_tautology(literals: List[FOLLiteral]) -> bool:
    atoms = {(lit.atom, lit.positive) for lit in literals}
    return any((atom, not pos) in atoms for atom, pos in atoms)


def _rename_apart(clause: FOLClause, suffix: str) -> FOLClause:
    renaming: Dict[Var, Var] = {}

    def rename_term(term):
        from repro.logic.fol.terms import Const, Func

        if isinstance(term, Var):
            if term not in renaming:
                renaming[term] = Var(term.name + suffix)
            return renaming[term]
        if isinstance(term, Const):
            return term
        return Func(term.name, tuple(rename_term(a) for a in term.args))

    lits = tuple(
        FOLLiteral(
            Predicate(l.atom.name, tuple(rename_term(a) for a in l.atom.args)),
            l.positive,
        )
        for l in clause.literals
    )
    return FOLClause(lits)


def _atom_shape(atom: Predicate) -> Tuple:
    """Structure of an atom with variables anonymized (for dedup keys)."""

    def shape(term):
        if isinstance(term, Var):
            return ("var",)
        from repro.logic.fol.terms import Const

        if isinstance(term, Const):
            return ("const", term.name)
        return ("func", term.name) + tuple(shape(a) for a in term.args)

    return (atom.name,) + tuple(shape(a) for a in atom.args)
