"""Binary implication graphs and hidden-literal pruning (paper Sec. IV-B-a).

Every binary clause ``(l ∨ l')`` induces the implications ``¬l → l'`` and
``¬l' → l``.  The resulting directed graph over literals captures forced
assignments; a literal that implies another literal of the same clause is
*hidden* — removing it is a self-subsuming resolution step, so the clause
can be narrowed without changing satisfiability (hidden literal
elimination, HLE).  A clause entailed through the implication chains of
the *other* clauses is a hidden tautology and can be dropped (HTE).

Soundness requires care on two points that a naive reading of the paper
glosses over: (1) a clause may not justify its own removal through the
edges it itself induces, and (2) removals must be applied sequentially
against the *current* formula, since two clauses can each be redundant
with respect to the other but not simultaneously removable.  The
implementation below maintains the implication graph incrementally with
reference-counted edges to honor both.

Most clauses of most formulas have nothing to prune, and showing that
by graph search is where the sweep's time went.  The pruner therefore
takes the transitive closure of the graph once (one bitmask per
literal) and keeps it a *superset* of what is reachable as the sweep
edits the graph — untouched when an edge goes, widened when one is
added.  A clause none of whose literals can reach a sibling even in the
superset is kept without a search; every other clause is searched
exactly as before, so the closure only ever skips work.

This module is the logic half of REASON's adaptive DAG pruning stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.logic.cnf import CNF, Clause, Literal


@dataclass
class PruneReport:
    """What hidden-literal pruning removed."""

    literals_removed: int = 0
    clauses_removed: int = 0


def _bit(lit: Literal) -> int:
    return 1 << (2 * lit if lit > 0 else 1 - 2 * lit)


class BinaryImplicationGraph:
    """Directed implication graph over literals, with ref-counted edges.

    Reference counting lets callers exclude the edges a specific binary
    clause induces (to avoid circular self-justification) and lets the
    pruner keep the graph consistent as clauses are removed or narrowed.
    """

    def __init__(self, formula: Optional[CNF] = None):
        self._succ: Dict[Literal, Dict[Literal, int]] = {}
        #: Literal -> bitmask of the literals it reaches, once
        #: :meth:`close` has run: a superset from then on.
        self._reach: Optional[Dict[Literal, int]] = None
        self.num_edges = 0
        if formula is not None:
            for clause in formula.clauses:
                if len(clause) == 2:
                    self.add_clause_edges(clause)

    def add_clause_edges(self, clause: Clause) -> None:
        """Register the two implications of a binary clause."""
        a, b = clause.literals
        self._add_edge(-a, b)
        self._add_edge(-b, a)

    def remove_clause_edges(self, clause: Clause) -> None:
        """Unregister a binary clause's implications."""
        a, b = clause.literals
        self._remove_edge(-a, b)
        self._remove_edge(-b, a)

    def _add_edge(self, src: Literal, dst: Literal) -> None:
        bucket = self._succ.setdefault(src, {})
        if dst not in bucket:
            self.num_edges += 1
        bucket[dst] = bucket.get(dst, 0) + 1
        reach = self._reach
        if reach is not None:
            # Whatever reaches ``src`` now also reaches ``dst`` and on.
            gain = _bit(dst) | reach.get(dst, 0)
            through = _bit(src)
            for lit, mask in reach.items():
                if mask & through:
                    reach[lit] = mask | gain
            reach[src] = reach.get(src, 0) | gain

    def _remove_edge(self, src: Literal, dst: Literal) -> None:
        bucket = self._succ.get(src)
        if not bucket or dst not in bucket:
            return
        bucket[dst] -= 1
        if bucket[dst] == 0:
            del bucket[dst]
            self.num_edges -= 1

    def reaches_any(
        self,
        lit: Literal,
        targets: Set[Literal],
        exclude: Optional[Clause] = None,
    ) -> bool:
        """Whether ``lit``'s closure intersects ``targets``.

        Depth-first traversal, linear in the graph size as the paper
        requires, that stops at the first hit, so hidden-literal checks
        don't materialize whole closures.  ``lit`` itself never counts
        (it is excluded from the closure).  When ``exclude`` is a binary
        clause, edges only that clause induces are ignored.
        """
        forbidden: Set[Tuple[Literal, Literal]] = set()
        if exclude is not None and len(exclude) == 2:
            a, b = exclude.literals
            for src, dst in ((-a, b), (-b, a)):
                if self._succ.get(src, {}).get(dst, 0) == 1:
                    forbidden.add((src, dst))
        succ = self._succ
        seen: Set[Literal] = set()
        stack = [lit]
        while stack:
            current = stack.pop()
            for nxt in succ.get(current, ()):
                if forbidden and (current, nxt) in forbidden:
                    continue
                if nxt not in seen and nxt != lit:
                    if nxt in targets:
                        return True
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def close(self) -> None:
        """Take the transitive closure (to a fixpoint over the edges).
        Removing an edge afterwards leaves it a superset; adding one
        widens it (:meth:`_add_edge`)."""
        succ = self._succ
        reach = dict.fromkeys(succ, 0)
        changed = True
        while changed:
            changed = False
            for src, bucket in succ.items():
                mask = reach[src]
                for dst in bucket:
                    mask |= _bit(dst) | reach.get(dst, 0)
                if mask != reach[src]:
                    reach[src] = mask
                    changed = True
        self._reach = reach

    def may_reach_sibling(self, clause: Clause) -> bool:
        """False only when no literal of ``clause``, in either polarity,
        can reach another of its literals — :meth:`reaches_any` with
        ``exclude=clause`` is then False for every one of them.  The
        edges only a binary clause itself induces are stepped over:
        the first hop from ``¬l`` must be another edge.  Without a
        closure (:meth:`close` not run) every clause is a "maybe"."""
        reach = self._reach
        if not reach:
            return reach is None
        literals = clause.literals
        if len(literals) == 2:
            for lit, other in (literals, literals[::-1]):
                target = _bit(other)
                if reach.get(lit, 0) & target:
                    return True
                for dst, count in self._succ.get(-lit, {}).items():
                    if count > 1 if dst == other else reach.get(dst, 0) & target:
                        return True
            return False
        everyone = 0
        for lit in literals:
            everyone |= _bit(lit)
        for lit in literals:
            siblings = everyone ^ _bit(lit)
            if (reach.get(lit, 0) | reach.get(-lit, 0)) & siblings:
                return True
        return False


def prune_hidden_literals(formula: CNF) -> Tuple[CNF, PruneReport]:
    """Hidden tautology elimination + hidden literal elimination.

    Clauses are visited in order against a live implication graph:

    * **HTE** — drop clause ``C`` when for some ``l ∈ C`` the chain
      ``¬l → l'`` reaches another ``l' ∈ C`` through *other* clauses
      (then the rest of the formula entails ``C``).
    * **HLE** — inside ``C``, repeatedly remove a literal ``l`` that
      implies another literal still in ``C`` (self-subsuming resolution
      with the witnessing binary chain).

    Each removal immediately updates the graph, so later removals are
    justified only by clauses still present.  The procedure preserves
    satisfiability exactly and runs in time linear in the graph size per
    clause visit.  Clauses wider than 64 literals are skipped to bound
    cost.
    """
    graph = BinaryImplicationGraph(formula)
    graph.close()
    report = PruneReport()
    pruned: List[Clause] = []

    for clause in formula.clauses:
        if len(clause) > 64 or len(clause) < 2:
            pruned.append(clause)
            continue
        if clause.is_tautology:
            report.clauses_removed += 1
            if len(clause) == 2:
                graph.remove_clause_edges(clause)
            continue
        if not graph.may_reach_sibling(clause):
            pruned.append(clause)
            continue
        literals = list(clause.literals)
        # HTE: entailed through other clauses' implications?
        tautology = False
        for lit in literals:
            others = {other for other in literals if other != lit}
            if graph.reaches_any(-lit, others, exclude=clause):
                tautology = True
                break
        if tautology:
            report.clauses_removed += 1
            if len(clause) == 2:
                graph.remove_clause_edges(clause)
            continue
        # HLE: sequentially drop literals implying a kept sibling.
        current = clause
        changed = True
        while changed and len(current) >= 2:
            changed = False
            for lit in current.literals:
                siblings = {other for other in current.literals if other != lit}
                if graph.reaches_any(lit, siblings, exclude=current):
                    narrowed = current.without(lit)
                    report.literals_removed += 1
                    if len(current) == 2:
                        graph.remove_clause_edges(current)
                    if len(narrowed) == 2:
                        graph.add_clause_edges(narrowed)
                    current = narrowed
                    changed = True
                    break
        pruned.append(current)

    return CNF(pruned, formula.num_vars), report
