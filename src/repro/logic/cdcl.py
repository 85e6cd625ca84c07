"""Conflict-driven clause learning (CDCL) SAT solver.

Implements the modern solver loop the paper builds its symbolic hardware
around: two-watched-literals Boolean constraint propagation (BCP), 1-UIP
conflict analysis with non-chronological backjumping, VSIDS-style
activity decay, Luby restarts and learned-clause deletion.

The watched-literal data structure mirrors the hardware organization in
Fig. 6(e): per-literal watch lists, so that a variable assignment
touches only the clauses on its own list (the WLs unit's linked-list
SRAM layout).  The solver additionally records an event trace
(decisions, implications, conflicts, learned clauses, backjumps,
restarts) that the architecture simulator replays.

**Index space.**  Inside a search every literal is the integer
``lit + base`` (``base`` = the largest variable), so ``-base..base``
maps to ``0..2*base`` and negation is ``2*base - x``.  A clause is a
plain ``list`` of such indices with its two watched literals first —
the very object the watch lists hold — so the truth test of a clause
literal is ``val[x]`` (-1 unknown, 0 false, 1 true; both polarities are
stored) with no add and no sign test.  ``watches``, ``level``,
``reason`` and the trail are all indexed by, or hold, the index of the
*falsified* literal of an assignment: that is the index BCP looks a
watch list up by, and the index every literal of a reason or
conflicting clause already has, so conflict analysis reads
``level[q]`` for a clause literal ``q`` as it stands.  ``level[x]`` is 0
for every ``x`` that is not currently false, which is how analysis skips
the implied literal of a reason clause without comparing.

**Watches.**  A clause of two or more literals is on the watch lists
of the literals in its slots 0 and 1 and on no other.  BCP walks
``watches[x]`` for a just-falsified ``x``, which is in slot 0 or 1 of
every clause on it.  Each visit first puts ``x`` in slot 1 and the
other watch in slot 0, then leaves the clause in one of two states:

- *moved*: a non-false literal from slot 2 on took slot 1, ``x`` took
  its place, and the clause went onto that literal's list — never
  ``x``'s, so the list being walked does not grow;
- *kept*: the other watch is true, or no slot from 2 on holds a
  non-false literal, and the clause is unit (the other watch is
  implied, with this clause as its reason) or conflicting.

Kept clauses stay in ``watches[x]`` in visit order, compacted over the
slots of the moved ones.  The walk reads every clause it visits, so
``clause_fetches`` counts the kept and the moved ones alike.

**Event encoding.**  The trace is one ``int`` per event in one flat
list, ``operand * 8 + kind``: the literal's index for ``imply`` and
``decide``, the target level for ``backjump``, the clause size for
``learn``, nothing for ``conflict`` and ``restart``.  The level of an
implication, decision or conflict is not stored: it is the number of
decisions since the last backjump target, which :class:`EventTrace`
counts while decoding.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.logic.cnf import CNF


class SolveResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"


@dataclass
class CDCLStats:
    """Search counters; the hardware model consumes these as a workload trace."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    learned_literals: int = 0
    restarts: int = 0
    max_decision_level: int = 0
    clause_fetches: int = 0
    deleted_clauses: int = 0


@dataclass(slots=True)
class TraceEvent:
    """One BCP-visible event, as :class:`EventTrace` decodes it."""

    kind: str  # "decide" | "imply" | "conflict" | "learn" | "restart" | "backjump"
    literal: int = 0
    level: int = 0
    clause_size: int = 0  # of a "learn" event; an "imply" does not keep its clause's


_IMPLY, _DECIDE, _CONFLICT, _LEARN, _BACKJUMP, _RESTART = range(6)
_KINDS = ("imply", "decide", "conflict", "learn", "backjump", "restart")


class EventTrace:
    """The recorded event stream: a sequence of :class:`TraceEvent`
    stored as one int per event (see the module docstring)."""

    __slots__ = ("codes", "base")

    def __init__(self, base: int = 0):
        self.codes: List[int] = []
        self.base = base

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[TraceEvent]:
        base = self.base
        level = 0
        for code in self.codes:
            kind = code & 7
            if kind == _IMPLY:
                yield TraceEvent("imply", (code >> 3) - base, level)
            elif kind == _DECIDE:
                level += 1
                yield TraceEvent("decide", (code >> 3) - base, level)
            elif kind == _CONFLICT:
                yield TraceEvent("conflict", 0, level)
            elif kind == _BACKJUMP:
                level = code >> 3
                yield TraceEvent("backjump", 0, level)
            elif kind == _LEARN:
                yield TraceEvent("learn", clause_size=code >> 3)
            else:
                yield TraceEvent("restart")

    def histogram(self) -> Dict[Tuple[str, int], int]:
        """Events per ``(kind, literal)`` — literal 0 for the kinds that
        carry none.  The stream is counted in C; only its distinct
        codes are decoded."""
        base = self.base
        counts: Dict[Tuple[str, int], int] = Counter()
        for code, count in Counter(self.codes).items():
            kind = code & 7
            if kind <= _DECIDE:
                counts[_KINDS[kind], (code >> 3) - base] += count
            else:
                counts[_KINDS[kind], 0] += count
        return counts


class CDCLSolver:
    """CDCL solver over a :class:`~repro.logic.cnf.CNF` formula.

    The search state (clause lists, watch lists, ``val`` / ``level`` /
    ``reason`` arrays, trail) lives in the index space the module
    docstring describes, exists only while :meth:`solve` runs and is
    released when it returns: what outlives a search is ``stats`` and
    ``trace``, which is all a cached artifact keeps — and pickles.

    Parameters
    ----------
    var_decay:
        VSIDS activity decay factor applied after each conflict, in
        ``(0, 1]``.
    restart_base:
        Conflict interval unit for the Luby restart sequence, ``>= 1``.
    clause_db_limit:
        Soft cap on learned clauses before deletion of low-activity
        ones, ``>= 0``.
    record_trace:
        When True, keep the BCP event trace (costs memory on big runs).
    """

    def __init__(
        self,
        var_decay: float = 0.95,
        restart_base: int = 100,
        clause_db_limit: int = 4000,
        record_trace: bool = False,
    ):
        # A zero restart base restarts before every decision and never
        # reaches a conflict; a zero decay divides by zero at the first.
        if not 0 < var_decay <= 1:
            raise ValueError(f"var_decay must be in (0, 1], got {var_decay!r}")
        if restart_base < 1:
            raise ValueError(f"restart_base must be >= 1, got {restart_base!r}")
        if clause_db_limit < 0:
            raise ValueError(f"clause_db_limit must be >= 0, got {clause_db_limit!r}")
        self.var_decay = var_decay
        self.restart_base = restart_base
        self.clause_db_limit = clause_db_limit
        self.record_trace = record_trace
        self.stats = CDCLStats()
        self.trace = EventTrace()
        self._release()

    # ----------------------------------------------------------------- api

    def solve(self, formula: CNF) -> Tuple[SolveResult, Optional[Dict[int, bool]]]:
        """Solve the formula, returning (result, model-or-None)."""
        self._initialize(formula)
        try:
            if any(clause.is_empty for clause in formula.clauses) or not self._attach_all():
                return SolveResult.UNSAT, None

            stats = self.stats
            val, level, trail, trail_lim = self._val, self._level, self._trail, self._trail_lim
            two_base = self._two_base
            codes = self.trace.codes if self.record_trace else None
            db_limit = len(formula.clauses) + self.clause_db_limit
            conflicts_until_restart = self._luby(stats.restarts + 1) * self.restart_base
            conflicts_since_restart = 0

            while True:
                conflict = self._propagate()
                if conflict is not None:
                    stats.conflicts += 1
                    conflicts_since_restart += 1
                    if codes is not None:
                        codes.append(_CONFLICT)
                    if not trail_lim:
                        return SolveResult.UNSAT, None
                    learned, backjump_level = self._analyze(conflict)
                    self._backjump(backjump_level)
                    self._learn(learned)
                    self._activity_inc /= self.var_decay
                else:
                    if conflicts_since_restart >= conflicts_until_restart:
                        stats.restarts += 1
                        conflicts_since_restart = 0
                        conflicts_until_restart = self._luby(stats.restarts + 1) * self.restart_base
                        self._backjump(0)
                        if codes is not None:
                            codes.append(_RESTART)
                    if len(self._clauses) > db_limit:
                        self._reduce_clause_db()
                    decision = self._pick_branch_literal()
                    if not decision:
                        return SolveResult.SAT, self._model()
                    stats.decisions += 1
                    trail_lim.append(len(trail))
                    if len(trail_lim) > stats.max_decision_level:
                        stats.max_decision_level = len(trail_lim)
                    if codes is not None:
                        codes.append(decision * 8 + _DECIDE)
                    falsified = two_base - decision
                    val[decision] = 1
                    val[falsified] = 0
                    level[falsified] = len(trail_lim)
                    trail.append(falsified)
        finally:
            self._release()

    # ------------------------------------------------------------ internals

    def _initialize(self, formula: CNF) -> None:
        base = formula.num_vars
        size = 2 * base + 1
        self.stats = CDCLStats()
        self.trace = EventTrace(base)
        self._two_base = 2 * base
        self._clauses = [
            [lit + base for lit in clause.literals]
            for clause in formula.clauses
            if not clause.is_tautology
        ]
        self._watches = [[] for _ in range(size)]
        self._val = [-1] * size
        self._level = [0] * size
        self._reason = [None] * size
        self._activity = [0.0] * size

    def _release(self) -> None:
        """Drop the search state.  Nothing reads it once ``solve`` has
        returned (``_initialize`` rebuilds all of it), and the solver of
        a cached CNF artifact lives — and is pickled — with the artifact."""
        self._two_base = 0
        self._clauses: List[List[int]] = []
        #: ``id(clause) -> activity`` of the learned clauses, in learning
        #: order; membership is what marks a clause as learned.
        self._clause_activity: Dict[int, float] = {}
        self._watches: List[List[List[int]]] = []
        self._val: List[int] = []
        self._level: List[int] = []
        self._reason: List[Optional[List[int]]] = []
        self._trail: List[int] = []  # falsified indices, in assignment order
        self._trail_lim: List[int] = []
        self._activity: List[float] = []  # by the index of a variable's positive literal
        self._activity_inc = 1.0
        self._qhead = 0

    def _model(self) -> Dict[int, bool]:
        val = self._val
        base = self._two_base >> 1
        return {
            variable: code == 1
            for variable in range(1, base + 1)
            if (code := val[variable + base]) >= 0
        }

    def _attach_all(self) -> bool:
        """Attach initial clauses; returns False on immediate conflict."""
        val, watches = self._val, self._watches
        for clause in self._clauses:
            if len(clause) == 1:
                if val[clause[0]] == 0:
                    return False
                if val[clause[0]] < 0:
                    self._assign(clause[0], clause)
            else:
                watches[clause[0]].append(clause)
                watches[clause[1]].append(clause)
        return self._propagate() is None

    def _assign(self, index: int, reason: Optional[List[int]]) -> None:
        """Make the literal at ``index`` true at the current level."""
        falsified = self._two_base - index
        self._val[index] = 1
        self._val[falsified] = 0
        self._level[falsified] = len(self._trail_lim)
        self._reason[falsified] = reason
        self._trail.append(falsified)

    def _propagate(self) -> Optional[List[int]]:
        """Two-watched-literal BCP; returns the conflicting clause if any."""
        val = self._val
        level = self._level
        reason = self._reason
        trail = self._trail
        watches = self._watches
        two_base = self._two_base
        codes = self.trace.codes if self.record_trace else None
        decision_level = len(self._trail_lim)
        push = trail.append
        assigned = len(trail)
        fetches = 0
        conflict = None

        head = self._qhead
        while head < len(trail):
            false_idx = trail[head]
            head += 1
            watchers = watches[false_idx]
            # ``watchers[:keep]`` are the clauses that stay on this list,
            # in visit order; ``moved`` of the visited ones have left it.
            # Until one has, that prefix is the visited one: a kept
            # clause is stored back only once ``moved`` is non-zero.
            keep = moved = 0
            for clause in watchers:
                # Ensure the false literal sits at position 1.
                first = clause[0]
                if first == false_idx:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_idx
                state = val[first]
                if state == 1:
                    if moved:
                        watchers[keep] = clause
                    keep += 1
                    continue
                # Search a replacement watch.
                size = len(clause)
                pos = 2
                while pos < size:
                    other = clause[pos]
                    if val[other]:  # not false
                        clause[1] = other
                        clause[pos] = false_idx
                        # Another literal's list, never this one: the
                        # list being walked does not grow.
                        watches[other].append(clause)
                        moved += 1
                        break
                    pos += 1
                else:
                    if moved:
                        watchers[keep] = clause
                    keep += 1
                    if state == 0:
                        conflict = clause
                        break
                    # Unit: ``first`` is implied.
                    falsified = two_base - first
                    val[first] = 1
                    val[falsified] = 0
                    level[falsified] = decision_level
                    reason[falsified] = clause
                    push(falsified)
                    if codes is not None:
                        codes.append(first * 8)  # + _IMPLY
            # Fetched: the clauses that stay and the ones that moved.
            # The stale slots are between them and the unseen rest
            # (empty unless a conflict cut the walk short).
            fetches += keep + moved
            if moved:
                del watchers[keep : keep + moved]
            if conflict is not None:
                head = len(trail)
                break
        self._qhead = head
        self.stats.clause_fetches += fetches
        self.stats.propagations += len(trail) - assigned
        return conflict

    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int]:
        """1-UIP conflict analysis.

        Returns the learned clause (asserting literal first) and the
        backjump level.
        """
        level = self._level
        trail = self._trail
        reasons = self._reason
        activity = self._activity
        clause_activity = self._clause_activity
        two_base = self._two_base
        base = two_base >> 1
        inc = self._activity_inc
        current_level = len(self._trail_lim)
        seen = [False] * (two_base + 1)
        learned = [0]  # slot 0: the asserting literal
        counter = 0
        clause = conflict
        trail_idx = len(trail)

        while True:
            if id(clause) in clause_activity:
                clause_activity[id(clause)] += inc
            for q in clause:
                # ``level`` is 0 for the literal this clause implied
                # (it is true) and for assignments no decision made.
                if seen[q] or not level[q]:
                    continue
                seen[q] = True
                positive = q if q > base else two_base - q
                bumped = activity[positive] + inc
                activity[positive] = bumped
                if bumped > 1e100:
                    inc = self._rescale_activities()
                if level[q] == current_level:
                    counter += 1
                else:
                    learned.append(q)
            # Walk the trail backwards to the next marked literal.
            trail_idx -= 1
            while not seen[trail[trail_idx]]:
                trail_idx -= 1
            asserting = trail[trail_idx]
            counter -= 1
            if counter == 0:
                break
            clause = reasons[asserting]
            if clause is None:
                # Decision literal reached without a unique implication
                # point: learn the negation of the decision.
                break
        learned[0] = asserting

        # Put the first literal of the backjump level (the highest among
        # the rest) in the second watch slot.
        backjump, slot = 0, 1
        for pos in range(1, len(learned)):
            if level[learned[pos]] > backjump:
                backjump, slot = level[learned[pos]], pos
        if backjump:
            learned[1], learned[slot] = learned[slot], learned[1]
        return learned, backjump

    def _backjump(self, target: int) -> None:
        if len(self._trail_lim) <= target:
            return
        cut = self._trail_lim[target]
        val, level, reason, two_base = self._val, self._level, self._reason, self._two_base
        for falsified in self._trail[cut:]:
            val[falsified] = -1
            val[two_base - falsified] = -1
            level[falsified] = 0
            reason[falsified] = None
        del self._trail[cut:]
        del self._trail_lim[target:]
        self._qhead = cut
        if self.record_trace:
            self.trace.codes.append(target * 8 + _BACKJUMP)

    def _learn(self, learned: List[int]) -> None:
        self.stats.learned_clauses += 1
        self.stats.learned_literals += len(learned)
        self._clauses.append(learned)
        self._clause_activity[id(learned)] = self._activity_inc
        if len(learned) >= 2:
            self._watches[learned[0]].append(learned)
            self._watches[learned[1]].append(learned)
        self._assign(learned[0], learned if len(learned) >= 2 else None)
        if self.record_trace:
            self.trace.codes.append(len(learned) * 8 + _LEARN)

    def _reduce_clause_db(self) -> None:
        """Delete the lower-activity half of learned clauses not in use."""
        activity = self._clause_activity
        learned = sorted(
            (c for c in self._clauses if id(c) in activity), key=lambda c: activity[id(c)]
        )
        locked = {id(r) for r in self._reason if r is not None}
        to_delete = {
            id(c)
            for c in learned[: len(learned) // 2]
            if id(c) not in locked and len(c) > 2
        }
        if not to_delete:
            return
        self.stats.deleted_clauses += len(to_delete)
        self._clauses = [c for c in self._clauses if id(c) not in to_delete]
        for watchers in self._watches:
            watchers[:] = [c for c in watchers if id(c) not in to_delete]
        for key in to_delete:  # an id may be reused once its clause is gone
            del activity[key]

    def _pick_branch_literal(self) -> int:
        """Index of the positive literal (positive polarity first; phase
        saving is overkill here) of the unassigned variable of highest
        activity, the lowest such variable on a tie; 0 when none is left."""
        val = self._val
        activities = self._activity
        best = 0
        best_activity = -1.0
        for index in range((self._two_base >> 1) + 1, self._two_base + 1):
            if val[index] < 0 and activities[index] > best_activity:
                best, best_activity = index, activities[index]
        return best

    def _rescale_activities(self) -> float:
        activities = self._activity
        for index in range(len(activities)):
            activities[index] *= 1e-100
        self._activity_inc *= 1e-100
        return self._activity_inc

    @staticmethod
    def _luby(i: int) -> int:
        """The Luby restart sequence 1,1,2,1,1,2,4,... (1-based index)."""
        x = i - 1
        size, seq = 1, 0
        while size < x + 1:
            seq += 1
            size = 2 * size + 1
        while size - 1 != x:
            size = (size - 1) >> 1
            seq -= 1
            x %= size
        return 1 << seq


def solve_cnf(formula: CNF) -> Tuple[SolveResult, Optional[Dict[int, bool]]]:
    """Convenience wrapper: run CDCL on a formula with the default
    solver."""
    return CDCLSolver().solve(formula)
