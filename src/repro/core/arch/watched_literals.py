"""Watched-literals SRAM layout as a cost table (paper Sec. V-D, Fig. 6(e)).

A head-pointer table indexed by literal id gives O(1) access to the
start of each watch list; clause records carry a next-watch pointer, so
lists thread through the linear SRAM address space.  Traversing a list
on assignment touches only the clauses watching that literal —
transforming BCP from a database scan into selective memory accesses.

With ``linked_list_layout`` disabled (ablation), every assignment scans
the full clause region instead, reproducing the ~22% runtime cost the
paper attributes to the memory layout.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from repro.core.arch.config import ArchConfig
from repro.logic.cnf import CNF

#: (clauses on the list, access cycles, ((bank, reads), ...) in traversal order)
WatchCost = Tuple[int, int, Tuple[Tuple[int, int], ...]]


def watch_costs(formula: CNF, config: ArchConfig) -> Tuple[Dict[int, WatchCost], WatchCost]:
    """What falsifying each literal costs the watched-literals unit.

    Returns ``(table, unwatched)``: ``table[literal]`` for every literal
    some clause watches, ``unwatched`` for all the others.  The lists
    are static during a replay (the CDCL trace carries no watch moves),
    so both are pure functions of the clause layout:

    * Clauses are stored back to back, each as its literals plus one
      next-watch pointer per watched literal; the first two literals of
      a clause are watched (a unit clause watches its one).
    * Linked layout: the head pointer names the newest clause watching
      the literal and every record points at the next older one, so a
      traversal costs the head lookup plus one hop per clause and reads
      each record's bank (``address % sram_banks``), newest first.
    * Flat layout: every assignment scans the whole clause region, 16
      words per read, at ``words // (2 * sram_banks)`` cycles (dual-ported
      banks) — watched or not — and finds the same clauses.
    """
    banks = config.sram_banks
    lists: Dict[int, List[int]] = {}  # literal -> record addresses, oldest first
    words = 0
    for clause in formula.clauses:
        watched = clause.literals[:2]
        for literal in watched:
            lists.setdefault(literal, []).append(words)
        words += len(clause.literals) + len(watched)
    if config.linked_list_layout:
        table = {
            literal: (
                len(addresses),
                1 + len(addresses),
                tuple(Counter(a % banks for a in reversed(addresses)).items()),
            )
            for literal, addresses in lists.items()
        }
        return table, (0, 1, ())
    cycles = max(1, words // (2 * banks))
    scan = tuple(Counter(w % banks for w in range(0, max(words, 1), 16)).items())
    table = {literal: (len(a), cycles, scan) for literal, a in lists.items()}
    return table, (0, cycles, scan)
