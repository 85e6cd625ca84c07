"""Watched-literals unit with linked-list SRAM layout (paper Sec. V-D).

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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.arch.config import ArchConfig
from repro.core.arch.memory import SramBanks
from repro.logic.cnf import CNF


@dataclass
class WlStats:
    head_lookups: int = 0
    list_traversal_steps: int = 0
    clause_fetches: int = 0
    full_scans: int = 0
    sram_words_touched: int = 0
    local_misses: int = 0


@dataclass
class _ClauseRecord:
    address: int
    literals: Tuple[int, ...]
    next_watch: Dict[int, Optional[int]]  # watched literal -> next clause addr
    resident: bool = True  # cached in local SRAM vs remote scratchpad/DRAM


@dataclass(frozen=True)
class WatchSummary:
    """Precomputed outcome of traversing one literal's watch list.

    Watch lists are static between :meth:`WatchedLiteralsUnit.load_formula`
    calls, so the clause list, cycle cost and per-bank SRAM read pattern
    of an assignment are pure functions of the literal — computed once,
    then replayed as O(1) aggregate accounting per event.
    """

    clauses: Tuple[Tuple[int, ...], ...]
    access_cycles: int
    words_touched: int
    misses: int
    bank_reads: Tuple[Tuple[int, int], ...]  # (bank, words) pairs
    full_scan: bool = False


class WatchedLiteralsUnit:
    """Hardware watch-list indexing over a clause database."""

    def __init__(
        self,
        config: ArchConfig,
        sram: Optional[SramBanks] = None,
        resident_fraction: float = 1.0,
    ):
        self.config = config
        self.sram = sram
        self.resident_fraction = resident_fraction
        self.stats = WlStats()
        self._head: Dict[int, Optional[int]] = {}
        self._records: Dict[int, _ClauseRecord] = {}
        self._next_address = 0
        self._num_clauses = 0
        self._summaries: Dict[int, WatchSummary] = {}
        self._scan_banks: Optional[Tuple[Tuple[int, int], ...]] = None

    def load_formula(self, formula: CNF) -> None:
        """Build head-pointer table and linked clause records.

        The first two literals of each clause are watched (clauses
        narrower than 2 watch everything they have).  Clauses beyond
        the resident fraction model the hierarchical scheme where cold
        clauses live in remote scratchpad/DRAM.
        """
        self._head = {}
        self._records = {}
        self._next_address = 0
        self._num_clauses = len(formula.clauses)
        self._summaries = {}
        self._scan_banks = None
        resident_limit = int(self._num_clauses * self.resident_fraction)
        for index, clause in enumerate(formula.clauses):
            watched = clause.literals[:2] if len(clause) >= 2 else clause.literals
            record = _ClauseRecord(
                address=self._next_address,
                literals=clause.literals,
                next_watch={},
                resident=index < resident_limit,
            )
            for lit in watched:
                record.next_watch[lit] = self._head.get(lit)
                self._head[lit] = record.address
            self._records[record.address] = record
            # Clause storage: literals + one next pointer per watch.
            self._next_address += len(clause.literals) + len(watched)

    def summary_for(self, literal: int) -> WatchSummary:
        """The (cached) traversal outcome for ``literal`` becoming false.

        Pure: computes the clause list, cycle cost and SRAM read pattern
        without charging any statistics or energy — callers account via
        :meth:`charge` (single event) or, like the accelerator's replay,
        flush the summed bank reads with one ``sram.read_batch``.
        """
        summary = self._summaries.get(literal)
        if summary is not None:
            return summary
        banks = self.config.sram_banks
        if not self.config.linked_list_layout:
            clauses = tuple(
                record.literals
                for record in self._records.values()
                if literal in record.literals[:2]
            )
            words = self._next_address
            if self._scan_banks is None:
                pattern: Dict[int, int] = {}
                for i in range(0, max(words, 1), 16):
                    bank = (i % banks) % max(banks, 1)
                    pattern[bank] = pattern.get(bank, 0) + 1
                self._scan_banks = tuple(pattern.items())
            summary = WatchSummary(
                clauses=clauses,
                # Scanning cost: clause database size / bank parallelism.
                access_cycles=max(1, words // (2 * banks)),
                words_touched=words,
                misses=0,
                bank_reads=self._scan_banks,
                full_scan=True,
            )
        else:
            address = self._head.get(literal)
            clauses_list: List[Tuple[int, ...]] = []
            words = 0
            misses = 0
            reads: Dict[int, int] = {}
            while address is not None:
                record = self._records[address]
                words += len(record.literals) + 1
                bank = (address % banks) % max(banks, 1)
                reads[bank] = reads.get(bank, 0) + 1
                if not record.resident:
                    misses += 1
                clauses_list.append(record.literals)
                address = record.next_watch.get(literal)
            summary = WatchSummary(
                clauses=tuple(clauses_list),
                # Head-pointer access, one hop per clause, DRAM per miss.
                access_cycles=1
                + len(clauses_list)
                + misses * self.config.dram_latency_cycles,
                words_touched=words,
                misses=misses,
                bank_reads=tuple(reads.items()),
            )
        self._summaries[literal] = summary
        return summary

    def charge(self, summary: WatchSummary) -> None:
        """Account one assignment's traversal (stats + SRAM energy)."""
        num = len(summary.clauses)
        if summary.full_scan:
            self.stats.full_scans += 1
        else:
            self.stats.head_lookups += 1
            self.stats.list_traversal_steps += num
            self.stats.local_misses += summary.misses
        self.stats.clause_fetches += num
        self.stats.sram_words_touched += summary.words_touched
        if self.sram:
            self.sram.read_batch(dict(summary.bank_reads))

    def on_assignment(self, literal: int) -> Tuple[List[Tuple[int, ...]], int]:
        """Clauses to inspect when ``literal`` becomes false.

        Returns (clauses, access_cycles).  With the linked-list layout a
        head lookup plus one hop per clause on the watch list; without
        it (ablation) a full scan of the clause database.
        """
        summary = self.summary_for(literal)
        self.charge(summary)
        return list(summary.clauses), summary.access_cycles

    def watch_list_length(self, literal: int) -> int:
        length = 0
        address = self._head.get(literal)
        while address is not None:
            length += 1
            address = self._records[address].next_watch.get(literal)
        return length
