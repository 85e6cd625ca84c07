"""Compiler Step 4: pipeline-aware scheduling and register management.

List scheduling over the block dependency graph: up to ``num_pes``
blocks issue per cycle, a block's result is architecturally visible
``pipeline_stages`` cycles after issue (plus one stall per register-bank
read conflict), and NOPs fill cycles where no block is ready —
the hazard spacing the paper's Step-4 "Reordering" performs.

Register management implements automatic write-address generation:
values take the lowest free address of their assigned bank.  There is
one liveness rule: a value keeps its register until its last reader has
*issued*.  Readers are counted, not indexed — issue order is not the
topological block order, so "the reader with the highest index has
issued" does not mean every reader has.  When a bank overflows, the
resident whose *last* reader is furthest in block order is spilled to
shared memory (SPILL) and comes back when a reader next needs it
(RELOAD); every emitted program passes
:func:`repro.analysis.verifier.verify_program`.  Whether a
non-resident operand is a LOAD (a DAG leaf) or a RELOAD is the DAG
plan's leaf flag.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.arch.config import ArchConfig
from repro.core.compiler.blocks import Block, block_dependencies, topological_block_order
from repro.core.compiler.mapping import BankAssignment
from repro.core.compiler.program import COMPUTE, LOAD, NOP, RELOAD, SPILL, Program
from repro.core.compiler.tree_map import place_blocks
from repro.core.dag.graph import Dag


@dataclass
class ScheduleStats:
    cycles: int = 0
    nops: int = 0
    spills: int = 0
    reloads: int = 0
    loads: int = 0
    pe_issue_slots: int = 0

    @property
    def issue_efficiency(self) -> float:
        total = self.pe_issue_slots
        return 0.0 if total == 0 else 1.0 - self.nops / total


def schedule_program(
    dag: Dag,
    blocks: Sequence[Block],
    assignment: BankAssignment,
    config: ArchConfig,
) -> Tuple[Program, ScheduleStats]:
    """Emit the scheduled VLIW program for a compiled DAG.

    With ``config.pipelined_scheduling`` off (ablation), dependent
    blocks are not interleaved: each block waits for full pipeline
    drain, modeling a naive in-order issue.
    """
    plan = dag.plan()
    leaf = plan.leaf
    deps = block_dependencies(dag, blocks)
    ordered = topological_block_order(dag, blocks, deps)
    bank_of = assignment.bank_of
    # A block's stalls do not depend on when it issues: one per operand
    # read from a bank another operand of the block already reads.
    stalls = [len(set(b.inputs)) - len({bank_of[v] for v in b.inputs}) for b in ordered]

    # Live ranges.  Blocks issue lowest-index-first among those *ready*,
    # which is not ``ordered`` order, so liveness is a count of readers
    # still to issue; the index of a value's last reader only ranks
    # spill victims (the root has no reader and ranks furthest).
    readers_left: Dict[int, int] = {}
    last_reader: Dict[int, int] = {dag.root: len(ordered)}
    for index, block in enumerate(ordered):
        for value in block.inputs:
            readers_left[value] = readers_left.get(value, 0) + 1
            last_reader[value] = index

    # The register file: per bank, a heap of free addresses (ascending
    # is already heap order) and the residents in allocation order, so
    # spill victims are enumerated from the overflowing bank alone; and
    # every resident's (bank, address).
    free = [list(range(config.regs_per_bank)) for _ in range(config.num_banks)]
    residents: List[Dict[int, int]] = [{} for _ in range(config.num_banks)]
    address_of: Dict[int, Tuple[int, int]] = {}
    # The stream is written straight into the program's columns: a
    # COMPUTE's tree configs and leaf operands by ``place_block``.
    program = Program(root_value=dag.root, dag=dag)
    append = program.append
    place_block = place_blocks(plan, ordered, config.tree_depth, program)
    stats = ScheduleStats()
    heappush, heappop = heapq.heappush, heapq.heappop

    def place(value: int, keep: Sequence[int]) -> Tuple[int, int]:
        """Claim the lowest free register of the value's bank; while the
        bank is full, spill the resident whose last reader is furthest.

        ``keep`` (the issuing block's inputs) is spared while any other
        resident can go instead, so materializing one operand does not
        evict a sibling the COMPUTE is about to read.  Only a block with
        more same-bank inputs than the bank has registers loses a kept
        sibling: the unavoidable, bank-starved case.
        """
        bank = bank_of[value]
        vacant, in_bank = free[bank], residents[bank]
        if not vacant:
            keep = set(keep)
        while not vacant:
            spare = [v for v in in_bank if v not in keep]
            victim = max(spare or in_bank, key=last_reader.__getitem__)
            where = address_of.pop(victim)
            heappush(vacant, in_bank.pop(victim))
            append(SPILL, reads=(where,), value=victim)
        addr = in_bank[value] = heappop(vacant)
        slot = address_of[value] = (bank, addr)
        return slot

    # Ready-queue scheduling: a block enters the ``future`` heap of
    # (ready_at, index) the moment its last producer's finish cycle is
    # known and moves to the index-ordered ``ready`` heap as the clock
    # reaches it, so no cycle rescans every pending block.  (The initial
    # ``future`` is ascending, which is already heap order.)
    index_of = {block.block_id: i for i, block in enumerate(ordered)}
    blocked_on = [len(deps[block.block_id]) for block in ordered]
    dependents: List[List[int]] = [[] for _ in ordered]
    for i, block in enumerate(ordered):
        for dep in deps[block.block_id]:
            dependents[index_of[dep]].append(i)
    ready_when = [0] * len(ordered)
    future = [(0, i) for i, waiting in enumerate(blocked_on) if not waiting]
    ready: List[int] = []
    cycle = 0

    # ``stats.cycles`` runs as the cycle the latest result is visible:
    # the schedule's length, and the drain gate of the non-pipelined
    # ablation.  An unissued block whose producers have all issued sits
    # in a heap, so both are empty exactly when every block has issued.
    num_pes, pipelined = config.num_pes, config.pipelined_scheduling
    stages = config.pipeline_stages
    while future or ready:
        while future and future[0][0] <= cycle:
            heappush(ready, heappop(future)[1])
        issuing = 0
        if pipelined or stats.cycles <= cycle:
            issuing = min(num_pes, len(ready))
        for pe in range(issuing):
            index = heappop(ready)
            block = ordered[index]
            inputs = block.inputs
            # A non-resident input is a leaf (LOAD) or a spilled
            # intermediate (RELOAD) and nothing else: a value is produced
            # before any reader is ready and keeps its register until
            # the last one has issued.
            for value in inputs:
                if value in address_of:
                    continue
                append(LOAD if leaf[value] else RELOAD, write=place(value, inputs), value=value)
            # The fallback address is the bank-starved stale read: a kept
            # sibling ``place`` had to evict (a verifier *warning*;
            # execution reads operands by value id).  Reads are taken
            # before the write-back slot is claimed, so an input spilled
            # to make room for the output is still read at its old
            # address, which holds its bits until the write lands.  The
            # tree goes into the program after ``place``'s SPILLs.
            reads = [address_of.get(v) or (bank_of[v], 0) for v in inputs]
            write = place(block.output, ())
            place_block(index)
            append(COMPUTE, block.block_id, reads, write, cycle, pe, output_value=block.output)
            finish = cycle + stages + stalls[index]
            if finish > stats.cycles:
                stats.cycles = finish
            for dependent in dependents[index]:
                blocked_on[dependent] -= 1
                if finish > ready_when[dependent]:
                    ready_when[dependent] = finish
                if not blocked_on[dependent]:
                    heappush(future, (ready_when[dependent], dependent))
            for value in inputs:
                left = readers_left[value] = readers_left[value] - 1
                if not left and value in address_of:
                    bank = address_of.pop(value)[0]
                    heappush(free[bank], residents[bank].pop(value))

        stats.pe_issue_slots += num_pes
        if not issuing:
            append(NOP, issue_cycle=cycle)
        cycle += 1

    stats.nops, stats.spills, stats.reloads, stats.loads = map(
        program.kinds.count, (NOP, SPILL, RELOAD, LOAD)
    )
    return program, stats
