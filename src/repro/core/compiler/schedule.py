"""Compiler Step 4: pipeline-aware scheduling and register management.

List scheduling over the block dependency graph: up to ``num_pes``
blocks issue per cycle, a block's result is architecturally visible
``pipeline_stages`` cycles after issue (plus one stall per register-bank
read conflict), and NOPs fill cycles where no block is ready —
the hazard spacing the paper's Step-4 "Reordering" performs.

Register management implements automatic write-address generation:
values take the lowest free address of their assigned bank; live-range
analysis frees addresses after the last consumer issues; when a bank
overflows, the value whose next use is furthest is spilled to shared
memory (SPILL) and reloaded lazily (RELOAD).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.arch.config import ArchConfig
from repro.core.compiler.blocks import Block, block_dependencies, topological_block_order
from repro.core.compiler.mapping import BankAssignment, issue_conflicts
from repro.core.compiler.program import InstructionKind, Program, VLIWInstruction
from repro.core.compiler.tree_map import TreePlacement, map_block_to_tree
from repro.core.dag.graph import LEAF_OPS, Dag


class _BankFile:
    """Per-bank free lists with lowest-address-first allocation.

    Residency is tracked both globally (``address_of``) and per bank
    (insertion-ordered dicts), so spill-victim enumeration scans only
    the overflowing bank instead of every resident value.
    """

    def __init__(self, num_banks: int, regs_per_bank: int):
        self.regs_per_bank = regs_per_bank
        self._free: List[List[int]] = [list(range(regs_per_bank)) for _ in range(num_banks)]
        for heap in self._free:
            heapq.heapify(heap)
        self.address_of: Dict[int, Tuple[int, int]] = {}
        self._residents: List[Dict[int, int]] = [{} for _ in range(num_banks)]
        self.spilled: Set[int] = set()

    def allocate(self, value: int, bank: int) -> Optional[Tuple[int, int]]:
        """Place a value; returns (bank, addr) or None when bank is full."""
        if not self._free[bank]:
            return None
        addr = heapq.heappop(self._free[bank])
        self.address_of[value] = (bank, addr)
        self._residents[bank][value] = addr
        self.spilled.discard(value)
        return (bank, addr)

    def release(self, value: int) -> None:
        located = self.address_of.pop(value, None)
        if located is not None:
            bank, addr = located
            heapq.heappush(self._free[bank], addr)
            del self._residents[bank][value]

    def evict(self, value: int) -> Tuple[int, int]:
        located = self.address_of.pop(value)
        bank, addr = located
        heapq.heappush(self._free[bank], addr)
        del self._residents[bank][value]
        self.spilled.add(value)
        return located

    def resident(self, value: int) -> bool:
        return value in self.address_of

    def values_in_bank(self, bank: int) -> List[int]:
        # Same enumeration order as filtering ``address_of`` insertion
        # order: values enter/leave both maps together.
        return list(self._residents[bank])


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
    deps = block_dependencies(dag, blocks)
    ordered = topological_block_order(dag, blocks, deps)
    placements: Dict[int, TreePlacement] = {
        block.block_id: map_block_to_tree(dag, block, config.tree_depth)
        for block in blocks
    }

    # Live-range analysis: last consumer index per value.
    last_use: Dict[int, int] = {}
    for index, block in enumerate(ordered):
        for value in block.inputs:
            last_use[value] = index

    banks = _BankFile(config.num_banks, config.regs_per_bank)
    program = Program(num_blocks=len(blocks))
    stats = ScheduleStats()
    next_use_index: Dict[int, int] = dict(last_use)

    def ensure_resident(
        value: int, pinned: frozenset = frozenset()
    ) -> List[VLIWInstruction]:
        """Materialize a value into its bank, spilling if needed.

        ``pinned`` holds the issuing block's inputs: they are exempt
        from victim selection whenever any other resident value can be
        evicted instead, so materializing one operand does not
        silently evict a sibling operand the COMPUTE is about to read.
        (Only when a block's same-bank inputs exceed the bank itself
        is a pinned sibling evicted — the unavoidable case.)
        """
        issued: List[VLIWInstruction] = []
        if banks.resident(value):
            return issued
        # Captured before allocate(), which clears the spilled mark:
        # this is what decides LOAD (never-resident leaf) vs RELOAD
        # (evicted value coming back from shared memory).
        was_spilled = value in banks.spilled
        bank = assignment.bank_of.get(value, value % config.num_banks)
        slot = banks.allocate(value, bank)
        while slot is None:
            victims = banks.values_in_bank(bank)
            unpinned = [v for v in victims if v not in pinned]
            victim = max(
                unpinned or victims,
                key=lambda v: next_use_index.get(v, len(ordered) + 1),
            )
            where = banks.evict(victim)
            issued.append(
                VLIWInstruction(
                    InstructionKind.SPILL,
                    reads=[where],
                    value=victim,
                )
            )
            stats.spills += 1
            slot = banks.allocate(value, bank)
        node = dag.node(value) if value in dag else None
        if node is not None and node.op in LEAF_OPS:
            issued.append(
                VLIWInstruction(
                    InstructionKind.LOAD,
                    write=slot,
                    value=value,
                )
            )
            stats.loads += 1
        elif was_spilled:
            issued.append(
                VLIWInstruction(
                    InstructionKind.RELOAD,
                    write=slot,
                    value=value,
                )
            )
            stats.reloads += 1
        return issued

    finish_cycle: Dict[int, int] = {}  # block id -> result-visible cycle
    cycle = 0

    # Ready-queue scheduling: instead of rescanning every pending block
    # each cycle (O(cycles × blocks)), blocks enter a time-ordered heap
    # the moment their last producer's finish cycle is known, then move
    # to an index-ordered ready heap as the clock reaches it.  Selection
    # order (lowest ordered-index first among ready blocks) matches the
    # original pending-list scan exactly.
    index_of = {block.block_id: i for i, block in enumerate(ordered)}
    blocked_on = [len(deps[block.block_id]) for block in ordered]
    dependents: List[List[int]] = [[] for _ in ordered]
    for i, block in enumerate(ordered):
        for dep in deps[block.block_id]:
            dependents[index_of[dep]].append(i)
    ready_when = [0] * len(ordered)
    future: List[Tuple[int, int]] = []  # (ready_at, index): deps all issued
    for i, remaining_deps in enumerate(blocked_on):
        if remaining_deps == 0:
            future.append((0, i))
    heapq.heapify(future)
    ready: List[int] = []  # index heap of blocks ready at the clock
    last_finish = 0  # pipeline-drain gate for the non-pipelined ablation
    remaining = len(ordered)

    while remaining:
        while future and future[0][0] <= cycle:
            heapq.heappush(ready, heapq.heappop(future)[1])
        issue_this_cycle: List[int] = []
        if ready and (config.pipelined_scheduling or last_finish <= cycle):
            for _ in range(min(config.num_pes, len(ready))):
                issue_this_cycle.append(heapq.heappop(ready))

        for slot, index in enumerate(issue_this_cycle):
            block = ordered[index]
            # Materialize every non-resident input: leaves arrive as
            # LOADs, spilled intermediates come back as RELOADs (they
            # used to be silently read through a stale-address
            # fallback with no instruction or cycle/energy cost).
            # Pinning the block's own inputs keeps one operand's
            # materialization from evicting a sibling operand.
            block_inputs = frozenset(block.inputs)
            for value in block.inputs:
                if not banks.resident(value):
                    program.instructions.extend(
                        ensure_resident(value, block_inputs)
                    )
            conflicts = issue_conflicts(assignment, block)
            reads = [
                banks.address_of.get(
                    value, (assignment.bank_of.get(value, 0), 0)
                )
                for value in block.inputs
            ]
            out_bank = assignment.bank_of.get(block.output, block.output % config.num_banks)
            out_slot = banks.allocate(block.output, out_bank)
            while out_slot is None:
                victims = banks.values_in_bank(out_bank)
                victim = max(victims, key=lambda v: next_use_index.get(v, len(ordered) + 1))
                where = banks.evict(victim)
                program.instructions.append(
                    VLIWInstruction(
                        InstructionKind.SPILL,
                        reads=[where],
                        value=victim,
                    )
                )
                stats.spills += 1
                out_slot = banks.allocate(block.output, out_bank)
            instruction = VLIWInstruction(
                InstructionKind.COMPUTE,
                block_id=block.block_id,
                reads=reads,
                write=out_slot,
                tree_config=placements[block.block_id].configs,
                issue_cycle=cycle,
                pe=slot,
                leaf_operands=dict(placements[block.block_id].leaf_operands),
                output_value=block.output,
            )
            program.instructions.append(instruction)
            finish = cycle + config.pipeline_stages + conflicts
            finish_cycle[block.block_id] = finish
            if finish > last_finish:
                last_finish = finish
            for dependent in dependents[index]:
                blocked_on[dependent] -= 1
                if finish > ready_when[dependent]:
                    ready_when[dependent] = finish
                if blocked_on[dependent] == 0:
                    heapq.heappush(future, (ready_when[dependent], dependent))
            remaining -= 1
            # Free dead values.
            for value in block.inputs:
                if last_use.get(value) == index:
                    banks.release(value)

        stats.pe_issue_slots += config.num_pes
        if not issue_this_cycle:
            program.instructions.append(
                VLIWInstruction(InstructionKind.NOP, issue_cycle=cycle)
            )
            stats.nops += 1
        cycle += 1

    stats.cycles = max(finish_cycle.values(), default=0)
    program.root_value = dag.root
    return program, stats
