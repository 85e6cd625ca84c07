"""Planted schedule bugs: mutation tests for the static verifier.

A checker that has never caught a bug proves nothing.  Each entry here
takes a *correct* compiled program and introduces one realistic
compiler defect — including ``stale-reload``, a faithful reconstruction
of the pre-PR 5 scheduler bug where a spilled intermediate was read
through its stale register address with no RELOAD — and
``tests/analysis/test_verifier.py`` requires :func:`verify_program` to
flag every single one.  If a future verifier refactor goes blind to a
bug class, the suite fails, not a production compile.

Mutations are deterministic (first eligible site in stream order),
edit the fresh copy of the stream ``program.instructions`` builds and
convert it back into a new program (the input is never touched), and raise
:class:`MutationNotApplicable` when the program lacks the needed shape
(e.g. spill mutations on a spill-free schedule) so a silently vacuous
mutation test cannot pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.verifier import INVARIANTS, operand_values
from repro.core.compiler.program import InstructionKind, Program, VLIWInstruction
from repro.core.compiler.schedule import ScheduleStats


class MutationNotApplicable(ValueError):
    """The program has no site where this mutation can be planted."""


@dataclass(frozen=True)
class Mutation:
    """One named, plantable compiler defect."""

    name: str
    invariant: str  # the invariant family expected to flag it
    description: str
    apply: Callable[[Program, ScheduleStats], Tuple[Program, ScheduleStats]]

    def __post_init__(self) -> None:
        if self.invariant not in INVARIANTS:
            raise ValueError(
                f"mutation {self.name!r} expects unknown invariant {self.invariant!r}"
            )


def _rebuild(program: Program, instructions: List[VLIWInstruction]) -> Program:
    """``program`` with an edited stream; the DAG is shared (mutations
    never touch it)."""
    return Program(instructions, program.root_value, program.dag)


def _read_after(instructions: List[VLIWInstruction], site: int, value: int) -> bool:
    """Does any COMPUTE after ``site`` read ``value``?"""
    for instruction in instructions[site + 1 :]:
        if instruction.kind is InstructionKind.COMPUTE:
            if value in instruction.leaf_operands.values():
                return True
    return False


def _reload_site(instructions: List[VLIWInstruction], value: int, after: int) -> Optional[int]:
    for index in range(after + 1, len(instructions)):
        instruction = instructions[index]
        if (
            instruction.kind is InstructionKind.RELOAD
            and instruction.value == value
        ):
            return index
    return None


def _stale_reload(program: Program, stats: ScheduleStats):
    """The pre-PR 5 bug: drop a RELOAD whose value is read later, so
    the consumer reads the spilled value's stale register address."""
    instructions = program.instructions
    for index, instruction in enumerate(instructions):
        if instruction.kind is not InstructionKind.RELOAD:
            continue
        if _read_after(instructions, index, instruction.value):
            del instructions[index]
            stats = replace(stats, reloads=stats.reloads - 1)
            return _rebuild(program, instructions), stats
    raise MutationNotApplicable("no RELOAD feeding a later compute")


def _drop_spill(program: Program, stats: ScheduleStats):
    """Delete a SPILL whose value is later RELOADed: the reload now
    pairs with nothing (and the register was never freed)."""
    instructions = program.instructions
    for index, instruction in enumerate(instructions):
        if instruction.kind is not InstructionKind.SPILL:
            continue
        if _reload_site(instructions, instruction.value, index) is not None:
            del instructions[index]
            stats = replace(stats, spills=stats.spills - 1)
            return _rebuild(program, instructions), stats
    raise MutationNotApplicable("no SPILL with a matching later RELOAD")


def _stale_address(program: Program, stats: ScheduleStats):
    """Retarget one operand read of a COMPUTE to a wrong register, as
    if allocation moved the value but the consumer kept the old
    address."""
    instructions = program.instructions
    for instruction in instructions:
        if instruction.kind is not InstructionKind.COMPUTE:
            continue
        if not instruction.reads:
            continue
        bank, addr = instruction.reads[0]
        instruction.reads[0] = (bank, addr + 1)
        return _rebuild(program, instructions), stats
    raise MutationNotApplicable("no COMPUTE with register reads")


def _hazard(program: Program, stats: ScheduleStats):
    """Collapse the pipeline spacing: a dependent COMPUTE issues the
    same cycle its producer issues, before the result is visible."""
    instructions = program.instructions
    produced_at: Dict[int, int] = {}
    for instruction in instructions:
        if instruction.kind is not InstructionKind.COMPUTE:
            continue
        for value in operand_values(instruction):
            if value in produced_at and produced_at[value] < instruction.issue_cycle:
                instruction.issue_cycle = produced_at[value]
                return _rebuild(program, instructions), stats
        produced_at[instruction.output_value] = instruction.issue_cycle
    raise MutationNotApplicable("no dependent compute pair")


def _swap_dependents(program: Program, stats: ScheduleStats):
    """Reorder a producer COMPUTE after its consumer in the stream."""
    instructions = program.instructions
    produced_at: Dict[int, int] = {}
    for index, instruction in enumerate(instructions):
        if instruction.kind is not InstructionKind.COMPUTE:
            continue
        for value in operand_values(instruction):
            producer = produced_at.get(value)
            if producer is not None:
                instructions[producer], instructions[index] = (
                    instructions[index],
                    instructions[producer],
                )
                return _rebuild(program, instructions), stats
        produced_at[instruction.output_value] = index
    raise MutationNotApplicable("no dependent compute pair")


def _clobber_write(program: Program, stats: ScheduleStats):
    """Point a LOAD's write at a register already holding a live value
    another instruction still reads."""
    instructions = program.instructions
    for index, instruction in enumerate(instructions):
        if instruction.kind is not InstructionKind.COMPUTE:
            continue
        operands = operand_values(instruction)
        if len(operands) < 2 or len(set(instruction.reads)) < 2:
            continue
        # Redirect the most recent earlier LOAD/RELOAD writing operand
        # B's register onto operand A's register: A is clobbered while
        # still live.
        target = instruction.reads[0]
        for back in range(index - 1, -1, -1):
            earlier = instructions[back]
            if (
                earlier.kind in (InstructionKind.LOAD, InstructionKind.RELOAD)
                and earlier.write is not None
                and earlier.write != target
            ):
                earlier.write = target
                return _rebuild(program, instructions), stats
    raise MutationNotApplicable("no LOAD/RELOAD before a two-operand compute")


def _bank_overflow(program: Program, stats: ScheduleStats):
    """Write outside the register file: address == regs_per_bank."""
    instructions = program.instructions
    for instruction in instructions:
        if instruction.write is not None:
            bank, _addr = instruction.write
            # regs_per_bank is a verify-time parameter; a huge address
            # is out of range for every config in the corpus.
            instruction.write = (bank, 1 << 20)
            return _rebuild(program, instructions), stats
    raise MutationNotApplicable("no instruction writes a register")


def _time_travel(program: Program, stats: ScheduleStats):
    """Break cycle monotonicity: a later instruction issues earlier."""
    instructions = program.instructions
    cycled = [i for i in instructions if i.issue_cycle >= 1]
    if len(cycled) < 2:
        raise MutationNotApplicable("fewer than two cycled instructions")
    # Rewind the last cycled instruction to cycle 0: an earlier
    # instruction already issued at >= 1, so the clock runs backwards.
    cycled[-1].issue_cycle = 0
    return _rebuild(program, instructions), stats


def _stats_drift(program: Program, stats: ScheduleStats):
    """Corrupt the reported counters without touching the stream."""
    return _rebuild(program, program.instructions), replace(stats, spills=stats.spills + 1)


#: The full catalog, keyed by name.  ``invariant`` records which
#: invariant family must appear in the findings for the mutation to
#: count as caught.
CATALOG: Dict[str, Mutation] = {
    mutation.name: mutation
    for mutation in (
        Mutation(
            "stale-reload",
            "def-before-use",
            "drop a RELOAD feeding a later compute (the pre-PR 5 "
            "stale-address scheduler bug)",
            _stale_reload,
        ),
        Mutation(
            "drop-spill",
            "spill-reload-pairing",
            "delete a SPILL whose value is later RELOADed",
            _drop_spill,
        ),
        Mutation(
            "stale-address",
            "def-before-use",
            "retarget one COMPUTE operand read to a wrong register",
            _stale_address,
        ),
        Mutation(
            "hazard",
            "issue-order",
            "issue a dependent compute in its producer's cycle",
            _hazard,
        ),
        Mutation(
            "swap-dependents",
            "issue-order",
            "reorder a producer compute after its consumer",
            _swap_dependents,
        ),
        Mutation(
            "clobber-write",
            "bank-capacity",
            "redirect a LOAD/RELOAD write onto a live register",
            _clobber_write,
        ),
        Mutation(
            "bank-overflow",
            "bank-capacity",
            "write an address outside the register file",
            _bank_overflow,
        ),
        Mutation(
            "time-travel",
            "cycle-monotonic",
            "give a later instruction an earlier issue cycle",
            _time_travel,
        ),
        Mutation(
            "stats-drift",
            "stats-consistency",
            "report one more spill than the stream contains",
            _stats_drift,
        ),
    )
}


def apply_mutation(
    name: str, program: Program, stats: ScheduleStats
) -> Tuple[Program, ScheduleStats]:
    """Plant the named bug in a copy of ``program``.

    Raises ``KeyError`` on unknown names and
    :class:`MutationNotApplicable` when the program lacks the shape
    the mutation needs (callers pick a spill-heavy program for the
    spill mutations).
    """
    return CATALOG[name].apply(program, stats)
