"""Static program verifier: abstract interpretation over compiled VLIW.

PR 5 fixed a scheduler bug where spilled intermediates were silently
read from stale register addresses — a class of compiler bug that
execution-time goldens only catch after the fact, one kernel at a time.
This module catches the whole class at compile time, for every kernel:
:func:`verify_program` walks the instruction stream of a compiled
:class:`~repro.core.compiler.program.Program` and tracks an abstract
machine state (per-bank residency, spill/ghost sets, produced values,
the issue clock) *without executing anything*.  Six invariant families
are checked:

``def-before-use``
    Every COMPUTE operand is resident in a register bank at the address
    the instruction reads; a spilled value must come back through a
    RELOAD before it is read again (the pre-PR 5 stale-address bug).
``spill-reload-pairing``
    SPILL moves a value that is actually resident (at the address the
    instruction names); RELOAD brings back a value that was actually
    spilled; a RELOAD of a value with no later use is flagged as dead.
``bank-capacity``
    Addresses stay inside ``[0, regs_per_bank)``, banks inside
    ``[0, num_banks)``, writes never clobber a register still holding a
    live value, and per-bank occupancy never exceeds capacity.
``issue-order``
    A COMPUTE's interior operands are produced by an earlier COMPUTE,
    and only become readable ``pipeline_stages`` cycles after the
    producer issued (the hazard spacing the scheduler must honor).
``cycle-monotonic``
    Issue cycles never decrease along the stream, and every cycle up to
    the last issue is accounted for by either a compute issue or a NOP.
``stats-consistency``
    The :class:`~repro.core.compiler.schedule.ScheduleStats` the
    compiler reported match the instruction stream: spill/reload/load/
    NOP counts, the critical-path cycle count, and the PE issue-slot
    accounting.

One deliberate semantic subtlety: operand reads happen at issue, the
write-back lands ``pipeline_stages`` later, so a register that was just
SPILLed to make room for the *same* instruction's output is still
readable until that write lands.  The verifier models these as *ghost*
reads (the value's bits survive at its old address until something
writes over it) and accepts them — they are scheduler-designed, not
stale reads.  A read of a spilled value whose old register *was*
overwritten is the real bug and is reported.

A second subtlety separates "impossible to satisfy" from "possible but
missed".  When a single block's distinct same-bank operands exceed
``regs_per_bank``, the scheduler *cannot* keep them all resident — its
pinning logic documents this as the unavoidable case and evicts a
pinned sibling, whose read then goes through the stale fallback
address.  Execution stays functionally correct (the functional model
reads by value id), so the verifier reports these *bank-starved* reads
as warnings (counted in ``VerifyReport.starved_reads``), reserving the
error severity for reads the scheduler could have satisfied — the
pre-PR 5 class, where a RELOAD was owed and missing.

Findings are structured :class:`Finding` records collected in a
:class:`VerifyReport`; nothing raises unless a caller opts into
:func:`check_artifact` / :class:`ProgramVerificationError`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.arch.config import ArchConfig, DEFAULT_CONFIG
from repro.core.compiler.program import InstructionKind, Program
from repro.core.compiler.schedule import ScheduleStats

#: Invariant identifiers, in report order.
INVARIANTS: Tuple[str, ...] = (
    "def-before-use",
    "spill-reload-pairing",
    "bank-capacity",
    "issue-order",
    "cycle-monotonic",
    "stats-consistency",
)

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One invariant violation at one instruction site.

    ``site`` is the index into ``program.instructions`` (-1 for
    program-level findings with no single site); ``invariant`` is one
    of :data:`INVARIANTS`; ``hint`` says what a fix usually looks like.
    """

    severity: str  # ERROR | WARNING
    invariant: str
    site: int
    message: str
    hint: str = ""

    def describe(self) -> str:
        where = f"@{self.site}" if self.site >= 0 else "@program"
        text = f"{self.severity}[{self.invariant}] {where}: {self.message}"
        if self.hint:
            text += f"  (hint: {self.hint})"
        return text


@dataclass
class VerifyReport:
    """Everything :func:`verify_program` learned about one program."""

    findings: List[Finding] = field(default_factory=list)
    instructions: int = 0
    computes: int = 0
    ghost_reads: int = 0  # designed read-under-eviction sites (not findings)
    starved_reads: int = 0  # bank-starved fallback reads (warnings)
    checked: Tuple[str, ...] = INVARIANTS

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == WARNING]

    @property
    def ok(self) -> bool:
        """True when no *error* findings exist (warnings don't fail)."""
        return not self.errors

    def by_invariant(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.invariant] = counts.get(finding.invariant, 0) + 1
        return counts

    def describe(self) -> List[str]:
        starved = (
            f", {self.starved_reads} starved reads" if self.starved_reads else ""
        )
        lines = [
            f"verified {self.instructions} instructions "
            f"({self.computes} computes, {self.ghost_reads} ghost reads"
            f"{starved}): "
            + ("OK" if self.ok else f"{len(self.errors)} error(s)")
        ]
        lines.extend(finding.describe() for finding in self.findings)
        return lines


class ProgramVerificationError(RuntimeError):
    """A compiled program failed static verification.

    Raised by the opt-in gate (``ReasonSession(verify=True)`` or a
    per-request ``verify=True``), never by :func:`verify_program`
    itself.  Carries the full report.
    """

    def __init__(self, report: VerifyReport, context: str = ""):
        self.report = report
        head = "compiled program failed static verification"
        if context:
            head += f" ({context})"
        super().__init__("\n".join([head] + [f.describe() for f in report.errors]))


_MEMORY_KINDS = (
    InstructionKind.LOAD,
    InstructionKind.STORE,
    InstructionKind.SPILL,
    InstructionKind.RELOAD,
)


def _operand_values(instruction) -> List[int]:
    """Distinct DAG value ids one COMPUTE reads, deterministic order."""
    return sorted(set(instruction.leaf_operands.values()))


def verify_program(
    program: Program,
    config: ArchConfig = DEFAULT_CONFIG,
    stats: Optional[ScheduleStats] = None,
) -> VerifyReport:
    """Statically check a compiled program against the schedule invariants.

    Pure function of the instruction stream plus the architecture
    bounds; nothing executes and the program is not modified.  Pass the
    compiler's :class:`~repro.core.compiler.schedule.ScheduleStats` to
    additionally cross-check its counters against the stream
    (``stats-consistency``); without it those checks are skipped.
    """
    report = VerifyReport(instructions=len(program.instructions))
    out = report.findings
    regs = config.regs_per_bank
    num_banks = config.num_banks
    stages = config.pipeline_stages

    instructions = program.instructions

    # Pre-passes over the stream: the producing COMPUTE of every value,
    # and each value's last reading site (release modeling mirrors the
    # scheduler's live-range analysis, but derived purely from the
    # stream so a mutated program is judged on what it actually says).
    producer_site: Dict[int, int] = {}
    last_read: Dict[int, int] = {}
    for index, instruction in enumerate(instructions):
        if instruction.kind is InstructionKind.COMPUTE:
            producer_site.setdefault(instruction.output_value, index)
            for value in _operand_values(instruction):
                last_read[value] = index

    # Abstract machine state.
    resident: Dict[int, Tuple[int, int]] = {}  # value -> (bank, addr)
    slots: Dict[Tuple[int, int], int] = {}  # (bank, addr) -> value
    spilled: Set[int] = set()
    ghost: Dict[int, Tuple[int, int]] = {}  # spilled value -> old slot
    ghost_by_slot: Dict[Tuple[int, int], int] = {}
    home_bank: Dict[int, int] = {}  # value -> bank it last lived in
    defined: Set[int] = set()  # ever LOADed or COMPUTEd
    compute_issue: Dict[int, int] = {}  # value -> producer issue cycle
    last_cycle = -1
    compute_cycles: Set[int] = set()
    nop_cycles: Set[int] = set()
    max_finish = 0

    def slot_ok(site: int, slot: Optional[Tuple[int, int]], what: str) -> bool:
        """Range-check one (bank, addr); report under bank-capacity."""
        if slot is None:
            out.append(
                Finding(
                    ERROR,
                    "bank-capacity",
                    site,
                    f"{what} has no register slot",
                    "the scheduler must allocate before emitting",
                )
            )
            return False
        bank, addr = slot
        if not (0 <= bank < num_banks) or not (0 <= addr < regs):
            out.append(
                Finding(
                    ERROR,
                    "bank-capacity",
                    site,
                    f"{what} targets ({bank}, {addr}) outside the "
                    f"{num_banks}x{regs} register file",
                    "allocation must come from the per-bank free list",
                )
            )
            return False
        return True

    def write_value(site: int, value: int, slot: Tuple[int, int], what: str) -> None:
        """Model a register write: clobber checks, then update state."""
        occupant = slots.get(slot)
        if occupant is not None and occupant != value:
            out.append(
                Finding(
                    ERROR,
                    "bank-capacity",
                    site,
                    f"{what} of value {value} overwrites register {slot} "
                    f"still holding live value {occupant}",
                    "only free or dead registers may be reallocated; "
                    "spill or release the occupant first",
                )
            )
            resident.pop(occupant, None)
        stale = ghost_by_slot.pop(slot, None)
        if stale is not None:
            ghost.pop(stale, None)
        previous = resident.get(value)
        if previous is not None and previous != slot:
            slots.pop(previous, None)
        resident[value] = slot
        slots[slot] = value
        home_bank[value] = slot[0]
        spilled.discard(value)
        if value in ghost:
            ghost_by_slot.pop(ghost.pop(value), None)
        defined.add(value)
        # Occupancy by construction equals len of per-bank slots; the
        # addr range check above already bounds it at regs_per_bank,
        # but a direct count catches pathological duplicate addresses.
        bank = slot[0]
        occupancy = sum(1 for (b, _a) in slots if b == bank)
        if occupancy > regs:
            out.append(
                Finding(
                    ERROR,
                    "bank-capacity",
                    site,
                    f"bank {bank} holds {occupancy} live values "
                    f"(capacity {regs})",
                    "spill before allocating into a full bank",
                )
            )

    def release(value: int) -> None:
        located = resident.pop(value, None)
        if located is not None:
            slots.pop(located, None)

    for index, instruction in enumerate(instructions):
        kind = instruction.kind
        cycle = instruction.issue_cycle

        # Cycle monotonicity across everything that carries a cycle.
        if cycle >= 0:
            if cycle < last_cycle:
                out.append(
                    Finding(
                        ERROR,
                        "cycle-monotonic",
                        index,
                        f"issue cycle {cycle} after cycle {last_cycle}",
                        "the stream must be emitted in issue order",
                    )
                )
            else:
                last_cycle = cycle

        if kind is InstructionKind.LOAD:
            if slot_ok(index, instruction.write, "LOAD"):
                write_value(index, instruction.value, instruction.write, "LOAD")

        elif kind is InstructionKind.RELOAD:
            value = instruction.value
            if value in resident:
                out.append(
                    Finding(
                        ERROR,
                        "spill-reload-pairing",
                        index,
                        f"RELOAD of value {value} which is already "
                        f"resident at {resident[value]}",
                        "reload only values a SPILL actually evicted",
                    )
                )
            elif value not in spilled:
                out.append(
                    Finding(
                        ERROR,
                        "spill-reload-pairing",
                        index,
                        f"RELOAD of value {value} that was never spilled",
                        "every RELOAD must pair with an earlier SPILL "
                        "of the same value",
                    )
                )
            if last_read.get(value, -1) < index and value != program.root_value:
                out.append(
                    Finding(
                        WARNING,
                        "spill-reload-pairing",
                        index,
                        f"RELOAD of value {value} with no later use",
                        "dead reload: drop it or fix the live range",
                    )
                )
            if slot_ok(index, instruction.write, "RELOAD"):
                write_value(index, instruction.value, instruction.write, "RELOAD")

        elif kind is InstructionKind.SPILL:
            value = instruction.value
            where = instruction.reads[0] if instruction.reads else None
            located = resident.get(value)
            if located is None:
                out.append(
                    Finding(
                        ERROR,
                        "spill-reload-pairing",
                        index,
                        f"SPILL of value {value} which is not resident",
                        "only register-resident values can be spilled",
                    )
                )
            elif where != located:
                out.append(
                    Finding(
                        ERROR,
                        "spill-reload-pairing",
                        index,
                        f"SPILL of value {value} reads {where} but the "
                        f"value lives at {located}",
                        "the spill must read the victim's actual register",
                    )
                )
            if located is not None:
                release(value)
                spilled.add(value)
                ghost[value] = located
                ghost_by_slot[located] = value

        elif kind is InstructionKind.STORE:
            value = instruction.value
            if value >= 0 and value not in resident and value not in defined:
                out.append(
                    Finding(
                        ERROR,
                        "def-before-use",
                        index,
                        f"STORE of undefined value {value}",
                        "stores must follow the producing compute",
                    )
                )

        elif kind is InstructionKind.COMPUTE:
            report.computes += 1
            if cycle >= 0:
                compute_cycles.add(cycle)
            reads_set = set(instruction.reads)
            operands = _operand_values(instruction)
            # Distinct operands this block demands from each bank; when
            # a bank's demand exceeds capacity, residency for all of
            # them at once is unsatisfiable (the scheduler's documented
            # unavoidable case) and stale reads there downgrade to
            # bank-starved warnings.
            bank_demand: Dict[int, int] = {}
            for value in operands:
                located = resident.get(value)
                bank = located[0] if located is not None else home_bank.get(value)
                if bank is not None:
                    bank_demand[bank] = bank_demand.get(bank, 0) + 1
            for value in operands:
                located = resident.get(value)
                if located is not None:
                    if located not in reads_set:
                        out.append(
                            Finding(
                                ERROR,
                                "def-before-use",
                                index,
                                f"operand {value} is resident at {located} "
                                f"but the instruction reads "
                                f"{sorted(reads_set)}",
                                "reads must name the operand's current "
                                "register, not a stale address",
                            )
                        )
                elif value in spilled:
                    old = ghost.get(value)
                    if old is not None and old in reads_set:
                        # Designed read-under-eviction: the value was
                        # spilled to free this very instruction's output
                        # slot, and its bits survive until the write-back
                        # lands (reads happen at issue).
                        report.ghost_reads += 1
                    elif bank_demand.get(home_bank.get(value), 0) > regs:
                        # Bank-starved block: more distinct operands
                        # live in this bank than it has registers, so
                        # the scheduler could not have kept them all
                        # resident.  Impossible-to-satisfy, not missed.
                        report.starved_reads += 1
                        out.append(
                            Finding(
                                WARNING,
                                "bank-capacity",
                                index,
                                f"operand {value} read through a stale "
                                f"fallback address in a bank-starved "
                                f"block ({bank_demand[home_bank[value]]} "
                                f"bank-{home_bank[value]} operands, "
                                f"capacity {regs})",
                                "residency is unsatisfiable here — "
                                "rebalance the bank assignment or raise "
                                "regs_per_bank",
                            )
                        )
                    else:
                        out.append(
                            Finding(
                                ERROR,
                                "def-before-use",
                                index,
                                f"operand {value} was spilled and never "
                                f"reloaded (stale-address read)",
                                "emit a RELOAD before the consuming "
                                "compute — the pre-PR 5 scheduler bug",
                            )
                        )
                elif value not in defined:
                    out.append(
                        Finding(
                            ERROR,
                            "def-before-use",
                            index,
                            f"operand {value} is read before any LOAD or "
                            f"COMPUTE defines it",
                            "leaves arrive via LOAD, intermediates via "
                            "an earlier COMPUTE",
                        )
                    )
                else:
                    out.append(
                        Finding(
                            ERROR,
                            "def-before-use",
                            index,
                            f"operand {value} was released (dead) before "
                            f"this read",
                            "the live range must cover every consumer",
                        )
                    )
                producer = producer_site.get(value)
                if producer is not None:
                    if producer > index:
                        out.append(
                            Finding(
                                ERROR,
                                "issue-order",
                                index,
                                f"operand {value} is produced later in the "
                                f"stream (site {producer})",
                                "issue order must respect DAG dependencies",
                            )
                        )
                    elif producer != index and cycle >= 0:
                        ready = compute_issue.get(value, -1) + stages
                        if 0 <= compute_issue.get(value, -1) and cycle < ready:
                            out.append(
                                Finding(
                                    ERROR,
                                    "issue-order",
                                    index,
                                    f"operand {value} becomes visible at "
                                    f"cycle {ready} but is read at cycle "
                                    f"{cycle}",
                                    f"dependent issues must wait "
                                    f"pipeline_stages={stages} cycles",
                                )
                            )
            if slot_ok(index, instruction.write, "COMPUTE write-back"):
                write_value(
                    index, instruction.output_value, instruction.write, "write-back"
                )
            compute_issue[instruction.output_value] = cycle
            if cycle >= 0:
                finish = cycle + stages
                if finish > max_finish:
                    max_finish = finish
            # Scheduler live-range release: operands whose last reader
            # is this instruction free their registers.
            for value in operands:
                if last_read.get(value) == index:
                    release(value)

        elif kind is InstructionKind.NOP:
            if cycle >= 0:
                if cycle in compute_cycles or cycle in nop_cycles:
                    out.append(
                        Finding(
                            ERROR,
                            "cycle-monotonic",
                            index,
                            f"NOP at cycle {cycle} which already issued work",
                            "NOPs fill only otherwise-empty cycles",
                        )
                    )
                nop_cycles.add(cycle)

    # Program-level checks.
    if program.root_value is not None and producer_site and (
        program.root_value in producer_site
    ):
        if program.root_value not in defined:
            out.append(
                Finding(
                    ERROR,
                    "def-before-use",
                    -1,
                    f"root value {program.root_value} is never defined",
                    "the final compute must produce the root",
                )
            )
    if compute_cycles or nop_cycles:
        highest = max(compute_cycles | nop_cycles)
        missing = [
            c
            for c in range(highest + 1)
            if c not in compute_cycles and c not in nop_cycles
        ]
        if missing:
            out.append(
                Finding(
                    ERROR,
                    "cycle-monotonic",
                    -1,
                    f"cycles {missing[:5]} are neither issue nor NOP cycles",
                    "every cycle up to the last issue is either work or "
                    "an explicit hazard NOP",
                )
            )

    if stats is not None:
        _check_stats(program, stats, config, report, max_finish)

    return report


def _check_stats(
    program: Program,
    stats: ScheduleStats,
    config: ArchConfig,
    report: VerifyReport,
    max_finish: int,
) -> None:
    """Cross-check ScheduleStats counters against the stream."""
    out = report.findings
    counted = {kind: 0 for kind in InstructionKind}
    expected_cycles = 0
    last_issue = -1
    for instruction in program.instructions:
        counted[instruction.kind] += 1
        if instruction.kind is InstructionKind.COMPUTE:
            banks = [bank for bank, _addr in instruction.reads]
            conflicts = len(banks) - len(set(banks))
            finish = instruction.issue_cycle + config.pipeline_stages + conflicts
            if finish > expected_cycles:
                expected_cycles = finish
        if instruction.issue_cycle > last_issue:
            last_issue = instruction.issue_cycle

    for name, kind in (
        ("spills", InstructionKind.SPILL),
        ("reloads", InstructionKind.RELOAD),
        ("loads", InstructionKind.LOAD),
        ("nops", InstructionKind.NOP),
    ):
        claimed = getattr(stats, name)
        actual = counted[kind]
        if claimed != actual:
            out.append(
                Finding(
                    ERROR,
                    "stats-consistency",
                    -1,
                    f"stats.{name}={claimed} but the stream holds "
                    f"{actual} {kind.name} instruction(s)",
                    "schedule statistics must count emitted instructions",
                )
            )
    if counted[InstructionKind.COMPUTE] and stats.cycles != expected_cycles:
        out.append(
            Finding(
                ERROR,
                "stats-consistency",
                -1,
                f"stats.cycles={stats.cycles} but the stream's critical "
                f"path finishes at cycle {expected_cycles}",
                "cycles = max(issue + pipeline_stages + bank conflicts)",
            )
        )
    if counted[InstructionKind.COMPUTE]:
        expected_slots = config.num_pes * (last_issue + 1)
        if stats.pe_issue_slots != expected_slots:
            out.append(
                Finding(
                    ERROR,
                    "stats-consistency",
                    -1,
                    f"stats.pe_issue_slots={stats.pe_issue_slots} but "
                    f"{config.num_pes} PEs over {last_issue + 1} cycles "
                    f"offer {expected_slots}",
                    "issue slots = num_pes x elapsed cycles",
                )
            )


# --------------------------------------------------------------- execution


def expected_energy_events(program: Program) -> Dict[str, int]:
    """The energy-model counter deltas ``run_program`` will charge for
    this instruction stream (the accelerator-loop events only; per-node
    PE events depend on tree configs and are charged inside the PE).

    The static verifier and the accelerator must stay in lockstep on
    this accounting — ``tests/analysis/test_verifier.py`` executes the
    corpus and asserts the prediction exactly matches the model.
    """
    register_access = 0
    network_hop = 0
    computes = 0
    memory_ops = 0
    for instruction in program.instructions:
        kind = instruction.kind
        if kind is InstructionKind.COMPUTE:
            register_access += len(instruction.reads) + 1
            network_hop += len(instruction.leaf_operands)
            computes += 1
        elif kind in _MEMORY_KINDS:
            memory_ops += 1
    return {
        "register_access": register_access + memory_ops,
        "network_hop": network_hop,
        "control_overhead": computes,
        "sram_access": memory_ops,
    }


def verify_execution(
    program: Program,
    report,
    config: ArchConfig = DEFAULT_CONFIG,
    energy_delta: Optional[Dict[str, int]] = None,
) -> VerifyReport:
    """Check an :class:`~repro.core.arch.accelerator.ProgramRun`
    (from ``run_program``) against what the stream statically implies:
    instruction count, NOP/stall count, the cycle lower bound, and —
    when ``energy_delta`` carries the run's energy-counter deltas —
    exact energy-event/instruction-count consistency.
    """
    result = VerifyReport(instructions=len(program.instructions))
    out = result.findings
    nops = sum(
        1
        for i in program.instructions
        if i.kind is InstructionKind.NOP
    )
    max_finish = 0
    for instruction in program.instructions:
        if instruction.kind is InstructionKind.COMPUTE:
            finish = instruction.issue_cycle + config.pipeline_stages
            if finish > max_finish:
                max_finish = finish
            result.computes += 1
    expected_cycles = max(max_finish, len(program.instructions))

    if report.instructions != len(program.instructions):
        out.append(
            Finding(
                ERROR,
                "stats-consistency",
                -1,
                f"report.instructions={report.instructions} but the "
                f"program holds {len(program.instructions)}",
                "the model must account every emitted instruction",
            )
        )
    if report.stalls != nops:
        out.append(
            Finding(
                ERROR,
                "stats-consistency",
                -1,
                f"report.stalls={report.stalls} but the stream holds "
                f"{nops} NOPs",
                "execution stalls are exactly the scheduler's NOPs",
            )
        )
    if report.cycles < expected_cycles:
        out.append(
            Finding(
                ERROR,
                "stats-consistency",
                -1,
                f"report.cycles={report.cycles} below the static lower "
                f"bound {expected_cycles}",
                "modeled time cannot beat the schedule's critical path",
            )
        )
    if energy_delta is not None:
        expected = expected_energy_events(program)
        for event, count in expected.items():
            actual = energy_delta.get(event)
            if actual != count:
                out.append(
                    Finding(
                        ERROR,
                        "stats-consistency",
                        -1,
                        f"energy event {event}: model charged {actual}, "
                        f"stream implies {count}",
                        "keep expected_energy_events in lockstep with "
                        "run_program's accounting",
                    )
                )
    return result


# ------------------------------------------------------------------ hooks


def verify_artifact(artifact, config: ArchConfig = DEFAULT_CONFIG) -> VerifyReport:
    """Verify one compiled artifact's program (with its schedule stats
    when available).  Artifacts without a VLIW program — CNF kernels
    compile to a CDCL trace instead — verify vacuously."""
    program = getattr(artifact, "program", None)
    if program is None:
        return VerifyReport()
    stats = getattr(artifact, "compile_stats", None)
    schedule_stats = getattr(stats, "schedule", None) if stats is not None else None
    return verify_program(program, config, stats=schedule_stats)


def check_artifact(artifact, config: ArchConfig = DEFAULT_CONFIG) -> None:
    """The verify gate: raise :class:`ProgramVerificationError` when a
    freshly compiled artifact fails static verification.  The session
    calls it inside the compile-once factory, so a rejected program is
    never cached or published."""
    result = verify_artifact(artifact, config)
    if not result.ok:
        key = getattr(artifact, "key", "") or "<uncached>"
        raise ProgramVerificationError(result, context=f"artifact {key}")


def artifact_verifier(config: ArchConfig = DEFAULT_CONFIG):
    """:func:`check_artifact` bound to ``config``, as a one-argument
    callable."""
    return functools.partial(check_artifact, config=config)
