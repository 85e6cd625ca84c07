"""Static program verifier: abstract interpretation over compiled VLIW.

A scheduler that reads a spilled intermediate through its stale
register address still computes the right answer in the functional
model (which reads by value id), so execution-time goldens catch that
class of compiler bug only after the fact, one kernel at a time.  This
module catches the whole class at compile time, for every kernel:
:func:`verify_program` walks the instruction stream of a compiled
:class:`~repro.core.compiler.program.Program` once, handing each
instruction to the handler for its kind on an abstract machine
(:class:`_Machine`: per-bank residency, spill/ghost sets, defined
values, the issue clock) *without executing anything*.  Six invariant
families are checked:

``def-before-use``
    Every COMPUTE operand is resident in a register bank at the address
    the instruction reads; a spilled value must come back through a
    RELOAD before it is read again (the stale-address bug).
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

Every finding the checks can report is declared once, in ``_RULES``:
its name, invariant family, severity, message template and hint.
:func:`flag` is the one place a :class:`Finding` is built, and
:data:`INVARIANTS` is the table's families in declaration order.

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
stale-address class, where a RELOAD was owed and missing.

Findings are structured :class:`Finding` records collected in a
:class:`VerifyReport`; nothing raises unless a caller opts into
:func:`check_artifact` / :class:`ProgramVerificationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.core.arch.config import ArchConfig, DEFAULT_CONFIG
from repro.core.compiler.program import COMPUTE, KINDS, NO_WRITE, InstructionKind, Program
from repro.core.compiler.schedule import ScheduleStats

ERROR = "error"
WARNING = "warning"


class _Rule(NamedTuple):
    """One finding the verifier can report.  ``message`` and ``hint``
    are ``str.format`` templates over the fields :func:`flag` gets."""

    invariant: str
    message: str
    hint: str
    severity: str = ERROR


#: Every finding, declared once: invariant family (in report order) ->
#: rule name -> (message template, hint template[, severity]).
_TABLE: Dict[str, Dict[str, tuple]] = {
    "def-before-use": {
        "stale-address": (
            "operand {value} is resident at {slot} but the instruction reads {reads}",
            "reads must name the operand's current register, not a stale address",
        ),
        "stale-read": (
            "operand {value} was spilled and never reloaded (stale-address read)",
            "emit a RELOAD before the consuming compute — the pre-PR 5 scheduler bug",
        ),
        "undefined-operand": (
            "operand {value} is read before any LOAD or COMPUTE defines it",
            "leaves arrive via LOAD, intermediates via an earlier COMPUTE",
        ),
        "released-operand": (
            "operand {value} was released (dead) before this read",
            "the live range must cover every consumer",
        ),
        "undefined-store": (
            "STORE of undefined value {value}",
            "stores must follow the producing compute",
        ),
        "undefined-root": (
            "root value {value} is never defined",
            "the final compute must produce the root",
        ),
    },
    "spill-reload-pairing": {
        "reload-of-resident": (
            "RELOAD of value {value} which is already resident at {slot}",
            "reload only values a SPILL actually evicted",
        ),
        "reload-unpaired": (
            "RELOAD of value {value} that was never spilled",
            "every RELOAD must pair with an earlier SPILL of the same value",
        ),
        "dead-reload": (
            "RELOAD of value {value} with no later use",
            "dead reload: drop it or fix the live range",
            WARNING,
        ),
        "spill-of-nonresident": (
            "SPILL of value {value} which is not resident",
            "only register-resident values can be spilled",
        ),
        "spill-misread": (
            "SPILL of value {value} reads {reads} but the value lives at {slot}",
            "the spill must read the victim's actual register",
        ),
    },
    "bank-capacity": {
        "no-slot": (
            "{what} has no register slot",
            "the scheduler must allocate before emitting",
        ),
        "out-of-range": (
            "{what} targets ({bank}, {addr}) outside the {banks}x{regs} register file",
            "allocation must come from the per-bank free list",
        ),
        "clobber": (
            "{what} of value {value} overwrites register {slot} "
            "still holding live value {occupant}",
            "only free or dead registers may be reallocated; "
            "spill or release the occupant first",
        ),
        "bank-overfull": (
            "bank {bank} holds {occupancy} live values (capacity {regs})",
            "spill before allocating into a full bank",
        ),
        "starved-read": (
            "operand {value} read through a stale fallback address in a "
            "bank-starved block ({demand} bank-{bank} operands, capacity {regs})",
            "residency is unsatisfiable here — rebalance the bank assignment "
            "or raise regs_per_bank",
            WARNING,
        ),
    },
    "issue-order": {
        "produced-later": (
            "operand {value} is produced later in the stream (site {producer})",
            "issue order must respect DAG dependencies",
        ),
        "hazard": (
            "operand {value} becomes visible at cycle {ready} but is read at "
            "cycle {cycle}",
            "dependent issues must wait pipeline_stages={stages} cycles",
        ),
    },
    "cycle-monotonic": {
        "clock-backwards": (
            "issue cycle {cycle} after cycle {last}",
            "the stream must be emitted in issue order",
        ),
        "busy-nop": (
            "NOP at cycle {cycle} which already issued work",
            "NOPs fill only otherwise-empty cycles",
        ),
        "unaccounted-cycles": (
            "cycles {cycles} are neither issue nor NOP cycles",
            "every cycle up to the last issue is either work or an explicit "
            "hazard NOP",
        ),
    },
    "stats-consistency": {
        "stats-count": (
            "stats.{name}={claimed} but the stream holds {actual} {kind} "
            "instruction(s)",
            "schedule statistics must count emitted instructions",
        ),
        "stats-cycles": (
            "stats.cycles={claimed} but the stream's critical path finishes at "
            "cycle {expected}",
            "cycles = max(issue + pipeline_stages + bank conflicts)",
        ),
        "stats-issue-slots": (
            "stats.pe_issue_slots={claimed} but {pes} PEs over {cycles} cycles "
            "offer {expected}",
            "issue slots = num_pes x elapsed cycles",
        ),
        "run-instructions": (
            "report.instructions={claimed} but the program holds {actual}",
            "the model must account every emitted instruction",
        ),
        "run-stalls": (
            "report.stalls={claimed} but the stream holds {actual} NOPs",
            "execution stalls are exactly the scheduler's NOPs",
        ),
        "run-cycles": (
            "report.cycles={claimed} below the static lower bound {expected}",
            "modeled time cannot beat the schedule's critical path",
        ),
        "run-energy": (
            "energy event {event}: model charged {actual}, stream implies {expected}",
            "keep expected_energy_events in lockstep with run_program's accounting",
        ),
    },
}
_RULES: Dict[str, _Rule] = {
    name: _Rule(invariant, *declared)
    for invariant, rules in _TABLE.items()
    for name, declared in rules.items()
}

#: Invariant identifiers, in report order.
INVARIANTS: Tuple[str, ...] = tuple(_TABLE)


@dataclass(frozen=True)
class Finding:
    """One invariant violation at one instruction site.

    ``site`` is the index into ``program.instructions`` (-1 for
    program-level findings with no single site); ``invariant`` is one
    of :data:`INVARIANTS`; ``hint`` says what a fix usually looks like;
    ``rule`` names the ``_RULES`` entry that raised it.
    """

    severity: str  # ERROR | WARNING
    invariant: str
    site: int
    message: str
    hint: str = ""
    rule: str = ""

    def describe(self) -> str:
        where = f"@{self.site}" if self.site >= 0 else "@program"
        text = f"{self.severity}[{self.invariant}] {where}: {self.message}"
        if self.hint:
            text += f"  (hint: {self.hint})"
        return text


def flag(rule: str, site: int, **fields) -> Finding:
    """The finding ``rule`` declares, at ``site``, its message and hint
    filled in from ``fields``."""
    declared = _RULES[rule]
    return Finding(
        declared.severity,
        declared.invariant,
        site,
        declared.message.format(**fields),
        declared.hint.format(**fields),
        rule,
    )


@dataclass
class VerifyReport:
    """Everything :func:`verify_program` learned about one program."""

    findings: List[Finding] = field(default_factory=list)
    instructions: int = 0
    computes: int = 0
    ghost_reads: int = 0  # designed read-under-eviction sites (not findings)
    starved_reads: int = 0  # bank-starved fallback reads (warnings)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def ok(self) -> bool:
        """True when no *error* findings exist (warnings don't fail)."""
        return not self.errors

    def describe(self) -> List[str]:
        starved = f", {self.starved_reads} starved reads" if self.starved_reads else ""
        verdict = "OK" if self.ok else f"{len(self.errors)} error(s)"
        head = (
            f"verified {self.instructions} instructions ({self.computes} computes, "
            f"{self.ghost_reads} ghost reads{starved}): {verdict}"
        )
        return [head] + [finding.describe() for finding in self.findings]


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


_COMPUTE, _NOP = InstructionKind.COMPUTE, InstructionKind.NOP


def operand_values(instruction) -> List[int]:
    """Distinct DAG value ids one COMPUTE reads, deterministic order."""
    return sorted(set(instruction.leaf_operands.values()))


class _Stream:
    """What one pass over a stream's columns counts, for every check that
    compares the stream with a claim about it: instructions per kind,
    each value's first producing COMPUTE and last reading site, the
    highest issue cycle, the latest COMPUTE issue with and without its
    bank conflicts, and the accelerator-loop energy events."""

    def __init__(self, program: Program):
        kinds, issues = program.kinds, program.issue_cycles
        counts = {kind: kinds.count(code) for code, kind in enumerate(KINDS)}
        computes = [site for site, kind in enumerate(kinds) if kind == COMPUTE]
        producer_site: Dict[int, int] = {}
        last_read: Dict[int, int] = {}
        reach = conflicted = None
        register_reads = hops = 0
        read_offsets, read_banks = program.read_offsets, program.read_banks
        leaf_offsets, leaf_values = program.leaf_offsets, program.leaf_values
        output_values = program.output_values
        for site in computes:
            producer_site.setdefault(output_values[site], site)
            first, end = leaf_offsets[site], leaf_offsets[site + 1]
            for value in leaf_values[first:end]:
                last_read[value] = site
            hops += end - first
            first, end = read_offsets[site], read_offsets[site + 1]
            issue = issues[site]
            stalled = issue + end - first - len(set(read_banks[first:end]))
            if reach is None or issue > reach:
                reach = issue
            if conflicted is None or stalled > conflicted:
                conflicted = stalled
            register_reads += end - first + 1
        self.counts, self.last_issue = counts, max(-1, max(issues, default=-1))
        self.producer_site, self.last_read = producer_site, last_read
        self._reach, self._conflicted = reach, conflicted
        # Every other kind (LOAD, STORE, SPILL, RELOAD) moves one word.
        memory_ops = len(kinds) - counts[_COMPUTE] - counts[_NOP]
        self.energy = {
            "register_access": register_reads + memory_ops,
            "network_hop": hops,
            "control_overhead": counts[_COMPUTE],
            "sram_access": memory_ops,
        }

    def finish(self, stages: int, conflicts: bool = False) -> int:
        """The cycle the last COMPUTE result lands, ``pipeline_stages``
        after issue (plus one per bank conflict): 0 without computes."""
        reach = self._conflicted if conflicts else self._reach
        return 0 if reach is None else max(0, reach + stages)


class _Machine:
    """The abstract register file one walk of a stream moves: where each
    value lives, what was spilled and still survives at its old address,
    what was ever defined, and the issue clock.  Each handler takes the
    site of one instruction of its :class:`InstructionKind` and reads the
    program's columns there; findings go to ``report``."""

    def __init__(self, program, config, stream, report):
        self.program, self.stream, self.report = program, stream, report
        self.regs, self.banks, self.stages = (
            config.regs_per_bank, config.num_banks, config.pipeline_stages
        )
        self.resident: Dict[int, Tuple[int, int]] = {}  # value -> (bank, addr)
        self.slots: Dict[Tuple[int, int], int] = {}  # (bank, addr) -> value
        self.occupancy: Dict[int, int] = {}  # bank -> its keys in ``slots``
        self.spilled: Set[int] = set()
        self.ghost: Dict[int, Tuple[int, int]] = {}  # spilled value -> old slot
        self.ghost_by_slot: Dict[Tuple[int, int], int] = {}
        self.home_bank: Dict[int, int] = {}  # value -> bank it last lived in
        self.defined: Set[int] = set()  # ever written by a LOAD, RELOAD or COMPUTE
        self.compute_issue: Dict[int, int] = {}  # value -> producer issue cycle
        self.last_cycle = -1
        self.busy: Set[int] = set()  # cycles a COMPUTE or a NOP issued in

    def emit(self, rule: str, site: int, **fields) -> None:
        """Report ``rule`` at ``site``; the machine's bounds are fields too."""
        bounds = {"regs": self.regs, "banks": self.banks, "stages": self.stages}
        self.report.findings.append(flag(rule, site, **bounds, **fields))

    # ------------------------------------------------------ shared moves

    def tick(self, site: int, cycle: int) -> None:
        """Advance the issue clock; it never runs backwards."""
        if cycle >= 0:
            if cycle < self.last_cycle:
                self.emit("clock-backwards", site, cycle=cycle, last=self.last_cycle)
            else:
                self.last_cycle = cycle

    def in_range(self, site: int, slot, what: str) -> bool:
        """Range-check one (bank, addr) a write targets."""
        if slot is None:
            self.emit("no-slot", site, what=what)
            return False
        bank, addr = slot
        if not (0 <= bank < self.banks and 0 <= addr < self.regs):
            self.emit("out-of-range", site, what=what, bank=bank, addr=addr)
            return False
        return True

    def write(self, site: int, value: int, slot: Tuple[int, int], what: str) -> None:
        """A register write: the clobber check, the move, then the
        occupancy check."""
        resident, slots = self.resident, self.slots
        occupant = slots.get(slot)
        if occupant is None:
            self.occupancy[slot[0]] = self.occupancy.get(slot[0], 0) + 1
        elif occupant != value:
            self.emit(
                "clobber", site, what=what, value=value, slot=slot, occupant=occupant
            )
            resident.pop(occupant, None)
        stale = self.ghost_by_slot.pop(slot, None)
        if stale is not None:
            self.ghost.pop(stale, None)
        previous = resident.get(value)
        if previous is not None and previous != slot:
            self.release(value)
        resident[value] = slot
        slots[slot] = value
        self.home_bank[value] = bank = slot[0]
        self.spilled.discard(value)
        old = self.ghost.pop(value, None)
        if old is not None:
            self.ghost_by_slot.pop(old, None)
        self.defined.add(value)
        if self.occupancy[bank] > self.regs:
            self.emit("bank-overfull", site, bank=bank, occupancy=self.occupancy[bank])

    def release(self, value: int) -> None:
        """Free ``value``'s register, if it holds one."""
        located = self.resident.pop(value, None)
        if located is not None:
            del self.slots[located]
            self.occupancy[located[0]] -= 1

    # ---------------------------------------------------------- handlers

    def slot(self, site: int) -> Optional[Tuple[int, int]]:
        """The (bank, addr) the instruction at ``site`` writes, if any."""
        program = self.program
        bank = program.write_banks[site]
        return None if bank == NO_WRITE else (bank, program.write_addrs[site])

    def load(self, site: int, what: str = "LOAD") -> None:
        slot = self.slot(site)
        if self.in_range(site, slot, what):
            self.write(site, self.program.values[site], slot, what)

    def reload(self, site: int) -> None:
        value = self.program.values[site]
        located = self.resident.get(value)
        if located is not None:
            self.emit("reload-of-resident", site, value=value, slot=located)
        elif value not in self.spilled:
            self.emit("reload-unpaired", site, value=value)
        last_read = self.stream.last_read.get(value, -1)
        if last_read < site and value != self.program.root_value:
            self.emit("dead-reload", site, value=value)
        self.load(site, "RELOAD")

    def spill(self, site: int) -> None:
        program = self.program
        value = program.values[site]
        located = self.resident.get(value)
        if located is None:
            self.emit("spill-of-nonresident", site, value=value)
            return
        first = program.read_offsets[site]
        where = None
        if first < program.read_offsets[site + 1]:
            where = (program.read_banks[first], program.read_addrs[first])
        if where != located:
            self.emit("spill-misread", site, value=value, reads=where, slot=located)
        self.release(value)
        self.spilled.add(value)
        self.ghost[value] = located
        self.ghost_by_slot[located] = value

    def store(self, site: int) -> None:
        # Every resident value was written, so ``defined`` covers it.
        value = self.program.values[site]
        if value >= 0 and value not in self.defined:
            self.emit("undefined-store", site, value=value)

    def compute(self, site: int) -> None:
        program = self.program
        cycle = program.issue_cycles[site]
        if cycle >= 0:
            self.busy.add(cycle)
        first, end = program.read_offsets[site], program.read_offsets[site + 1]
        reads = set(zip(program.read_banks[first:end], program.read_addrs[first:end]))
        first, end = program.leaf_offsets[site], program.leaf_offsets[site + 1]
        operands = sorted(set(program.leaf_values[first:end]))
        resident, issued_at = self.resident, self.compute_issue
        producer_site, stages = self.stream.producer_site, self.stages
        for value in operands:
            located = resident.get(value)
            if located is None or located not in reads:
                self.misread(site, value, located, reads, operands)
            producer = producer_site.get(value)
            if producer is None or producer == site:
                continue
            if producer > site:
                self.emit("produced-later", site, value=value, producer=producer)
            elif cycle >= 0:
                issued = issued_at.get(value, -1)
                if issued >= 0 and cycle < issued + stages:
                    ready = issued + stages
                    self.emit("hazard", site, value=value, ready=ready, cycle=cycle)
        output, slot = program.output_values[site], self.slot(site)
        if self.in_range(site, slot, "COMPUTE write-back"):
            self.write(site, output, slot, "write-back")
        issued_at[output] = cycle
        # Scheduler live-range release: operands whose last reader is
        # this instruction free their registers.
        last_read = self.stream.last_read
        for value in operands:
            if last_read.get(value) == site:
                self.release(value)

    def misread(self, site: int, value: int, located, reads, operands) -> None:
        """Classify a COMPUTE operand that is not resident where the
        instruction reads it."""
        if located is not None:
            self.emit(
                "stale-address", site, value=value, slot=located, reads=sorted(reads)
            )
        elif value in self.spilled:
            old = self.ghost.get(value)
            if old is not None and old in reads:
                # Designed read-under-eviction: the value was spilled to
                # free this very instruction's output slot, and its bits
                # survive until the write-back lands (reads happen at issue).
                self.report.ghost_reads += 1
            elif (demand := self.bank_demand(value, operands)) > self.regs:
                # More distinct operands of this block live in the bank
                # than it has registers: the scheduler could not have
                # kept them all resident.  Impossible, not missed.
                self.report.starved_reads += 1
                bank = self.home_bank[value]
                self.emit("starved-read", site, value=value, demand=demand, bank=bank)
            else:
                self.emit("stale-read", site, value=value)
        elif value not in self.defined:
            self.emit("undefined-operand", site, value=value)
        else:
            self.emit("released-operand", site, value=value)

    def bank_demand(self, value: int, operands: List[int]) -> int:
        """How many of ``operands`` live (or last lived) in ``value``'s
        home bank."""
        bank = self.home_bank.get(value)
        if bank is None:
            return 0
        resident, home_bank = self.resident, self.home_bank
        banks = [
            resident[operand][0] if operand in resident else home_bank.get(operand)
            for operand in operands
        ]
        return banks.count(bank)

    def nop(self, site: int) -> None:
        cycle = self.program.issue_cycles[site]
        if cycle >= 0:
            if cycle in self.busy:
                self.emit("busy-nop", site, cycle=cycle)
            self.busy.add(cycle)

    # -------------------------------------------------- program handlers

    def root(self) -> None:
        """The root value, when a COMPUTE produces it, was written."""
        root = self.program.root_value
        if root in self.stream.producer_site and root not in self.defined:
            self.emit("undefined-root", -1, value=root)

    def cycles(self) -> None:
        """Every cycle up to the last issue holds a COMPUTE or a NOP."""
        if self.busy:
            missing = [c for c in range(max(self.busy) + 1) if c not in self.busy]
            if missing:
                self.emit("unaccounted-cycles", -1, cycles=missing[:5])


#: One handler per instruction kind, named after it, by kind code.
_HANDLERS = [getattr(_Machine, kind.name.lower()) for kind in KINDS]

#: The ScheduleStats counters that each count one instruction kind.
_COUNTED = {
    "spills": InstructionKind.SPILL,
    "reloads": InstructionKind.RELOAD,
    "loads": InstructionKind.LOAD,
    "nops": _NOP,
}


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
    stream = _Stream(program)
    report = VerifyReport(instructions=len(program), computes=stream.counts[_COMPUTE])
    machine = _Machine(program, config, stream, report)
    issues = program.issue_cycles
    for site, kind in enumerate(program.kinds):
        machine.tick(site, issues[site])
        _HANDLERS[kind](machine, site)
    machine.root()
    machine.cycles()
    if stats is not None:
        _check_stats(stream, stats, config, report.findings)
    return report


def _check_stats(
    stream: _Stream, stats: ScheduleStats, config: ArchConfig, out: List[Finding]
) -> None:
    """Cross-check ScheduleStats counters against the stream."""
    for name, kind in _COUNTED.items():
        claimed, actual = getattr(stats, name), stream.counts[kind]
        if claimed != actual:
            out.append(
                flag("stats-count", -1, name=name, claimed=claimed, actual=actual,
                     kind=kind.name)
            )
    if not stream.counts[_COMPUTE]:
        return
    expected = stream.finish(config.pipeline_stages, conflicts=True)
    if stats.cycles != expected:
        out.append(flag("stats-cycles", -1, claimed=stats.cycles, expected=expected))
    cycles = stream.last_issue + 1
    expected = config.num_pes * cycles
    if stats.pe_issue_slots != expected:
        out.append(
            flag("stats-issue-slots", -1, claimed=stats.pe_issue_slots,
                 pes=config.num_pes, cycles=cycles, expected=expected)
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
    return _Stream(program).energy


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
    stream = _Stream(program)
    total = len(program)
    result = VerifyReport(instructions=total, computes=stream.counts[_COMPUTE])
    out = result.findings
    if report.instructions != total:
        claimed = report.instructions
        out.append(flag("run-instructions", -1, claimed=claimed, actual=total))
    nops = stream.counts[_NOP]
    if report.stalls != nops:
        out.append(flag("run-stalls", -1, claimed=report.stalls, actual=nops))
    bound = max(stream.finish(config.pipeline_stages), total)
    if report.cycles < bound:
        out.append(flag("run-cycles", -1, claimed=report.cycles, expected=bound))
    if energy_delta is not None:
        for event, count in stream.energy.items():
            actual = energy_delta.get(event)
            if actual != count:
                out.append(
                    flag("run-energy", -1, event=event, actual=actual, expected=count)
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
    stats = getattr(getattr(artifact, "compile_stats", None), "schedule", None)
    return verify_program(program, config, stats=stats)


def check_artifact(artifact, config: ArchConfig = DEFAULT_CONFIG) -> None:
    """The verify gate: raise :class:`ProgramVerificationError` when a
    freshly compiled artifact fails static verification.  The session
    calls it inside the compile-once factory, so a rejected program is
    never cached or published."""
    result = verify_artifact(artifact, config)
    if not result.ok:
        key = getattr(artifact, "key", "") or "<uncached>"
        raise ProgramVerificationError(result, context=f"artifact {key}")
