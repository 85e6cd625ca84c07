"""Top-level REASON accelerator model.

Two execution paths mirror the paper's two kernel families:

* :meth:`ReasonAccelerator.run_program` executes a compiled VLIW program
  (probabilistic / logic DAG inference): it evaluates each block's tree
  on the values it is given and counts cycles, memory traffic and energy
  from the instruction stream.  It validates nothing: the ``software``
  backend is the reference its answers are compared with.
* :meth:`ReasonAccelerator.run_symbolic` replays a CDCL solver trace on
  the symbolic machinery (watch lists in their linked-list SRAM
  layout, broadcast/reduction over the node tree), charging each event
  of the Fig. 9 timeline in solver order: one tree pass plus the
  watch-list traversal (:func:`watch_costs`) per decision and
  implication, a DMA fetch for a list too long to be local, a trip to
  the root per conflict.  Implications are charged one
  at a time — the solver trace does not mark which of them the
  hardware's BCP FIFO would hold at once, so nothing queues, overlaps
  a fetch or is flushed (ROADMAP lists what that leaves uncharged).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.arch.config import ArchConfig, DEFAULT_CONFIG
from repro.core.arch.energy import EnergyModel
from repro.core.arch.interconnect import Topology, broadcast_cycles
from repro.core.arch.tree_pe import PEMode, TreePE
from repro.core.arch.watched_literals import watch_costs
from repro.core.compiler.program import (
    COMPUTE,
    LOAD,
    NO_WRITE,
    NOP,
    OPS,
    RELOAD,
    SPILL,
    STORE,
    Program,
)
from repro.core.dag.graph import OpType
from repro.logic.cdcl import CDCLSolver
from repro.logic.cnf import CNF
from repro.trace.format import PHASE_PROGRAM, PHASE_SYMBOLIC, EventKind

_SUM, _PRODUCT, _AND, _OR, _NOT = map(
    OPS.index, (OpType.SUM, OpType.PRODUCT, OpType.AND, OpType.OR, OpType.NOT)
)
#: The event a memory instruction is traced as; a STORE / SPILL without
#: a write-back names the bank it reads from.
_MEMORY_EVENTS = {
    LOAD: EventKind.LOAD,
    RELOAD: EventKind.RELOAD,
    STORE: EventKind.STORE,
    SPILL: EventKind.SPILL,
}
_STORES = (STORE, SPILL)


@dataclass
class ProgramRun:
    """Outcome of one :meth:`ReasonAccelerator.run_program` on the
    modeled chip (the serving layer's ``ExecutionReport`` is built from it)."""

    result: Optional[float]
    cycles: int
    energy_j: float
    power_w: float
    utilization: float
    instructions: int
    stalls: int = 0


@dataclass
class SymbolicExecutionTrace:
    """Cycle-accurate account of a symbolic (CDCL) replay."""

    cycles: int = 0
    decisions: int = 0
    implications: int = 0
    conflicts: int = 0


class ReasonAccelerator:
    """One REASON instance: the tree PEs and the energy counters."""

    def __init__(self, config: ArchConfig = DEFAULT_CONFIG):
        self.config = config
        self.energy = EnergyModel(config=config)
        self.pes = [TreePE(config) for _ in range(config.num_pes)]
        # Opt-in binary event trace (repro.trace).  None (the default)
        # keeps both execution paths counting: the cost of the feature
        # when off is one None check per run.  Attach via
        # :meth:`attach_trace`.
        self.trace = None

    def attach_trace(self, writer) -> None:
        """Stream every modeled event into a
        :class:`~repro.trace.writer.TraceWriter` (replay events, VLIW
        instruction issues, PE block evaluations).  The caller owns the
        writer's lifecycle — the accelerator only emits."""
        self.trace = writer

    # -------------------------------------------------------- DAG programs

    def run_program(
        self,
        program: Program,
        inputs: Optional[Dict[int, float]] = None,
        mode: PEMode = PEMode.PROBABILISTIC,
    ) -> ProgramRun:
        """Execute a compiled program; returns the root value and the
        costs of this run (the chip's counters keep accumulating).

        ``inputs`` maps DAG leaf node ids to values (same contract as
        :func:`repro.core.dag.graph.evaluate_dag`).  Nothing defaults: a
        leaf the program reads with no entry is a ``KeyError`` naming
        its node id.  The ``reason`` backend passes
        :func:`repro.core.dag.graph.default_leaf_inputs` of the
        program's DAG.

        The values are computed block by block: each COMPUTE's tree
        bottom-up, one op node at a time.  The costs are *counted*:
        cycles, stalls, every energy counter and the per-PE statistics
        are a closed form of the stream — its kind histogram, the operand
        reads and leaf operands of its COMPUTEs, the last COMPUTE issue,
        the mode-switch penalty and each block's logic / ALU op count —
        charged once.  Only with a trace writer attached is the stream
        also *walked*, in issue order, to emit one event per instruction
        and block; the walk charges nothing.
        """
        kinds, issues = program.kinds, program.issue_cycles
        read_offsets, leaf_offsets = program.read_offsets, program.leaf_offsets
        config_offsets = program.config_offsets
        config = self.config
        pes = self.pes
        num_pes = len(pes)
        switch_penalty = 0
        for pe in pes:
            if pe.mode is not mode:
                switch_penalty += pe.mode_switch_penalty()
            pe.set_mode(mode)
        computes = [site for site, kind in enumerate(kinds) if kind == COMPUTE]

        # The value pass.  A COMPUTE's tree configs are in ascending heap
        # position, so walking them backwards sees children before
        # parents.  A block's store is indexed by heap position and wide
        # enough for the children of every node of this chip's tree.
        # Unconfigured positions are inert; FORWARD nodes pass their one
        # live child up; an op reads its live children left first, with
        # the IEEE operations of ``sum`` (which starts from int 0) or of
        # a running product from 1.0, in that order.
        positions, config_ops = program.config_positions, program.config_ops
        config_weights = program.config_weights
        leaf_positions, leaf_values = program.leaf_positions, program.leaf_values
        output_values = program.output_values
        values: Dict[int, float] = dict(inputs or {})
        width = 2 * config.nodes_per_pe + 1
        active = 0
        logic_ops = 0
        try:
            for site in computes:
                store: List[Optional[float]] = [None] * width
                for leaf in range(leaf_offsets[site], leaf_offsets[site + 1]):
                    store[leaf_positions[leaf]] = values[leaf_values[leaf]]
                ops = 0
                for node in range(config_offsets[site + 1] - 1, config_offsets[site] - 1, -1):
                    position = positions[node]
                    op = config_ops[node]
                    if not op:  # FORWARD
                        if store[position] is None:  # else a leaf operand
                            live = store[2 * position + 1]
                            if live is None:
                                live = store[2 * position + 2]
                            if live is None:
                                raise ValueError(f"forward node {position} has no input")
                            store[position] = live
                        continue
                    ops += 1
                    left = store[2 * position + 1]
                    right = store[2 * position + 2]
                    if left is None:  # a lone live operand is the first
                        left, right = right, None
                        if left is None:
                            raise ValueError(f"op node {position} has no inputs")
                    if op == _SUM:
                        operands = 1 if right is None else 2
                        weights = config_weights[node] or (1.0,) * operands
                        if len(weights) != operands:
                            raise ValueError(
                                f"SUM node {position} has {len(weights)} child "
                                f"weights for {operands} live operands"
                            )
                        value = 0 + weights[0] * left
                        if right is not None:
                            value += weights[1] * right
                    elif op == _PRODUCT:
                        value = 1.0 * left
                        if right is not None:
                            value *= right
                    elif op == _AND:
                        logic_ops += 1
                        value = 1.0 if left > 0 and (right is None or right > 0) else 0.0
                    elif op == _OR:
                        logic_ops += 1
                        value = 1.0 if left > 0 or (right is not None and right > 0) else 0.0
                    elif op == _NOT:
                        logic_ops += 1
                        value = 1.0 - left
                    else:
                        raise TypeError(f"op {OPS[op]} not executable on a tree node")
                    store[position] = value
                if store[0] is None:
                    raise ValueError("block did not produce a root value")
                values[output_values[site]] = store[0]
                active += ops
        except KeyError as missing:  # only reading an operand's value raises it
            raise KeyError(f"input value for DAG node {missing.args[0]} missing") from None
        except IndexError:  # only a heap position past the store raises it
            raise ValueError(
                f"a COMPUTE addresses a position outside this chip's "
                f"{config.nodes_per_pe}-node PE tree; compile the program for this config"
            ) from None

        total = len(kinds)
        stalls = kinds.count(NOP)
        # Every other kind (LOAD, STORE, SPILL, RELOAD) moves one word.
        memory_ops = total - len(computes) - stalls
        run = EnergyModel(config, self.energy.energies)
        run.logic_op = logic_ops
        run.alu_op = active - logic_ops
        # A COMPUTE reads its operand registers and writes one back.
        run.register_access = (
            sum(read_offsets[site + 1] - read_offsets[site] for site in computes)
            + len(computes)
            + memory_ops
        )
        run.network_hop = sum(leaf_offsets[site + 1] - leaf_offsets[site] for site in computes)
        run.control_overhead = len(computes)
        run.sram_access = memory_ops
        self.energy.merge(run)
        stages = config.pipeline_stages
        finish = max(map(issues.__getitem__, computes), default=-stages) + stages
        cycles = max(finish, total) + switch_penalty

        tw = self.trace
        emit = None if tw is None else tw.emit
        if emit is not None:
            write_banks, read_banks = program.write_banks, program.read_banks
            emit(EventKind.PHASE, 0, PHASE_PROGRAM)
            for site, kind in enumerate(kinds):
                if kind == COMPUTE:
                    emit(EventKind.COMPUTE, issues[site], program.pes[site] % num_pes)
                    first, end = config_offsets[site], config_offsets[site + 1]
                    forwards = config_ops[first:end].count(0)
                    emit(EventKind.PE_BLOCK, None, end - first - forwards, forwards)
                elif kind == NOP:
                    issue = issues[site]
                    emit(EventKind.NOP, issue if issue >= 0 else None)
                else:
                    # The scheduler fills issue_cycle only for COMPUTE
                    # and NOP; memory ops ride the clock's last value
                    # (cycle=None -> zero delta, one code byte).
                    bank = write_banks[site]
                    if bank == NO_WRITE:
                        first = read_offsets[site]
                        stored = kind in _STORES and first < read_offsets[site + 1]
                        bank = read_banks[first] if stored else 0
                    emit(_MEMORY_EVENTS[kind], None, bank)
            emit(EventKind.RUN_END, cycles)

        return ProgramRun(
            result=values.get(program.root_value) if program.root_value is not None else None,
            cycles=cycles,
            energy_j=run.total_energy_j(),
            power_w=run.average_power_w(cycles),
            utilization=active / max(1, len(computes) * config.nodes_per_pe),
            instructions=total,
            stalls=stalls,
        )

    # ------------------------------------------------------- symbolic mode

    def run_symbolic(
        self,
        formula: CNF,
        solver: Optional[CDCLSolver] = None,
    ) -> Tuple[SymbolicExecutionTrace, "CDCLSolver"]:
        """Solve ``formula`` and replay the BCP trace on the hardware.

        A software CDCL run produces the decision/implication/conflict
        event stream; :meth:`run_symbolic_trace` charges it.
        """
        if solver is None:
            solver = CDCLSolver(record_trace=True)
        elif not solver.record_trace:
            solver.record_trace = True
        solver.solve(formula)
        return self.run_symbolic_trace(formula, solver)

    def run_symbolic_trace(
        self,
        formula: CNF,
        solver: "CDCLSolver",
    ) -> Tuple[SymbolicExecutionTrace, "CDCLSolver"]:
        """Charge hardware costs for an already-recorded CDCL trace.

        Every decision and implication costs one pass over the node
        tree plus the traversal of the falsified literal's watch list:
        ``access_cycles`` when scheduling is pipelined, twice that when
        it is not (ablation).  An implication whose list costs more than
        ``dram_latency_cycles`` fetches it by DMA instead and pays
        ``access_cycles`` whatever the scheduling.  A conflict costs
        the trip to the root plus one control cycle, a backjump two
        cycles, a restart a pipeline refill; learn events are free.

        None of that depends on event order, so cycles, counts and
        energy are *counted*: the ``(kind, literal)`` histogram of the
        stream times the cost of one such event.  Only with a trace
        writer attached is the stream also *walked*, in solver order and
        with the same per-event costs, to stamp each emitted event with
        the replay cycle it ends at.
        """
        if not solver.trace and (
            solver.stats.decisions or solver.stats.propagations
        ):
            raise ValueError("solver was run without record_trace=True")
        for pe in self.pes:
            pe.set_mode(PEMode.SYMBOLIC)

        config = self.config
        tree_hops = int(broadcast_cycles(Topology.TREE, config.leaves_per_pe))
        pipelined = config.pipelined_scheduling
        dram_latency = config.dram_latency_cycles
        # A watch list is static during a replay: what a falsified
        # literal costs is a table entry.
        costs, unwatched = watch_costs(formula, config)
        # kind -> (cycles, the event a trace writer records it as)
        fixed = {
            # To the root, then the priority control assertion.
            "conflict": (tree_hops + 1, EventKind.CONFLICT),
            # Trail unwinding bookkeeping on the scalar PE.
            "backjump": (2, EventKind.BACKJUMP),
            "restart": (config.pipeline_stages, EventKind.RESTART),
            # Annotation-only: the conflict that produced the clause
            # already paid.
            "learn": (0, EventKind.LEARN),
        }

        def visit(kind: str, literal: int) -> Tuple[int, int, int, tuple]:
            """``(cycles, clauses on the list, DMA words, bank reads)``
            of one decision / implication of ``literal``: a pass over
            the node tree (a decision broadcasts to the leaves, an
            implication returns through the reduction tree) and the
            falsified literal's watch list, which comes from DRAM when
            it is too long to be local."""
            num_clauses, access, banks = costs.get(-literal, unwatched)
            words = num_clauses * 4 + 4 if kind == "imply" and access > dram_latency else 0
            paid = access if words or pipelined else access * 2
            return tree_hops + paid, num_clauses, words, banks

        cycle = decisions = implications = conflicts = 0
        logic_ops = dram_words = sram_reads = 0
        for (kind, literal), count in solver.trace.histogram().items():
            if kind in fixed:
                cycle += count * fixed[kind][0]
                if kind == "conflict":
                    conflicts = count
                continue
            cycles, num_clauses, words, banks = visit(kind, literal)
            cycle += count * cycles
            dram_words += count * words
            sram_reads += count * sum(reads for _, reads in banks)
            if kind == "decide":
                decisions += count
                logic_ops += count * num_clauses
            else:
                implications += count
                logic_ops += count * (num_clauses or 1)

        energy = self.energy
        energy.network_hop += implications + decisions * config.leaves_per_pe
        energy.control_overhead += decisions + 2 * conflicts
        energy.logic_op += logic_ops
        energy.fifo_op += implications
        energy.sram_access += sram_reads
        energy.dram_access += dram_words

        # Same opt-in tracing as run_program.  The traced path records
        # absolute replay cycles, which is what
        # repro.trace.analyze.timeline reads the Fig. 9 rows from.
        tw = self.trace
        if tw is not None:
            emit = tw.emit
            emit(EventKind.PHASE, 0, PHASE_SYMBOLIC)
            clock = 0
            for event in solver.trace:
                kind = event.kind
                if kind in fixed:
                    cycles, recorded_as = fixed[kind]
                    clock += cycles
                    # A backjump records its target level, a learn its
                    # clause's size (0 on a conflict or a restart).
                    operand = event.level if kind == "backjump" else event.clause_size
                    emit(recorded_as, clock, operand)
                    continue
                cycles, num_clauses, words, banks = visit(kind, event.literal)
                clock += cycles
                if words:
                    emit(EventKind.DMA_FETCH, clock, words)
                emit(
                    EventKind.DECIDE if kind == "decide" else EventKind.PROPAGATE,
                    clock,
                    event.literal,
                )
                emit(EventKind.WATCH_UPDATE, clock, -event.literal, num_clauses)
                for bank, count in banks:
                    emit(EventKind.BANK_READ, clock, bank, count)
            emit(EventKind.RUN_END, clock)
        return SymbolicExecutionTrace(cycle, decisions, implications, conflicts), solver
