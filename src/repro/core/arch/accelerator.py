"""Top-level REASON accelerator model.

Two execution paths mirror the paper's two kernel families:

* :meth:`ReasonAccelerator.run_program` executes a compiled VLIW program
  (probabilistic / logic DAG inference) functionally while accounting
  cycles, memory traffic and energy — validated against the reference
  DAG evaluator.
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
from repro.core.compiler.program import InstructionKind, Program
from repro.logic.cdcl import CDCLSolver
from repro.logic.cnf import CNF
from repro.trace.format import PHASE_PROGRAM, PHASE_SYMBOLIC, EventKind


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
        self.pes = [TreePE(config, self.energy) for _ in range(config.num_pes)]
        # Opt-in binary event trace (repro.trace).  None (the default)
        # keeps the execution loops on their untraced hot paths — the
        # only cost of the feature when off is one local None check per
        # event branch.  Attach via :meth:`attach_trace`.
        self.trace = None

    def attach_trace(self, writer) -> None:
        """Stream every modeled event into a
        :class:`~repro.trace.writer.TraceWriter` (replay events, VLIW
        instruction issues, PE block evaluations).  The caller owns the
        writer's lifecycle — the accelerator only emits."""
        self.trace = writer
        for pe in self.pes:
            pe.trace = writer

    # -------------------------------------------------------- DAG programs

    def run_program(
        self,
        program: Program,
        inputs: Optional[Dict[int, float]] = None,
        mode: PEMode = PEMode.PROBABILISTIC,
    ) -> ProgramRun:
        """Execute a compiled program; returns the root value and costs.

        ``inputs`` maps DAG leaf node ids to values (same contract as
        :func:`repro.core.dag.graph.evaluate_dag`); missing inputs
        default to 0.0 for logic and to the leaf payload mass for
        probabilistic leaves when the compiler recorded one.
        """
        inputs = dict(inputs or {})
        values: Dict[int, float] = dict(inputs)
        stalls = 0
        switch_penalty = 0
        max_finish = 0

        for pe in self.pes:
            if pe.mode is not mode:
                switch_penalty += pe.mode_switch_penalty()
            pe.set_mode(mode)

        # Per-instruction event counts accumulate locally and flush to
        # the energy model in one aggregate update after the loop.
        register_events = 0
        network_hops = 0
        compute_count = 0
        memory_ops = 0
        pes = self.pes
        num_pes = len(pes)
        pipeline_stages = self.config.pipeline_stages
        kind_compute = InstructionKind.COMPUTE
        kind_load = InstructionKind.LOAD
        kind_reload = InstructionKind.RELOAD
        kind_nop = InstructionKind.NOP

        # Tracing is opt-in: `emit` is None on the untraced hot path, so
        # the only added cost when off is one local None check per
        # instruction branch.
        tw = self.trace
        emit = None if tw is None else tw.emit
        if emit is not None:
            ev_compute = EventKind.COMPUTE
            ev_load = EventKind.LOAD
            ev_reload = EventKind.RELOAD
            ev_store = EventKind.STORE
            ev_spill = EventKind.SPILL
            ev_nop = EventKind.NOP
            kind_store = InstructionKind.STORE
            emit(EventKind.PHASE, 0, PHASE_PROGRAM)

        for instruction in program.instructions:
            kind = instruction.kind
            if kind is kind_compute:
                pe = pes[instruction.pe % num_pes]
                if emit is not None:
                    emit(ev_compute, instruction.issue_cycle, instruction.pe % num_pes)
                leaf_values = {}
                for position, value_id in instruction.leaf_operands.items():
                    if value_id not in values:
                        raise KeyError(
                            f"input value for DAG node {value_id} missing"
                        )
                    leaf_values[position] = values[value_id]
                result = pe.execute_config(instruction.tree_config, leaf_values)
                values[instruction.output_value] = result
                # Register traffic: operand reads + one write-back.
                register_events += len(instruction.reads) + 1
                network_hops += len(instruction.leaf_operands)
                compute_count += 1
                finish = instruction.issue_cycle + pipeline_stages
                if finish > max_finish:
                    max_finish = finish
            elif kind is kind_load or kind is kind_reload:
                memory_ops += 1
                if emit is not None:
                    # The scheduler fills issue_cycle only for COMPUTE
                    # and NOP; memory ops ride the clock's last value
                    # (cycle=None -> zero delta, one code byte).
                    bank = instruction.write[0] if instruction.write else 0
                    emit(ev_load if kind is kind_load else ev_reload, None, bank)
            elif kind is kind_nop:
                stalls += 1
                if emit is not None:
                    issue = instruction.issue_cycle
                    emit(ev_nop, issue if issue >= 0 else None)
            else:  # STORE / SPILL
                memory_ops += 1
                if emit is not None:
                    if instruction.write:
                        bank = instruction.write[0]
                    elif instruction.reads:
                        bank = instruction.reads[0][0]
                    else:
                        bank = 0
                    emit(ev_store if kind is kind_store else ev_spill, None, bank)

        energy = self.energy
        energy.register_access += register_events + memory_ops
        energy.network_hop += network_hops
        energy.control_overhead += compute_count
        energy.sram_access += memory_ops

        cycles = max(max_finish, len(program.instructions)) + switch_penalty
        if emit is not None:
            emit(EventKind.RUN_END, cycles)
        root = values.get(program.root_value) if program.root_value is not None else None
        utilization = (
            sum(pe.stats.active_node_ops for pe in self.pes)
            / max(1, sum(pe.stats.instructions for pe in self.pes) * self.config.nodes_per_pe)
        )
        return ProgramRun(
            result=root,
            cycles=cycles,
            energy_j=self.energy.total_energy_j(),
            power_w=self.energy.average_power_w(cycles),
            utilization=utilization,
            instructions=len(program.instructions),
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

    def run_symbolic_parallel(
        self,
        formula: CNF,
        cutoff_depth: int = 3,
    ) -> Tuple[SymbolicExecutionTrace, List[SymbolicExecutionTrace]]:
        """Cube-and-conquer across the PE array (Fig. 9 top).

        The lookahead DPLL phase splits the formula into cubes; each
        cube's CDCL conquer run replays on its own tree PE, so the
        chip-level makespan is the longest per-PE queue rather than the
        serial sum.  Returns (aggregate trace with the parallel
        makespan, per-cube traces).
        """
        from repro.logic.cube_and_conquer import CubeAndConquerSolver

        splitter = CubeAndConquerSolver(cutoff_depth=cutoff_depth)
        workloads = splitter.conquer_workloads(formula)
        per_cube: List[SymbolicExecutionTrace] = []
        pe_busy = [0] * self.config.num_pes
        aggregate = SymbolicExecutionTrace()
        for index, (cube, solver) in enumerate(workloads):
            worker = ReasonAccelerator(self.config)
            trace, _ = worker.run_symbolic_trace(formula, solver)
            per_cube.append(trace)
            self.energy.merge(worker.energy)
            # Greedy list scheduling onto the least-busy PE.
            target = min(range(len(pe_busy)), key=lambda p: pe_busy[p])
            pe_busy[target] += trace.cycles
            aggregate.decisions += trace.decisions
            aggregate.implications += trace.implications
            aggregate.conflicts += trace.conflicts
        aggregate.cycles = max(pe_busy) if any(pe_busy) else 0
        return aggregate, per_cube
