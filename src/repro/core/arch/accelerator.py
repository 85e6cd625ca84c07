"""Top-level REASON accelerator model.

Two execution paths mirror the paper's two kernel families:

* :meth:`ReasonAccelerator.run_program` executes a compiled VLIW program
  (probabilistic / logic DAG inference) functionally while accounting
  cycles, memory traffic and energy — validated against the reference
  DAG evaluator.
* :meth:`ReasonAccelerator.run_symbolic` replays a CDCL solver trace on
  the symbolic machinery (watched-literals unit, BCP FIFO, pipelined
  broadcast/reduction over the node tree), reproducing the Fig. 9
  timeline: implications pipeline through the reduction tree, watch-list
  misses trigger DMA whose latency is hidden behind queued work, and a
  conflict flushes the FIFO and cancels outstanding fetches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.arch.bcp_fifo import BcpFifo
from repro.core.arch.config import ArchConfig, DEFAULT_CONFIG
from repro.core.arch.energy import EnergyModel
from repro.core.arch.interconnect import Topology, broadcast_cycles
from repro.core.arch.memory import DmaEngine, Scratchpad, SramBanks
from repro.core.arch.tree_pe import PEMode, TreePE
from repro.core.arch.watched_literals import WatchedLiteralsUnit
from repro.core.compiler.program import InstructionKind, Program
from repro.logic.cdcl import CDCLSolver
from repro.logic.cnf import CNF
from repro.trace.format import PHASE_PROGRAM, PHASE_SYMBOLIC, EventKind


@dataclass
class ExecutionReport:
    """Outcome of running one compiled kernel."""

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
    fifo_flushes: int = 0
    dma_cancelled: int = 0


class ReasonAccelerator:
    """One REASON instance: PEs + memory + symbolic units + energy."""

    def __init__(self, config: ArchConfig = DEFAULT_CONFIG):
        self.config = config
        self.energy = EnergyModel(config=config)
        self.sram = SramBanks(config, self.energy)
        self.scratchpad = Scratchpad(config, self.energy)
        self.dma = DmaEngine(config, self.energy)
        self.pes = [TreePE(config, self.energy) for _ in range(config.num_pes)]
        self.wl_unit = WatchedLiteralsUnit(config, self.sram)
        self.fifo = BcpFifo(config.bcp_fifo_depth)
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
    ) -> ExecutionReport:
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
        return ExecutionReport(
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
        event stream; the replay charges broadcast and reduction latency
        over the node tree, watch-list traversal cycles, FIFO
        serialization, and DMA exposure, honoring the ablation switches
        (linked-list layout, pipelined scheduling).
        """
        if solver is None:
            solver = CDCLSolver(record_trace=True)
        elif not solver.record_trace:
            solver.record_trace = True
        solver.solve(formula)
        return self._replay(formula, solver)

    def _replay(
        self,
        formula: CNF,
        solver: "CDCLSolver",
    ) -> Tuple[SymbolicExecutionTrace, "CDCLSolver"]:
        """Charge hardware costs for an already-recorded CDCL trace."""
        for pe in self.pes:
            pe.set_mode(PEMode.SYMBOLIC)
        self.wl_unit.load_formula(formula)

        trace = SymbolicExecutionTrace()
        tree_hops = int(broadcast_cycles(Topology.TREE, self.config.leaves_per_pe))
        cycle = 0

        # Hot loop: replay charges each event from its literal's cached
        # watch summary and accumulates bookkeeping in local counters,
        # flushing to the energy model / WL unit / SRAM banks once at
        # the end — the aggregates are exactly the per-event totals.
        config = self.config
        wl = self.wl_unit
        summary_for = wl.summary_for
        fifo = self.fifo
        queue = fifo._queue
        fifo_stats = fifo.stats
        fifo_depth = fifo.depth
        pipelined = config.pipelined_scheduling
        dram_latency = config.dram_latency_cycles
        leaves_per_pe = config.leaves_per_pe

        decisions = 0
        implications = 0
        conflicts = 0
        fifo_flushes = 0
        network_hops = 0
        control_events = 0
        logic_ops = 0
        fifo_ops = 0
        pushes = 0
        pops = 0
        overflow_stalls = 0
        flushes = 0
        entries_flushed = 0
        max_occupancy = fifo_stats.max_occupancy
        # Traversal statistics are identical for every assignment of the
        # same literal, so the loop keeps one record per literal —
        # [clause count, access cycles, traversals] — and the full
        # per-event accounting is reconstructed afterwards.  The record
        # lookup is intentionally inlined (not a helper) in both the
        # imply and decide branches; keep the two blocks identical.
        lit_state: Dict[int, List[int]] = {}

        # Opt-in binary event trace.  When detached (`emit is None`, the
        # default) each branch pays exactly one local None check; the
        # traced path records absolute replay cycles, which is what
        # repro.trace.analyze.timeline reads the Fig. 9 rows from.
        tw = self.trace
        emit = None if tw is None else tw.emit
        if emit is not None:
            ev_decide = EventKind.DECIDE
            ev_propagate = EventKind.PROPAGATE
            ev_conflict = EventKind.CONFLICT
            ev_learn = EventKind.LEARN
            ev_backjump = EventKind.BACKJUMP
            ev_restart = EventKind.RESTART
            ev_watch = EventKind.WATCH_UPDATE
            ev_dma = EventKind.DMA_FETCH
            ev_bank = EventKind.BANK_READ
            # Per-literal bank-read summaries, cached on the traced path
            # only (the untraced path reconstructs them once at flush).
            lit_banks: Dict[int, tuple] = {}
            emit(EventKind.PHASE, 0, PHASE_SYMBOLIC)

        pending_dma = None
        for event in solver.trace:
            kind = event.kind
            if kind == "imply":
                implications += 1
                # Implication returns through the reduction tree; queued
                # implications pipeline at one per cycle (Fig. 9).
                if queue:
                    cycle += 1
                else:
                    cycle += tree_hops
                if len(queue) >= fifo_depth:
                    overflow_stalls += 1
                    cycle += 1  # overflow stall, retry
                    queue.popleft()
                    pops += 1
                queue.append((event.literal, -1))
                pushes += 1
                occupancy = len(queue)
                if occupancy > max_occupancy:
                    max_occupancy = occupancy
                fifo_ops += 1
                network_hops += 1
                # The queue is non-empty here, so the pop always yields.
                popped = queue.popleft()
                pops += 1
                literal = -popped[0]
                state = lit_state.get(literal)
                if state is None:
                    summary = summary_for(literal)
                    state = [len(summary.clauses), summary.access_cycles, 1]
                    lit_state[literal] = state
                else:
                    state[2] += 1
                num_clauses = state[0]
                access = state[1]
                if access > dram_latency:
                    # Local miss: DMA fetch, partially hidden by
                    # continuing to service the FIFO.
                    pending_dma = self.dma.issue(cycle, words=num_clauses * 4 + 4)
                    hidden = min(len(queue), dram_latency)
                    cycle += max(1, access - hidden)
                    if emit is not None:
                        emit(ev_dma, cycle, num_clauses * 4 + 4)
                else:
                    cycle += access if pipelined else access * 2
                logic_ops += max(num_clauses, 1)
                if emit is not None:
                    emit(ev_propagate, cycle, popped[0])
                    emit(ev_watch, cycle, literal, num_clauses)
                    banks = lit_banks.get(literal)
                    if banks is None:
                        banks = lit_banks[literal] = summary_for(literal).bank_reads
                    for bank, count in banks:
                        emit(ev_bank, cycle, bank, count)
            elif kind == "decide":
                decisions += 1
                cycle += tree_hops  # broadcast decision to leaves
                network_hops += leaves_per_pe
                control_events += 1
                literal = -event.literal
                state = lit_state.get(literal)
                if state is None:
                    summary = summary_for(literal)
                    state = [len(summary.clauses), summary.access_cycles, 1]
                    lit_state[literal] = state
                else:
                    state[2] += 1
                num_clauses = state[0]
                cycle += state[1] if pipelined else state[1] * 2
                logic_ops += num_clauses
                if emit is not None:
                    emit(ev_decide, cycle, event.literal)
                    emit(ev_watch, cycle, literal, num_clauses)
                    banks = lit_banks.get(literal)
                    if banks is None:
                        banks = lit_banks[literal] = summary_for(literal).bank_reads
                    for bank, count in banks:
                        emit(ev_bank, cycle, bank, count)
            elif kind == "conflict":
                conflicts += 1
                cycle += tree_hops  # conflict propagates to the root
                dropped = len(queue)
                queue.clear()
                flushes += 1
                entries_flushed += dropped
                fifo_flushes += 1
                if pending_dma is not None:
                    trace.dma_cancelled += self.dma.cancel_pending(cycle)
                    pending_dma = None
                cycle += 1  # priority control assertion
                control_events += 2
                if emit is not None:
                    emit(ev_conflict, cycle, dropped)
            elif kind == "backjump":
                cycle += 2  # trail unwinding bookkeeping on the scalar PE
                if emit is not None:
                    emit(ev_backjump, cycle, event.level)
            elif kind == "restart":
                cycle += config.pipeline_stages
                if emit is not None:
                    emit(ev_restart, cycle)
            elif kind == "learn":
                # Annotation-only: a learned clause costs no modeled
                # cycles or energy here (the conflict that produced it
                # already paid), so replay accounting is unchanged
                # whether or not the solver trace carries learn events.
                if emit is not None:
                    emit(ev_learn, cycle, event.clause_size)

        trace.decisions = decisions
        trace.implications = implications
        trace.conflicts = conflicts
        trace.fifo_flushes = fifo_flushes

        fifo_stats.pushes += pushes
        fifo_stats.pops += pops
        fifo_stats.overflow_stalls += overflow_stalls
        fifo_stats.flushes += flushes
        fifo_stats.entries_flushed += entries_flushed
        fifo_stats.max_occupancy = max_occupancy

        energy = self.energy
        energy.network_hop += network_hops
        energy.control_overhead += control_events
        energy.logic_op += logic_ops
        energy.fifo_op += fifo_ops

        head_lookups = 0
        traversal_steps = 0
        clause_fetches = 0
        words_touched = 0
        wl_misses = 0
        full_scans = 0
        bank_reads: Dict[int, int] = {}
        for literal, (_, _, times) in lit_state.items():
            summary = summary_for(literal)
            num_clauses = len(summary.clauses)
            if summary.full_scan:
                full_scans += times
            else:
                head_lookups += times
                traversal_steps += times * num_clauses
                wl_misses += times * summary.misses
            clause_fetches += times * num_clauses
            words_touched += times * summary.words_touched
            for bank, count in summary.bank_reads:
                bank_reads[bank] = bank_reads.get(bank, 0) + times * count
        wl.charge_bulk(
            head_lookups,
            traversal_steps,
            clause_fetches,
            words_touched,
            wl_misses,
            full_scans,
            bank_reads,
        )

        trace.cycles = cycle
        if emit is not None:
            emit(EventKind.RUN_END, cycle)
        return trace, solver

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
            aggregate.fifo_flushes += trace.fifo_flushes
        aggregate.cycles = max(pe_busy) if any(pe_busy) else 0
        return aggregate, per_cube

    def run_symbolic_trace(
        self,
        formula: CNF,
        solver: "CDCLSolver",
    ) -> Tuple[SymbolicExecutionTrace, "CDCLSolver"]:
        """Replay an already-solved CDCL run (trace must be recorded)."""
        if not solver.trace and (
            solver.stats.decisions or solver.stats.propagations
        ):
            raise ValueError("solver was run without record_trace=True")
        return self._replay(formula, solver)

    # ------------------------------------------------------------- reports

    def report(self, cycles: int) -> Dict[str, float]:
        return {
            "cycles": cycles,
            "runtime_s": cycles * self.config.cycle_time_s,
            "energy_j": self.energy.total_energy_j(),
            "power_w": self.energy.average_power_w(cycles),
            "area_mm2": self.energy.area_mm2(),
        }
