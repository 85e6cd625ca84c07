"""The request path driven stage by stage, a span around every stage.

:class:`StagedPipeline` does by hand what ``ReasonSession.run`` does in
one call — fingerprint, cache lookup, front end, backend — using only
public functions of each layer, so the traced run can say where a
request's time went without instrumenting ``src/``.  The traced run
asserts the staged report's ``identity()`` equals ``session.run``'s on
the same request; when the front end in ``repro.api.adapters`` changes
shape, that assertion fails and this file has to follow.

Two children cannot be seen from outside their parent: the accelerator
call inside ``ReasonBackend.run`` and ``map_block_to_tree`` inside
``schedule_program``.  Both are measured by calling them directly a
second time, on the same inputs, as sibling spans.
"""

from __future__ import annotations

from collections import Counter
from typing import List

from repro.api.adapters import RunOptions, adapter_for
from repro.api.backends import ReasonBackend
from repro.api.cache import CompileCache
from repro.api.types import CompiledArtifact, ExecutionReport
from repro.core.arch.accelerator import ReasonAccelerator
from repro.core.arch.config import DEFAULT_CONFIG, ArchConfig
from repro.core.arch.tree_pe import PEMode
from repro.core.compiler import (
    CompileStats,
    decompose_blocks,
    map_block_to_tree,
    map_operands_to_banks,
    schedule_program,
)
from repro.core.dag import (
    circuit_to_dag,
    cnf_to_dag,
    default_leaf_inputs,
    hmm_to_dag,
    is_two_input,
    prune_circuit_by_flow,
    prune_hmm_by_posterior,
    prune_logic_dag,
    regularize_two_input,
)
from repro.core.dag.graph import Dag
from repro.logic.cdcl import CDCLSolver

from bench.kernels import KernelRequest
from bench.tracing import Tracer


class StagedPipeline:
    """The stage-by-stage drive over a compile cache the caller owns.

    ``counts`` accumulates the work counters read at each boundary
    (solver stats, DAG sizes, schedule stats, modeled stalls);
    ``utilization`` and ``memory_reduction`` collect per-request ratios.
    """

    def __init__(
        self, tracer: Tracer, cache: CompileCache, config: ArchConfig = DEFAULT_CONFIG
    ) -> None:
        self.tracer = tracer
        self.config = config
        self.cache = cache
        self.backend = ReasonBackend()
        self.counts: Counter = Counter()
        self.utilization: List[float] = []
        self.memory_reduction: List[float] = []
        self.issue_efficiency: List[float] = []

    # ---------------------------------------------------------- request

    def run(self, request: KernelRequest, request_id: int) -> ExecutionReport:
        """Fingerprint, cache lookup (compiling on a miss), backend."""
        span = self.tracer.span
        kernel = request.kernel
        options = RunOptions(**request.options)
        adapter = adapter_for(kernel)
        with span("bench.staged_request", request_id):
            with span("api.adapters.fingerprint", request_id):
                key = adapter.fingerprint(kernel, options, self.config)
            with span("api.cache.lookup", request_id) as lookup:
                artifact, hit = self.cache.get_or_compile(
                    key, lambda: self.compile(request, options, key, request_id)
                )
            lookup.name = "api.cache.lookup_hit" if hit else "api.cache.lookup_miss"
            with span("api.backends.run", request_id):
                report = self.backend.run(
                    artifact, config=self.config, queries=request.queries, options=options
                )
        report.cache_hit = hit
        self.execute_directly(artifact, request_id)
        return report

    def execute_directly(self, artifact: CompiledArtifact, request_id: int) -> None:
        """The accelerator call ``ReasonBackend.run`` makes, made again
        on a fresh chip so it shows as a span of its own."""
        accelerator = ReasonAccelerator(self.config)
        if artifact.solver is not None:
            with self.tracer.span("core.arch.replay", request_id):
                accelerator.run_symbolic_trace(artifact.model, artifact.solver)
            self.counts["replay_events"] += len(artifact.solver.trace)
            return
        inputs = default_leaf_inputs(artifact.program.dag)
        with self.tracer.span("core.arch.run_program", request_id):
            outcome = accelerator.run_program(
                artifact.program, inputs, mode=PEMode.PROBABILISTIC
            )
        self.counts["instructions_run"] += outcome.instructions
        self.counts["stalls"] += outcome.stalls
        self.utilization.append(outcome.utilization)

    # -------------------------------------------------------- front end

    def compile(
        self, request: KernelRequest, options: RunOptions, key: str, request_id: int
    ) -> CompiledArtifact:
        """The offline front end of ``repro.api.adapters``, one public
        call per stage."""
        kind = adapter_for(request.kernel).kind
        with self.tracer.span("bench.staged_compile", request_id):
            if kind == "cnf":
                return self._compile_cnf(request.kernel, key, request_id)
            if kind == "circuit":
                return self._compile_circuit(request.kernel, options, key, request_id)
            if kind == "hmm":
                return self._compile_hmm(request.kernel, options, key, request_id)
        raise TypeError(f"no staged front end for kernel kind {kind!r}")

    def _sizes(self, before: Dag, pruned: Dag, final: Dag) -> None:
        self.counts["nodes_before"] += before.num_nodes
        self.counts["nodes_after"] += final.num_nodes
        footprint = before.memory_footprint()
        if footprint:
            self.memory_reduction.append(1.0 - pruned.memory_footprint() / footprint)

    def _compile_cnf(self, kernel, key: str, request_id: int) -> CompiledArtifact:
        span = self.tracer.span
        with span("core.dag.build", request_id):
            baseline, _ = cnf_to_dag(kernel)
        with span("core.dag.prune", request_id):
            pruned_dag, pruned, _ = prune_logic_dag(kernel)
        with span("core.dag.regularize", request_id):
            final = regularize_two_input(pruned_dag)
        self._sizes(baseline, pruned_dag, final)
        solver = CDCLSolver(record_trace=True)
        with span("logic.solve", request_id):
            verdict, model = solver.solve(pruned)
        for name in ("conflicts", "propagations", "clause_fetches"):
            self.counts[name] += getattr(solver.stats, name)
        return CompiledArtifact(
            kind="cnf",
            key=key,
            kernel=kernel,
            model=pruned,
            solver=solver,
            extras={"verdict": verdict, "assignment": model},
        )

    def _compile_circuit(self, kernel, options, key, request_id) -> CompiledArtifact:
        span = self.tracer.span
        with span("core.dag.build", request_id):
            baseline, _ = circuit_to_dag(kernel)
        if not (options.optimize and options.calibration):
            return self._compile_dag("circuit", kernel, kernel, baseline, key, request_id)
        with span("core.dag.prune", request_id):
            pruned, _ = prune_circuit_by_flow(
                kernel, list(options.calibration), keep_fraction=options.keep_fraction
            )
        with span("core.dag.build", request_id):
            pruned_dag, _ = circuit_to_dag(pruned)
        with span("core.dag.regularize", request_id):
            final = regularize_two_input(pruned_dag)
        self._sizes(baseline, pruned_dag, final)
        return self._compile_dag("circuit", kernel, pruned, final, key, request_id)

    def _compile_hmm(self, kernel, options, key, request_id) -> CompiledArtifact:
        span = self.tracer.span
        observations = adapter_for(kernel).observations_for(kernel, options)
        if not (options.optimize and options.calibration):
            with span("core.dag.build", request_id):
                dag = hmm_to_dag(kernel, observations)
            artifact = self._compile_dag("hmm", kernel, kernel, dag, key, request_id)
            artifact.extras["observations"] = observations
            return artifact
        sequences = [list(sequence) for sequence in options.calibration]
        with span("core.dag.build", request_id):
            baseline = hmm_to_dag(kernel, sequences[0])
        with span("core.dag.prune", request_id):
            pruned, _ = prune_hmm_by_posterior(
                hmm=kernel,
                calibration_sequences=sequences,
                threshold_quantile=1.0 - options.keep_fraction,
            )
        with span("core.dag.build", request_id):
            pruned_dag = hmm_to_dag(pruned, sequences[0], prune_transition_below=0.0)
        with span("core.dag.regularize", request_id):
            final = regularize_two_input(pruned_dag)
        self._sizes(baseline, pruned_dag, final)
        artifact = self._compile_dag("hmm", kernel, pruned, final, key, request_id)
        artifact.extras["observations"] = list(options.calibration[0])
        return artifact

    def _compile_dag(
        self, kind: str, kernel, model, dag: Dag, key: str, request_id: int
    ) -> CompiledArtifact:
        """``compile_dag``, one span per compiler step."""
        span, config = self.tracer.span, self.config
        working = dag
        if not is_two_input(working):
            with span("core.dag.regularize", request_id):
                working = regularize_two_input(working)
            self._sizes(dag, dag, working)
        with span("core.compiler.blocks", request_id):
            blocks = decompose_blocks(working, config.tree_depth)
        with span("core.compiler.mapping", request_id):
            assignment = map_operands_to_banks(working, blocks, config.num_banks)
        with span("core.compiler.schedule", request_id):
            program, schedule = schedule_program(working, blocks, assignment, config)
        program.dag = working
        with span("core.compiler.tree_map", request_id):
            for block in blocks:
                map_block_to_tree(working, block, config.tree_depth)
        counts = self.counts
        counts["blocks"] += len(blocks)
        counts["instructions"] += len(program.instructions)
        counts["nops"] += schedule.nops
        counts["spills"] += schedule.spills
        counts["reloads"] += schedule.reloads
        counts["bank_conflicts_static"] += assignment.conflicts
        self.issue_efficiency.append(schedule.issue_efficiency)
        mean_ops = sum(b.num_ops for b in blocks) / len(blocks) if blocks else 0.0
        return CompiledArtifact(
            kind=kind,
            key=key,
            kernel=kernel,
            model=model,
            dag=working,
            program=program,
            compile_stats=CompileStats(
                len(blocks), mean_ops, assignment.conflicts, schedule
            ),
        )
