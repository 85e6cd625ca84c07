"""Cross-module integration tests: workload kernels through the full
optimize → compile → execute stack, and stack-level consistency
invariants the paper's correctness claims rest on."""

import math

import pytest

from repro import ReasonSession
from repro.core.arch import ReasonAccelerator
from repro.core.arch.config import ArchConfig, DEFAULT_CONFIG
from repro.core.arch.tree_pe import PEMode
from repro.core.compiler import compile_dag
from repro.core.dag import circuit_to_dag, default_leaf_inputs, hmm_to_dag, optimize
from repro.hmm.inference import log_likelihood as hmm_ll
from repro.hmm.model import HMM
from repro.logic.cdcl import SolveResult, solve_cnf
from repro.pc.circuit import Circuit
from repro.pc.inference import likelihood
from repro.pc.learn import sample_dataset
from repro.workloads import all_workloads


class TestWorkloadKernelsOnAccelerator:
    """Every workload's REASON kernel must execute on the full stack."""

    @pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
    def test_kernel_runs_end_to_end(self, workload):
        instance = workload.generate_instance(workload.tasks[0], seed=0)
        kernel = workload.reason_kernel(instance)
        calibration = None
        if isinstance(kernel, Circuit):
            calibration = sample_dataset(kernel, 15, seed=1)
        elif isinstance(kernel, HMM):
            calibration = workload.calibration_sequences(instance)
        report = ReasonSession().run(kernel, calibration=calibration)
        assert report.cycles > 0
        assert report.energy_j > 0

    @pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
    def test_optimized_kernel_not_larger(self, workload):
        instance = workload.generate_instance(workload.tasks[0], seed=1)
        kernel = workload.reason_kernel(instance)
        calibration = None
        if isinstance(kernel, Circuit):
            calibration = sample_dataset(kernel, 15, seed=2)
        elif isinstance(kernel, HMM):
            calibration = workload.calibration_sequences(instance)
        result = optimize(kernel, calibration=calibration)
        assert result.memory_after <= result.memory_before


class TestPrunedKernelsStayCorrect:
    def test_pruned_sat_kernels_equisatisfiable(self):
        from repro.workloads.alphageometry import AlphaGeometryWorkload

        workload = AlphaGeometryWorkload()
        for seed in range(3):
            instance = workload.generate_instance("IMO", seed=seed)
            formula = workload.reason_kernel(instance)
            result = optimize(formula)
            before, _ = solve_cnf(formula)
            after, _ = solve_cnf(result.pruned_model)
            assert before is after

    def test_pruned_circuit_still_normalized(self):
        from repro.workloads.r2guard import R2GuardWorkload

        workload = R2GuardWorkload()
        instance = workload.generate_instance("XSTest", seed=0)
        circuit = workload.reason_kernel(instance)
        data = sample_dataset(circuit, 25, seed=3)
        result = optimize(circuit, calibration=data, keep_fraction=0.7)
        assert likelihood(result.pruned_model, {}) == pytest.approx(1.0)

    def test_pruned_hmm_still_stochastic(self):
        from repro.workloads.gelato import GeLaToWorkload

        workload = GeLaToWorkload()
        instance = workload.generate_instance("CommonGen", seed=0)
        hmm = workload.reason_kernel(instance)
        sequences = workload.calibration_sequences(instance)
        result = optimize(hmm, calibration=sequences, keep_fraction=0.7)
        result.pruned_model.validate_stochastic()


class TestHardwareSoftwareAgreement:
    """The accelerator is a faithful executor, not an approximation."""

    def test_circuit_program_exact_across_configs(self):
        from repro.pc.learn import random_circuit

        circuit = random_circuit(7, depth=3, seed=4)
        dag, _ = circuit_to_dag(circuit)
        for depth in (2, 3, 4):
            config = ArchConfig(tree_depth=depth)
            program, _ = compile_dag(dag, config)
            inputs = default_leaf_inputs(program.dag)
            report = ReasonAccelerator(config).run_program(program, inputs)
            assert report.result == pytest.approx(likelihood(circuit, {}))

    def test_hmm_program_matches_forward_algorithm(self):
        hmm = HMM.random(4, 5, seed=5)
        observations = [0, 3, 1, 4, 2]
        dag = hmm_to_dag(hmm, observations)
        program, _ = compile_dag(dag, DEFAULT_CONFIG)
        inputs = default_leaf_inputs(program.dag)
        report = ReasonAccelerator().run_program(program, inputs, PEMode.PROBABILISTIC)
        assert math.log(report.result) == pytest.approx(hmm_ll(hmm, observations))

    def test_symbolic_replay_consistent_with_solver(self):
        from repro.logic.generators import redundant_sat

        formula, _ = redundant_sat(30, 110, seed=6)
        accelerator = ReasonAccelerator()
        trace, solver = accelerator.run_symbolic(formula)
        assert trace.decisions == solver.stats.decisions
        assert trace.implications == solver.stats.propagations
        assert trace.conflicts == solver.stats.conflicts

    def test_optimization_does_not_change_symbolic_verdict(self):
        from repro.logic.generators import redundant_sat

        formula, plant = redundant_sat(25, 95, seed=7)
        result = optimize(formula)
        verdict_raw, _ = solve_cnf(formula)
        verdict_opt, _ = solve_cnf(result.pruned_model)
        assert verdict_raw is verdict_opt is SolveResult.SAT
        assert formula.is_satisfied_by(plant)


class TestEndToEndSpeedupStructure:
    def test_reason_faster_than_unoptimized_path(self):
        """The Stage 1-3 optimizations shrink the replay workload on
        kernels with redundancy (Table V's algorithm contribution)."""
        from repro.logic.generators import redundant_sat

        formula, _ = redundant_sat(50, 200, redundancy=0.35, seed=8)
        session = ReasonSession()
        raw = session.run(formula, optimize=False)
        optimized = session.run(formula, optimize=True)
        # Pruned formulas never cost more; usually they cost less.
        assert optimized.cycles <= raw.cycles * 1.2
