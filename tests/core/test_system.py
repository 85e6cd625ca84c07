"""Tests for the system layer: coprocessor API, partitioning, pipeline,
and running kernels on the REASON accelerator model."""

import pytest

from repro import ReasonSession
from repro.baselines.device import KernelClass, KernelProfile, ORIN_NX, RTX_A6000
from repro.core.dag import circuit_to_dag
from repro.core.system import (
    ReasonCoprocessor,
    CoprocessorStatus,
    TwoLevelPipeline,
    baseline_end_to_end,
    partition_kernels,
    reason_end_to_end,
)
from repro.core.system.coprocessor import ReasoningMode
from repro.hmm.model import HMM
from repro.logic.generators import random_ksat
from repro.pc.learn import random_circuit, sample_dataset


class TestCoprocessor:
    def test_execute_requires_neural_ready_flag(self):
        coprocessor = ReasonCoprocessor()
        with pytest.raises(RuntimeError):
            coprocessor.reason_execute(0, 1, random_ksat(8, 24, seed=0), ReasoningMode.SYMBOLIC)

    def test_symbolic_execution_sets_ready_flag(self):
        coprocessor = ReasonCoprocessor()
        coprocessor.flags.set_neural_ready(0)
        record = coprocessor.reason_execute(0, 1, random_ksat(8, 24, seed=0), ReasoningMode.SYMBOLIC)
        assert coprocessor.flags.symbolic_ready[0]
        assert record.cycles > 0

    def test_probabilistic_execution(self):
        coprocessor = ReasonCoprocessor()
        coprocessor.flags.set_neural_ready(1)
        dag, _ = circuit_to_dag(random_circuit(5, depth=2, seed=1))
        record = coprocessor.reason_execute(1, 4, dag, ReasoningMode.PROBABILISTIC)
        assert record.cycles > 0
        assert coprocessor.result_of(1) == pytest.approx(1.0)  # normalized circuit

    def test_mode_type_checks(self):
        coprocessor = ReasonCoprocessor()
        coprocessor.flags.set_neural_ready(0)
        with pytest.raises(TypeError):
            coprocessor.reason_execute(0, 1, random_ksat(5, 10, seed=2), ReasoningMode.PROBABILISTIC)

    def test_status_blocking_advances_time(self):
        coprocessor = ReasonCoprocessor()
        coprocessor.flags.set_neural_ready(0)
        record = coprocessor.reason_execute(0, 1, random_ksat(10, 30, seed=3), ReasoningMode.SYMBOLIC)
        status, t = coprocessor.reason_check_status(0, blocking=False, now_s=0.0)
        assert status is CoprocessorStatus.EXECUTION
        status, t = coprocessor.reason_check_status(0, blocking=True, now_s=0.0)
        assert status is CoprocessorStatus.IDLE
        assert t == pytest.approx(record.finish_time_s)

    def test_unknown_batch_is_idle(self):
        status, _ = ReasonCoprocessor().reason_check_status(42)
        assert status is CoprocessorStatus.IDLE

    def test_queued_batches_serialize(self):
        coprocessor = ReasonCoprocessor()
        coprocessor.flags.set_neural_ready(0)
        coprocessor.flags.set_neural_ready(1)
        first = coprocessor.reason_execute(0, 1, random_ksat(10, 30, seed=4), ReasoningMode.SYMBOLIC)
        second = coprocessor.reason_execute(1, 1, random_ksat(10, 30, seed=5), ReasoningMode.SYMBOLIC)
        assert second.finish_time_s > first.finish_time_s


class TestPartition:
    def test_policy(self):
        profiles = [
            KernelProfile(KernelClass.NEURAL_GEMM, 1e9, 1e6),
            KernelProfile(KernelClass.LOGIC, 1e6, 1e6),
            KernelProfile(KernelClass.MARGINAL, 1e6, 1e6),
        ]
        gpu, reason = partition_kernels(profiles)
        assert len(gpu) == 1 and len(reason) == 2

    def test_spmspm_goes_to_reason(self):
        gpu, reason = partition_kernels([KernelProfile(KernelClass.SPARSE_MATVEC, 1e6, 1e6)])
        assert not gpu and len(reason) == 1


class TestTwoLevelPipeline:
    def test_pipelined_beats_serial(self):
        pipeline = TwoLevelPipeline()
        neural = [0.1] * 8
        symbolic = [0.1] * 8
        overlapped = pipeline.run(neural, symbolic, pipelined=True)
        serial = pipeline.run(neural, symbolic, pipelined=False)
        assert overlapped.total_s < serial.total_s
        assert overlapped.overlap_saved_s > 0

    def test_steady_state_tracks_bottleneck_stage(self):
        pipeline = TwoLevelPipeline(handoff_s=0.0)
        result = pipeline.run([0.01] * 100, [0.05] * 100)
        # Per-task cost approaches the symbolic stage time.
        assert result.total_s / 100 == pytest.approx(0.05, rel=0.05)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            TwoLevelPipeline().run([0.1], [])

    def test_empty_batch(self):
        result = TwoLevelPipeline().run([], [])
        assert result.total_s == 0.0


class TestEndToEndModels:
    def _profiles(self):
        neural = [KernelProfile(KernelClass.NEURAL_GEMM, 1e12, 1e10)]
        symbolic = [KernelProfile(KernelClass.LOGIC, 1e8, 1e9, launches=200)]
        return neural, symbolic

    def test_coupled_overhead(self):
        neural, symbolic = self._profiles()
        plain = baseline_end_to_end(RTX_A6000, neural, symbolic)
        coupled = baseline_end_to_end(RTX_A6000, neural, symbolic, coupled_devices=True)
        assert coupled.total_s == pytest.approx(plain.total_s * 1.15)

    def test_reason_system_faster_than_baseline(self):
        neural, symbolic = self._profiles()
        baseline = baseline_end_to_end(ORIN_NX, neural, symbolic, symbolic_scale=10.0)
        report = run_on_reason(random_ksat(20, 70, seed=6))
        system = reason_end_to_end(
            ORIN_NX, neural, report, symbolic_scale=10.0, llm_optimization_speedup=3.0
        )
        assert system.total_s < baseline.total_s

    def test_symbolic_share_reported(self):
        neural, symbolic = self._profiles()
        result = baseline_end_to_end(RTX_A6000, neural, symbolic)
        assert 0.0 < result.symbolic_share < 1.0


def run_on_reason(kernel, **options):
    """One cold run on the accelerator model."""
    return ReasonSession().run(kernel, backend="reason", **options)


class TestRunner:
    def test_cnf_kernel(self):
        timing = run_on_reason(random_ksat(15, 50, seed=7))
        assert timing.cycles > 0
        assert timing.seconds > 0
        assert timing.energy_j > 0

    def test_circuit_kernel(self):
        circuit = random_circuit(5, depth=2, seed=8)
        data = sample_dataset(circuit, 20, seed=9)
        timing = run_on_reason(circuit, calibration=data)
        assert timing.cycles > 0

    def test_hmm_kernel(self):
        hmm = HMM.random(3, 4, seed=10)
        timing = run_on_reason(hmm, hmm_observations=[0, 1, 2, 3])
        assert timing.cycles > 0

    def test_queries_scale_cycles(self):
        formula = random_ksat(12, 40, seed=11)
        one = run_on_reason(formula, queries=1)
        many = run_on_reason(formula, queries=10)
        assert many.cycles == one.cycles * 10

    def test_algorithm_optimizations_toggle(self):
        formula = random_ksat(20, 60, k=2, seed=12)
        optimized = run_on_reason(formula, optimize=True)
        raw = run_on_reason(formula, optimize=False)
        assert optimized.cycles > 0 and raw.cycles > 0

    def test_scaled_timing(self):
        timing = run_on_reason(random_ksat(10, 30, seed=13))
        scaled = timing.scaled(100.0)
        assert scaled.cycles == pytest.approx(timing.cycles * 100, rel=0.01)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(TypeError):
            run_on_reason("nope")
