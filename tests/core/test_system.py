"""Tests for the system layer: the two-level pipeline, and running
kernels on the REASON accelerator model."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ReasonSession
from repro.core.arch.config import DEFAULT_CONFIG
from repro.core.system import PipelineResult, TwoLevelPipeline
from repro.core.system.pipeline import HANDOFF_S
from repro.hmm.model import HMM
from repro.logic.generators import pigeonhole, random_ksat
from repro.pc.learn import random_circuit, sample_dataset


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
        pipeline = TwoLevelPipeline()
        result = pipeline.run([0.01] * 100, [0.05] * 100)
        # Per-task cost approaches the symbolic stage time.
        assert result.total_s / 100 == pytest.approx(0.05, rel=0.05)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            TwoLevelPipeline().run([0.1], [])

    def test_empty_batch(self):
        result = TwoLevelPipeline().run([], [])
        assert result.total_s == 0.0

    @pytest.mark.parametrize("tasks", [0, 1, 3])
    @pytest.mark.parametrize("pipelined", [True, False])
    def test_numpy_stage_times_match_lists(self, tasks, pipelined):
        neural = [0.01 * (i + 1) for i in range(tasks)]
        symbolic = [0.02 * (i + 2) for i in range(tasks)]
        pipeline = TwoLevelPipeline()
        from_lists = pipeline.run(neural, symbolic, pipelined=pipelined)
        from_arrays = pipeline.run(np.array(neural), np.array(symbolic), pipelined=pipelined)
        assert from_arrays == from_lists
        for field in ("total_s", "neural_s", "symbolic_s", "overlap_saved_s"):
            assert type(getattr(from_arrays, field)) is float, field

    def test_single_task_has_nothing_to_overlap(self):
        pipeline = TwoLevelPipeline()
        pipelined = pipeline.run([0.2], [0.3])
        serial = pipeline.run([0.2], [0.3], pipelined=False)
        assert pipelined.total_s == pytest.approx(serial.total_s)
        assert pipelined.overlap_saved_s == pytest.approx(0.0)

    def test_serial_charges_one_handoff_per_task(self):
        result = TwoLevelPipeline().run([1.0, 2.0], [3.0, 4.0], pipelined=False)
        assert result == PipelineResult(10.0 + 2 * HANDOFF_S, 3.0, 7.0, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=12
        )
    )
    def test_pipelined_total_between_bottleneck_and_serial(self, stages):
        neural = [n for n, _ in stages]
        symbolic = [s for _, s in stages]
        pipeline = TwoLevelPipeline()
        overlapped = pipeline.run(neural, symbolic)
        serial = pipeline.run(neural, symbolic, pipelined=False)
        tolerance = 1e-9
        assert max(sum(neural), sum(symbolic)) <= overlapped.total_s + tolerance
        assert overlapped.total_s <= serial.total_s + tolerance
        assert overlapped.overlap_saved_s == pytest.approx(serial.total_s - overlapped.total_s)

    def test_idle_batch_has_no_symbolic_share(self):
        assert TwoLevelPipeline().run([], []) == PipelineResult(0.0, 0.0, 0.0, 0.0)


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

    def test_cnf_report_is_a_single_pe_replay(self):
        # The symbolic replay runs on one tree PE, so the PE count moves
        # neither its cycles nor its energy.
        reports = [
            ReasonSession(config=replace(DEFAULT_CONFIG, num_pes=n)).run(pigeonhole(4))
            for n in (1, 12, 24)
        ]
        assert len({(report.cycles, report.energy_j) for report in reports}) == 1

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
