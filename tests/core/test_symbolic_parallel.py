"""Tests for parallel cube-and-conquer on the REASON accelerator model."""

import pytest

from repro.core.arch.accelerator import ReasonAccelerator
from repro.core.arch.config import ArchConfig
from repro.logic.cdcl import CDCLSolver
from repro.logic.generators import pigeonhole, planted_sat, random_ksat


class TestParallelCubeAndConquer:
    def test_makespan_below_serial_sum(self):
        accelerator = ReasonAccelerator()
        aggregate, per_cube = accelerator.run_symbolic_parallel(pigeonhole(4), cutoff_depth=3)
        assert len(per_cube) > 1
        assert aggregate.cycles < sum(t.cycles for t in per_cube)

    def test_aggregate_counts_sum_cubes(self):
        accelerator = ReasonAccelerator()
        aggregate, per_cube = accelerator.run_symbolic_parallel(
            random_ksat(16, 60, seed=3), cutoff_depth=2
        )
        assert aggregate.conflicts == sum(t.conflicts for t in per_cube)
        assert aggregate.implications == sum(t.implications for t in per_cube)

    def test_single_pe_config_serializes(self):
        single = ArchConfig(num_pes=1)
        accelerator = ReasonAccelerator(single)
        aggregate, per_cube = accelerator.run_symbolic_parallel(pigeonhole(3), cutoff_depth=2)
        assert aggregate.cycles == sum(t.cycles for t in per_cube)

    def test_satisfiable_formula_handles_cubes(self):
        formula, _ = planted_sat(20, 70, seed=4)
        aggregate, per_cube = ReasonAccelerator().run_symbolic_parallel(formula, cutoff_depth=2)
        assert aggregate.cycles > 0

    def test_replay_requires_recorded_trace(self):
        accelerator = ReasonAccelerator()
        solver = CDCLSolver(record_trace=False)
        solver.solve(random_ksat(10, 30, seed=5))
        with pytest.raises(ValueError):
            accelerator.run_symbolic_trace(random_ksat(10, 30, seed=5), solver)
