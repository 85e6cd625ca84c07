"""Tests for the workload profiler (Fig. 3 reproduction machinery)."""

import pytest

from repro.baselines.device import ORIN_NX, RTX_A6000
from repro.profiling import profile_workload, runtime_breakdown, sparsity_of_workload
from repro.workloads import all_workloads
from repro.workloads.alphageometry import AlphaGeometryWorkload
from repro.workloads.gelato import GeLaToWorkload


class TestProfileWorkload:
    def test_calibrated_share_matches_paper(self):
        workload = AlphaGeometryWorkload()
        profile = profile_workload(workload, RTX_A6000)
        assert profile.symbolic_share == pytest.approx(
            workload.symbolic_runtime_share, abs=0.01
        )

    def test_orin_slower_than_a6000(self):
        workload = AlphaGeometryWorkload()
        fast = profile_workload(workload, RTX_A6000)
        slow = profile_workload(workload, ORIN_NX)
        assert slow.total_s > fast.total_s

    def test_large_scale_increases_symbolic_share(self):
        workload = GeLaToWorkload()
        small = profile_workload(workload, RTX_A6000, scale="small")
        large = profile_workload(workload, RTX_A6000, scale="large")
        assert large.symbolic_share > small.symbolic_share

    def test_runtime_breakdown_covers_all_workloads(self):
        profiles = runtime_breakdown(all_workloads(), RTX_A6000)
        assert len(profiles) == 6
        names = {p.workload for p in profiles}
        assert "AlphaGeometry" in names and "LINC" in names


class TestSparsity:
    @pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
    def test_sparsity_in_unit_interval(self, workload):
        value = sparsity_of_workload(workload)
        assert 0.0 <= value <= 1.0

    def test_symbolic_workloads_are_sparse(self):
        # Paper Sec. III-B: 75-89% sparsity across workloads; our logic
        # kernels should land in a comparable band.
        value = sparsity_of_workload(AlphaGeometryWorkload())
        assert value > 0.5
