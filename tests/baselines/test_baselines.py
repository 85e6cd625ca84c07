"""Tests for device cost models, roofline analysis and Table II metrics."""

import pytest

from repro.baselines import (
    DPU_LIKE,
    KernelClass,
    KernelProfile,
    ORIN_NX,
    RTX_A6000,
    TABLE2_KERNELS,
    TPU_LIKE,
    XEON_CPU,
    all_devices,
    attainable_performance,
    characterize_kernel,
    roofline_point,
)


def gemm_profile():
    return KernelProfile(KernelClass.NEURAL_GEMM, flops=1e12, bytes_accessed=1e10)


def logic_profile():
    return KernelProfile(KernelClass.LOGIC, flops=1e8, bytes_accessed=2e9)


class TestDeviceModels:
    def test_table3_constants(self):
        assert RTX_A6000.area_mm2 == 628.0 and RTX_A6000.tdp_w == 300.0
        assert ORIN_NX.tdp_w == 15.0
        assert XEON_CPU.area_mm2 == 1600.0
        assert DPU_LIKE.tech_nm == 28 and DPU_LIKE.tdp_w == pytest.approx(1.10)

    def test_gemm_faster_on_bigger_gpu(self):
        assert RTX_A6000.kernel_time_s(gemm_profile()) < ORIN_NX.kernel_time_s(gemm_profile())

    def test_logic_kernels_relatively_worse_on_gpu(self):
        gpu = RTX_A6000
        gemm_eff = gpu.compute_efficiency[KernelClass.NEURAL_GEMM]
        logic_eff = gpu.compute_efficiency[KernelClass.LOGIC]
        assert gemm_eff / logic_eff > 5  # Table II irregularity gap

    def test_cpu_terrible_at_symbolic_parallelism(self):
        assert XEON_CPU.compute_efficiency[KernelClass.LOGIC] < 0.05

    def test_tpu_pays_emulation_penalty_on_logic(self):
        tpu_time = TPU_LIKE.kernel_time_s(logic_profile())
        dpu_time = DPU_LIKE.kernel_time_s(logic_profile())
        # Despite 1000× more peak FLOPS, the TPU-like array is not
        # proportionally faster on logic kernels.
        assert tpu_time > dpu_time / 50

    def test_energy_positive_and_ordered(self):
        profiles = [gemm_profile()]
        assert 0 < ORIN_NX.energy_j(profiles) < RTX_A6000.energy_j(profiles) * 100

    def test_launch_overhead_counts_launches(self):
        few = KernelProfile(KernelClass.LOGIC, 1e6, 1e6, launches=1)
        many = KernelProfile(KernelClass.LOGIC, 1e6, 1e6, launches=1000)
        assert RTX_A6000.kernel_time_s(many) > RTX_A6000.kernel_time_s(few)

    def test_all_devices_list(self):
        names = [d.name for d in all_devices()]
        assert len(names) == len(set(names)) == 7


class TestRoofline:
    def test_attainable_capped_by_peak(self):
        assert attainable_performance(RTX_A6000, 1e6) == RTX_A6000.peak_tflops

    def test_attainable_bandwidth_limited_at_low_intensity(self):
        value = attainable_performance(RTX_A6000, 0.1)
        assert value == pytest.approx(0.1 * 768e9 / 1e12)

    def test_symbolic_kernels_are_memory_bound(self):
        point = roofline_point(RTX_A6000, logic_profile())
        assert point.memory_bound

    def test_kernel_energy_floors_activity_at_a_tenth(self):
        profile = logic_profile()
        assert XEON_CPU.compute_efficiency[KernelClass.LOGIC] < 0.1
        power = XEON_CPU.idle_w + 0.1 * (XEON_CPU.tdp_w - XEON_CPU.idle_w)
        assert XEON_CPU.kernel_energy_j(profile) == pytest.approx(
            power * XEON_CPU.kernel_time_s(profile)
        )

    def test_gemm_kernels_are_compute_bound(self):
        point = roofline_point(RTX_A6000, gemm_profile())
        assert not point.memory_bound

    def test_achieved_below_attainable(self):
        for profile in (gemm_profile(), logic_profile()):
            point = roofline_point(RTX_A6000, profile)
            assert point.achieved_tflops <= point.attainable_tflops * 1.01

    def test_point_label_defaults_to_the_kernel_class(self):
        assert roofline_point(RTX_A6000, gemm_profile(), "gemm").label == "gemm"
        assert roofline_point(RTX_A6000, logic_profile()).label == KernelClass.LOGIC.value


class TestTable2:
    def test_neural_vs_symbolic_gap(self):
        gemm = characterize_kernel(KernelClass.NEURAL_GEMM)
        logic = characterize_kernel(KernelClass.LOGIC)
        assert gemm.compute_throughput > 90
        assert logic.compute_throughput < 25
        assert gemm.l1_hit_rate > 80
        assert logic.l1_hit_rate < 60
        assert gemm.warp_execution_efficiency > 90
        assert logic.warp_execution_efficiency < 60

    def test_symbolic_kernels_dram_bound(self):
        for kernel_class in (KernelClass.LOGIC, KernelClass.MARGINAL, KernelClass.BAYESIAN):
            metrics = characterize_kernel(kernel_class)
            neural = characterize_kernel(KernelClass.NEURAL_GEMM)
            assert metrics.dram_bw_utilization > neural.dram_bw_utilization

    def test_eligible_warps_collapse_on_irregular_kernels(self):
        gemm = characterize_kernel(KernelClass.NEURAL_GEMM)
        logic = characterize_kernel(KernelClass.LOGIC)
        assert logic.eligible_warps_per_cycle < gemm.eligible_warps_per_cycle / 2

    def test_table2_kernel_order(self):
        labels = [label for label, _ in TABLE2_KERNELS]
        assert labels == ["MatMul", "Softmax", "Sparse MatVec", "Logic", "Marginal", "Bayesian"]

    def test_metrics_within_percent_range(self):
        for _, kernel_class in TABLE2_KERNELS:
            metrics = characterize_kernel(kernel_class)
            for name, value in metrics.as_dict().items():
                if "Warps" in name:
                    assert 0 <= value <= 8
                else:
                    assert 0 <= value <= 100, f"{name} out of range"
