"""Device cost models for the paper's hardware baselines (Table III).

Each device is a roofline with per-kernel-class efficiency derating:
``time = max(flops / (peak · eff_c), bytes / (bw · eff_m)) + overhead``.
The efficiency factors come from the paper's Table II profiling (e.g.
GPUs sustain ~97% of peak on MatMul but ~15% on logic kernels, and
symbolic kernels are DRAM-bound at ~70% bandwidth utilization with poor
cache hit rates).  CPU factors reflect the paper's observation of <5%
parallel efficiency on symbolic kernels; the TPU-like array executes
only dense tensor ops natively and pays an emulation penalty on
symbolic/probabilistic kernels; the DPU-like tree array runs irregular
DAGs well but lacks REASON's symbolic machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List


class KernelClass(enum.Enum):
    """Kernel families with distinct execution characteristics."""

    NEURAL_GEMM = "neural_gemm"
    NEURAL_SOFTMAX = "neural_softmax"
    SPARSE_MATVEC = "sparse_matvec"
    LOGIC = "logic"  # SAT/FOL deduction
    MARGINAL = "marginal"  # PC bottom-up passes
    BAYESIAN = "bayesian"  # HMM message passing / belief update


@dataclass(frozen=True)
class KernelProfile:
    """Work description of one kernel launch."""

    kernel_class: KernelClass
    flops: float
    bytes_accessed: float
    launches: int = 1

    @property
    def operational_intensity(self) -> float:
        if self.bytes_accessed <= 0:
            return float("inf")
        return self.flops / self.bytes_accessed


@dataclass(frozen=True)
class DeviceModel:
    """A roofline device with kernel-class efficiency derating.

    ``peak_tflops`` / ``bandwidth_gbps`` define the roofline;
    ``compute_efficiency`` / ``bandwidth_efficiency`` derate it per
    kernel class; ``launch_overhead_s`` charges per kernel launch (the
    host-device round trip that dominates fine-grained symbolic kernels
    on discrete devices).
    """

    name: str
    peak_tflops: float
    bandwidth_gbps: float
    tdp_w: float
    idle_w: float
    area_mm2: float
    tech_nm: int
    launch_overhead_s: float
    compute_efficiency: Dict[KernelClass, float]
    bandwidth_efficiency: Dict[KernelClass, float]

    def kernel_time_s(self, profile: KernelProfile) -> float:
        eff_c = self.compute_efficiency[profile.kernel_class]
        eff_m = self.bandwidth_efficiency[profile.kernel_class]
        compute_s = profile.flops / (self.peak_tflops * 1e12 * eff_c)
        memory_s = profile.bytes_accessed / (self.bandwidth_gbps * 1e9 * eff_m)
        return max(compute_s, memory_s) + self.launch_overhead_s * profile.launches

    def run(self, profiles: Iterable[KernelProfile]) -> float:
        """Serialized execution time of a kernel sequence."""
        return sum(self.kernel_time_s(p) for p in profiles)

    def kernel_energy_j(self, profile: KernelProfile) -> float:
        """Energy of one kernel launch (the cost model's unit: busy
        power scaled by the class's sustained activity)."""
        activity = self.compute_efficiency[profile.kernel_class]
        power = self.idle_w + (self.tdp_w - self.idle_w) * max(activity, 0.1)
        return power * self.kernel_time_s(profile)

    def energy_j(self, profiles: Iterable[KernelProfile]) -> float:
        """Energy: busy power scaled by sustained utilization per kernel.

        Memory-bound kernels keep the chip partially idle, so the power
        draw interpolates between idle and TDP with the compute
        efficiency as the activity factor.
        """
        return sum(self.kernel_energy_j(profile) for profile in profiles)


def _eff(neural_gemm, neural_softmax, sparse, logic, marginal, bayesian) -> Dict[KernelClass, float]:
    return {
        KernelClass.NEURAL_GEMM: neural_gemm,
        KernelClass.NEURAL_SOFTMAX: neural_softmax,
        KernelClass.SPARSE_MATVEC: sparse,
        KernelClass.LOGIC: logic,
        KernelClass.MARGINAL: marginal,
        KernelClass.BAYESIAN: bayesian,
    }


# Compute efficiencies follow Table II's "Compute Throughput" row for
# the GPU; bandwidth efficiencies its "DRAM BW Utilization" row.
RTX_A6000 = DeviceModel(
    name="RTX A6000",
    peak_tflops=38.7,
    bandwidth_gbps=768.0,
    tdp_w=300.0,
    idle_w=25.0,
    area_mm2=628.0,
    tech_nm=8,
    launch_overhead_s=6e-6,
    compute_efficiency=_eff(0.968, 0.622, 0.325, 0.147, 0.350, 0.311),
    bandwidth_efficiency=_eff(0.80, 0.60, 0.574, 0.703, 0.608, 0.680),
)

ORIN_NX = DeviceModel(
    name="Orin NX",
    peak_tflops=1.88,  # fp32-equivalent sustained for the 512-core GPU
    bandwidth_gbps=102.4,
    tdp_w=15.0,
    idle_w=5.0,
    area_mm2=450.0,
    tech_nm=8,
    launch_overhead_s=9e-6,
    compute_efficiency=_eff(0.94, 0.58, 0.29, 0.125, 0.31, 0.27),
    bandwidth_efficiency=_eff(0.75, 0.55, 0.52, 0.65, 0.56, 0.62),
)

XEON_CPU = DeviceModel(
    name="Xeon CPU",
    peak_tflops=3.2,  # 60 cores × AVX-512 FMA at ~1.7 GHz sustained
    bandwidth_gbps=307.0,
    tdp_w=270.0,
    idle_w=80.0,
    area_mm2=1600.0,
    tech_nm=10,
    launch_overhead_s=0.5e-6,
    # <5% parallel efficiency on symbolic (paper Sec. VII-C): symbolic
    # kernels run essentially single-threaded with pointer-chasing
    # access patterns, so effective bandwidth collapses to ~20 GB/s.
    compute_efficiency=_eff(0.70, 0.45, 0.12, 0.04, 0.06, 0.05),
    bandwidth_efficiency=_eff(0.65, 0.50, 0.20, 0.07, 0.08, 0.08),
)

V100 = DeviceModel(
    name="V100",
    peak_tflops=15.7,
    bandwidth_gbps=900.0,
    tdp_w=300.0,
    idle_w=30.0,
    area_mm2=815.0,
    tech_nm=12,
    launch_overhead_s=7e-6,
    compute_efficiency=_eff(0.95, 0.60, 0.30, 0.13, 0.32, 0.29),
    bandwidth_efficiency=_eff(0.78, 0.58, 0.55, 0.68, 0.58, 0.65),
)

A100 = DeviceModel(
    name="A100",
    peak_tflops=78.0,  # fp16 tensor-core class for the LLM side
    bandwidth_gbps=1935.0,
    tdp_w=400.0,
    idle_w=40.0,
    area_mm2=826.0,
    tech_nm=7,
    launch_overhead_s=6e-6,
    compute_efficiency=_eff(0.97, 0.65, 0.34, 0.155, 0.36, 0.33),
    bandwidth_efficiency=_eff(0.82, 0.62, 0.58, 0.71, 0.62, 0.69),
)

# TPU-like systolic array (8 × 128×128 PEs): superb on dense tensor ops;
# symbolic/probabilistic kernels must be emulated as dense ops with very
# low useful occupancy (Fig. 13 shows ~75-110× worse than REASON).
TPU_LIKE = DeviceModel(
    name="TPU-like",
    peak_tflops=96.0,
    bandwidth_gbps=1200.0,
    tdp_w=192.0,
    idle_w=30.0,
    area_mm2=400.0,
    tech_nm=7,
    launch_overhead_s=10e-6,
    compute_efficiency=_eff(0.98, 0.50, 0.05, 0.004, 0.006, 0.005),
    bandwidth_efficiency=_eff(0.85, 0.55, 0.30, 0.25, 0.28, 0.26),
)

# DPU-like tree array (MAERI/DPU-v2 class): executes irregular DAGs
# natively but at small scale, without watched-literals hardware or the
# two-level pipeline (Fig. 13: ~2-24× slower than REASON on symbolic).
DPU_LIKE = DeviceModel(
    name="DPU-like",
    peak_tflops=0.056,  # 8 PEs × 56 nodes at 500 MHz
    bandwidth_gbps=25.6,
    tdp_w=1.10,
    idle_w=0.3,
    area_mm2=3.20,
    tech_nm=28,
    launch_overhead_s=1e-6,
    compute_efficiency=_eff(0.60, 0.40, 0.55, 0.25, 0.60, 0.55),
    bandwidth_efficiency=_eff(0.60, 0.50, 0.60, 0.45, 0.62, 0.58),
)


def all_devices() -> List[DeviceModel]:
    return [XEON_CPU, RTX_A6000, ORIN_NX, V100, A100, TPU_LIKE, DPU_LIKE]

