"""Table II: hardware inefficiency analysis of neural / symbolic /
probabilistic kernels (compute, memory, control metrics)."""

from helpers import print_table

from repro.baselines.kernels import TABLE2_KERNELS, characterize_kernel
from repro.baselines.device import KernelClass


def bench_table2_kernel_metrics(benchmark):
    metrics = {label: characterize_kernel(k) for label, k in TABLE2_KERNELS}
    metric_names = list(next(iter(metrics.values())).as_dict())
    rows = []
    for name in metric_names:
        rows.append([name] + [f"{metrics[label].as_dict()[name]:.1f}" for label, _ in TABLE2_KERNELS])
    print_table(
        "Table II — kernel characteristics",
        ["Metric"] + [label for label, _ in TABLE2_KERNELS],
        rows,
    )
    benchmark(characterize_kernel, KernelClass.LOGIC)


def test_table2_neural_high_symbolic_low():
    gemm = characterize_kernel(KernelClass.NEURAL_GEMM)
    logic = characterize_kernel(KernelClass.LOGIC)
    # Paper: MatMul 96.8% vs Logic 14.7% compute throughput.
    assert gemm.compute_throughput > 6 * logic.compute_throughput


def test_table2_dram_inversion():
    """Symbolic kernels use MORE DRAM bandwidth than neural (70.3% vs
    39.8% in the paper): poor cache behavior pushes traffic off-chip."""
    gemm = characterize_kernel(KernelClass.NEURAL_GEMM)
    logic = characterize_kernel(KernelClass.LOGIC)
    assert logic.dram_bw_utilization > gemm.dram_bw_utilization


def test_table2_cache_hit_ordering():
    order = [
        characterize_kernel(k).l1_hit_rate
        for k in (KernelClass.NEURAL_GEMM, KernelClass.SPARSE_MATVEC, KernelClass.LOGIC)
    ]
    assert order[0] > order[1] > order[2]


def test_table2_eligible_warps_band():
    # Paper: 7.2 (MatMul) vs 2.1-2.8 (symbolic/probabilistic).
    gemm = characterize_kernel(KernelClass.NEURAL_GEMM)
    assert gemm.eligible_warps_per_cycle > 6.0
    for k in (KernelClass.LOGIC, KernelClass.MARGINAL, KernelClass.BAYESIAN):
        assert characterize_kernel(k).eligible_warps_per_cycle < 4.0
