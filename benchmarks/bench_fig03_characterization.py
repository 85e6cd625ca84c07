"""Fig. 3: end-to-end neuro-symbolic workload characterization.

(a) neural/symbolic runtime split per workload on the CPU+GPU system;
(b) runtime scaling small→large tasks; (c) A6000 vs Orin; (d) roofline
placement of neural vs symbolic kernels.
"""

import pytest

from helpers import print_table

from repro.baselines.device import KernelClass, KernelProfile, ORIN_NX, RTX_A6000
from repro.baselines.roofline import roofline_point
from repro.profiling import profile_workload, runtime_breakdown, sparsity_of_workload
from repro.workloads import all_workloads


@pytest.fixture(scope="module")
def breakdown():
    return runtime_breakdown(all_workloads(), RTX_A6000)


def bench_fig03a_runtime_split(benchmark, breakdown):
    rows = [
        [p.workload, f"{p.neural_share:.1%}", f"{p.symbolic_share:.1%}"]
        for p in breakdown
    ]
    print_table(
        "Fig. 3(a) — neural vs symbolic runtime share (A6000)",
        ["Workload", "Neural", "Symbolic"],
        rows,
    )
    benchmark(runtime_breakdown, all_workloads()[:2], RTX_A6000)


def bench_fig03b_scaling(benchmark):
    rows = []
    for workload in all_workloads():
        small = profile_workload(workload, RTX_A6000, scale="small")
        large = profile_workload(workload, RTX_A6000, scale="large")
        rows.append(
            [
                workload.name,
                f"{small.total_s:.2f}s",
                f"{large.total_s:.2f}s",
                f"{large.total_s / small.total_s:.2f}x",
            ]
        )
    print_table(
        "Fig. 3(b) — task-scale latency growth (A6000)",
        ["Workload", "Small", "Large", "Growth"],
        rows,
    )
    benchmark(profile_workload, all_workloads()[0], RTX_A6000)


def bench_fig03c_devices(benchmark):
    rows = []
    for workload in all_workloads()[:2]:  # AlphaGeometry, R2-Guard (paper panel)
        a6000 = profile_workload(workload, RTX_A6000)
        orin = profile_workload(workload, ORIN_NX)
        rows.append(
            [
                workload.name,
                f"{a6000.total_s:.2f}s",
                f"{orin.total_s:.2f}s",
                f"{orin.total_s / a6000.total_s:.2f}x",
            ]
        )
    print_table(
        "Fig. 3(c) — A6000 vs Orin NX",
        ["Workload", "A6000", "Orin NX", "Orin/A6000"],
        rows,
    )
    benchmark(profile_workload, all_workloads()[0], ORIN_NX)


def bench_fig03d_roofline(benchmark):
    kernels = [
        ("LLaMA-like (neuro)", KernelProfile(KernelClass.NEURAL_GEMM, 1e12, 2e10)),
        ("AlphaGeo (symb)", KernelProfile(KernelClass.LOGIC, 5e8, 4e9)),
        ("R2-Guard (symb)", KernelProfile(KernelClass.MARGINAL, 8e8, 4e9)),
        ("Ctrl-G (symb)", KernelProfile(KernelClass.BAYESIAN, 6e8, 3e9)),
        ("GeLaTo (symb)", KernelProfile(KernelClass.BAYESIAN, 7e8, 3e9)),
        ("LINC (symb)", KernelProfile(KernelClass.LOGIC, 4e8, 3e9)),
        ("NeuroPC (symb)", KernelProfile(KernelClass.MARGINAL, 5e8, 2e9)),
    ]
    rows = []
    for label, profile in kernels:
        point = roofline_point(RTX_A6000, profile, label)
        rows.append(
            [
                label,
                f"{point.operational_intensity:.3f}",
                f"{point.attainable_tflops:.2f}",
                f"{point.achieved_tflops:.3f}",
                "memory" if point.memory_bound else "compute",
            ]
        )
    print_table(
        "Fig. 3(d) — roofline on A6000",
        ["Kernel", "FLOPS/byte", "Roof TFLOPS", "Achieved", "Bound"],
        rows,
    )
    benchmark(roofline_point, RTX_A6000, kernels[0][1], "gemm")


def test_fig03a_shares_match_paper(breakdown):
    paper = {
        "AlphaGeometry": 0.638,
        "R2-Guard": 0.627,
        "GeLaTo": 0.366,
        "Ctrl-G": 0.639,
        "NeuroPC": 0.505,
        "LINC": 0.348,
    }
    for profile in breakdown:
        assert profile.symbolic_share == pytest.approx(paper[profile.workload], abs=0.02)


def test_fig03b_large_tasks_grow_superlinearly_symbolic(breakdown):
    for workload in all_workloads()[:3]:
        small = profile_workload(workload, RTX_A6000, scale="small")
        large = profile_workload(workload, RTX_A6000, scale="large")
        assert large.symbolic_s / small.symbolic_s > large.neural_s / small.neural_s


def test_fig03c_orin_slower(breakdown):
    for workload in all_workloads()[:2]:
        assert (
            profile_workload(workload, ORIN_NX).total_s
            > profile_workload(workload, RTX_A6000).total_s
        )


def test_fig03d_symbolic_kernels_memory_bound():
    for kernel_class in (KernelClass.LOGIC, KernelClass.MARGINAL, KernelClass.BAYESIAN):
        profile = KernelProfile(kernel_class, 5e8, 4e9)
        assert roofline_point(RTX_A6000, profile).memory_bound


def test_sparsity_matches_paper_band():
    """Paper Sec. III-B: 75-89% sparsity on average across workloads."""
    values = [sparsity_of_workload(w) for w in all_workloads()]
    mean = sum(values) / len(values)
    assert 0.5 <= mean <= 0.95
