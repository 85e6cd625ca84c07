"""Table V: co-design ablation — algorithm optimization alone on Orin,
then algorithm + REASON hardware.

Paper shape: REASON algorithm on Orin trims runtime to 78-87% of the
baseline; algorithm + hardware reaches ~2% (50×).
"""

import pytest

from helpers import (
    SYMBOLIC_SLOWDOWN,
    calibration_for,
    print_table,
    reason_timing_for_task,
    workload_for_task,
)

from repro.baselines.device import ORIN_NX
from repro.core.dag import optimize

TASKS = ["IMO", "MiniF2F", "TwinSafety", "XSTest", "CommonGen"]


def _ablation_row(task: str):
    workload = workload_for_task(task)
    instance = workload.generate_instance(task, seed=0)
    neural_s = ORIN_NX.run(workload.neural_profiles(instance))

    raw_timing, _ = reason_timing_for_task(task, apply_algorithm_optimizations=False)
    opt_timing, _ = reason_timing_for_task(task, apply_algorithm_optimizations=True)

    # Baseline: original algorithm on Orin NX.
    symbolic_orin = raw_timing.seconds * SYMBOLIC_SLOWDOWN["Orin NX"]
    baseline = neural_s + symbolic_orin

    # Algorithm optimization on the same Orin hardware: the DAG-size
    # reduction shrinks the memory-bound symbolic stage proportionally.
    kernel = workload.reason_kernel(instance)
    calibration = calibration_for(workload, instance, kernel)
    opt = optimize(kernel, calibration=calibration, keep_fraction=0.75)
    algo_on_orin = neural_s + symbolic_orin * (1.0 - opt.memory_reduction)

    # Algorithm + REASON hardware: symbolic runs on the accelerator,
    # neural overlapped by the two-level pipeline.
    algo_on_reason = max(neural_s * 0.05, opt_timing.seconds)
    return baseline, algo_on_orin, algo_on_reason


@pytest.fixture(scope="module")
def table5_data():
    return {task: _ablation_row(task) for task in TASKS}


def bench_table5_codesign_ablation(benchmark, table5_data):
    rows = []
    for task in TASKS:
        baseline, algo, full = table5_data[task]
        rows.append(
            [
                task,
                "100%",
                f"{algo / baseline:.1%}",
                f"{full / baseline:.2%}",
            ]
        )
    print_table(
        "Table V — normalized runtime (baseline @ Orin = 100%)",
        ["Task", "Baseline @ Orin", "REASON Algo @ Orin", "Algo @ REASON HW"],
        rows,
    )
    benchmark(_ablation_row, TASKS[0])


def test_table5_algorithm_alone_in_band(table5_data):
    """Paper: 78.3-87.0% with algorithm optimization alone."""
    for task, (baseline, algo, _) in table5_data.items():
        ratio = algo / baseline
        assert 0.70 <= ratio <= 0.95, (task, ratio)


def test_table5_full_codesign_two_orders(table5_data):
    """Paper: 1.94-2.08% with algorithm + hardware."""
    for task, (baseline, _, full) in table5_data.items():
        ratio = full / baseline
        assert ratio < 0.10, (task, ratio)


def test_table5_monotone(table5_data):
    for task, (baseline, algo, full) in table5_data.items():
        assert baseline > algo > full, task
