"""Fig. 12: power and energy efficiency.

(a) REASON's average power across workloads (paper: 1.88-2.51 W, mean
2.12 W).  (b) Energy-efficiency ratios vs Xeon / Orin / RTX (paper:
310× vs Orin-class, 681× vs RTX, 838× vs Xeon on average).
"""

import pytest

from helpers import (
    ALL_TASKS,
    device_energy_j,
    print_table,
    reason_energy_j,
    task_end_to_end,
)
from repro.baselines.device import ORIN_NX, RTX_A6000, XEON_CPU


@pytest.fixture(scope="module")
def fig12_data():
    return {task: task_end_to_end(task, seed=0) for task in ALL_TASKS}


def bench_fig12_energy_efficiency(benchmark, fig12_data):
    rows = []
    for task in ALL_TASKS:
        entry = fig12_data[task]
        reason_j = reason_energy_j(entry)
        power_w = reason_j / max(entry.reason_symbolic, 1e-12)
        ratios = {
            device.name: device_energy_j(device, entry) / reason_j
            for device in (XEON_CPU, ORIN_NX, RTX_A6000)
        }
        rows.append(
            [
                task,
                f"{power_w:.2f}",
                f"{ratios['Xeon CPU']:.0f}x",
                f"{ratios['Orin NX']:.0f}x",
                f"{ratios['RTX A6000']:.0f}x",
            ]
        )
    print_table(
        "Fig. 12 — REASON power (W) and energy-efficiency ratios",
        ["Task", "REASON W", "vs Xeon", "vs Orin", "vs RTX"],
        rows,
    )
    benchmark(reason_energy_j, fig12_data["AwA2"])


def test_fig12_power_band(fig12_data):
    """REASON average power near the paper's 2.12 W (±40%)."""
    powers = []
    for entry in fig12_data.values():
        powers.append(reason_energy_j(entry) / max(entry.reason_symbolic, 1e-12))
    mean = sum(powers) / len(powers)
    assert 1.0 < mean < 3.5


def test_fig12_two_orders_of_magnitude(fig12_data):
    """Energy efficiency ≥ 2 orders of magnitude vs CPUs/GPUs."""
    for entry in fig12_data.values():
        reason_j = reason_energy_j(entry)
        for device in (XEON_CPU, ORIN_NX, RTX_A6000):
            assert device_energy_j(device, entry) / reason_j > 100


def test_fig12_ordering(fig12_data):
    """GPU baselines burn more energy than the edge device per task
    only when their runtime advantage does not compensate their TDP."""
    entry = fig12_data["XSTest"]
    reason_j = reason_energy_j(entry)
    rtx_ratio = device_energy_j(RTX_A6000, entry) / reason_j
    orin_ratio = device_energy_j(ORIN_NX, entry) / reason_j
    assert rtx_ratio > orin_ratio  # 300 W desktop part vs 15 W edge part
