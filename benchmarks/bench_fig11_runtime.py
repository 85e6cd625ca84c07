"""Fig. 11: end-to-end runtime — REASON vs Xeon CPU, Orin NX, RTX GPU
across the ten reasoning tasks (normalized to REASON = 1).

Paper shape: REASON ~1.0, RTX ~9.8-13.8×, Orin ~48-53×, Xeon ~96-100×,
with REASON completing tasks in real time (<1.0 s).
"""

import pytest

from helpers import ALL_TASKS, print_table, task_end_to_end


@pytest.fixture(scope="module")
def fig11_data():
    return {task: task_end_to_end(task, seed=0) for task in ALL_TASKS}


def bench_fig11_end_to_end_runtime(benchmark, fig11_data):
    """Regenerate the Fig. 11 rows and time one task's full analysis."""
    rows = []
    for task in ALL_TASKS:
        entry = fig11_data[task]
        norm = entry.normalized()
        rows.append(
            [
                task,
                f"{norm['Xeon CPU']:.1f}",
                f"{norm['Orin NX']:.1f}",
                f"{norm['RTX A6000']:.1f}",
                "1.0",
                f"{entry.reason_total:.2f}s",
            ]
        )
    print_table(
        "Fig. 11 — normalized end-to-end runtime (REASON = 1.0)",
        ["Task", "Xeon CPU", "Orin NX", "RTX A6000", "REASON", "REASON wall"],
        rows,
    )
    benchmark(task_end_to_end, "AwA2", 0)


def test_fig11_reason_wins_everywhere(fig11_data):
    for task, entry in fig11_data.items():
        norm = entry.normalized()
        assert norm["RTX A6000"] > 1.0, task
        assert norm["Orin NX"] > norm["RTX A6000"], task
        assert norm["Xeon CPU"] > norm["RTX A6000"], task


def test_fig11_speedup_bands(fig11_data):
    """Paper bands: 12-50× over desktop and edge GPUs (abstract)."""
    rtx = [e.normalized()["RTX A6000"] for e in fig11_data.values()]
    orin = [e.normalized()["Orin NX"] for e in fig11_data.values()]
    assert 5 <= sum(rtx) / len(rtx) <= 20
    assert 25 <= sum(orin) / len(orin) <= 60


def test_fig11_real_time(fig11_data):
    """REASON completes each task's reasoning in ≲1 s (paper: 0.8 s)."""
    for task, entry in fig11_data.items():
        assert entry.reason_total < 1.5, task
