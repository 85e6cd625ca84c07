"""Hardware-technique ablation (Sec. VII-C): memory layout, then
reconfigurable array, then adaptive scheduling.

Paper shape: the linked-list memory layout alone trims symbolic runtime
~22%; adding the reconfigurable array reaches ~56%; with pipeline-aware
scheduling ~73% total reduction.
"""

import pytest

from helpers import print_table

from repro.core.arch import ReasonAccelerator
from repro.core.arch.config import DEFAULT_CONFIG
from repro.logic.cdcl import CDCLSolver
from repro.logic.generators import redundant_sat


def _symbolic_cycles(config, formula):
    accelerator = ReasonAccelerator(config)
    trace, _ = accelerator.run_symbolic(formula, solver=CDCLSolver(record_trace=True))
    return trace.cycles


@pytest.fixture(scope="module")
def ablation_data():
    formula, _ = redundant_sat(60, 220, redundancy=0.3, seed=5)
    stripped = DEFAULT_CONFIG.with_ablation(
        linked_list_layout=False, reconfigurable=False, pipelined_scheduling=False
    )
    plus_layout = stripped.with_ablation(linked_list_layout=True)
    plus_reconfig = plus_layout.with_ablation(reconfigurable=True)
    full = plus_reconfig.with_ablation(pipelined_scheduling=True)
    # Reconfiguration affects mode-switch penalties: model a workload
    # phase alternating probabilistic and symbolic batches by adding
    # the per-switch drain cost for fixed-function arrays.
    cycles = {
        "none": _symbolic_cycles(stripped, formula),
        "layout": _symbolic_cycles(plus_layout, formula),
        "layout+reconfig": _symbolic_cycles(plus_reconfig, formula),
        "layout+reconfig+sched": _symbolic_cycles(full, formula),
    }
    switches = 40  # interleaved neural/symbolic/probabilistic batches
    penalty = DEFAULT_CONFIG.pipeline_stages * 4 * switches
    cycles["none"] += penalty
    cycles["layout"] += penalty
    return cycles


def bench_hw_ablation(benchmark, ablation_data):
    base = ablation_data["none"]
    rows = [
        [name, str(c), f"{1.0 - c / base:.0%}"]
        for name, c in ablation_data.items()
    ]
    print_table(
        "HW-technique ablation — symbolic cycles and reduction",
        ["Techniques", "Cycles", "Runtime reduction"],
        rows,
    )
    formula, _ = redundant_sat(40, 140, redundancy=0.3, seed=6)
    benchmark(_symbolic_cycles, DEFAULT_CONFIG, formula)


def test_each_technique_helps(ablation_data):
    assert (
        ablation_data["none"]
        > ablation_data["layout"]
        > ablation_data["layout+reconfig"]
        >= ablation_data["layout+reconfig+sched"]
    )


def test_memory_layout_band(ablation_data):
    """Paper: ~22% from the memory layout alone.  Our model charges the
    flat layout a full clause-database scan per assignment, which
    overestimates the benefit on small formulas — the reduction lands
    above the paper's figure (noted under "Calibration" in the README)."""
    reduction = 1.0 - ablation_data["layout"] / ablation_data["none"]
    assert 0.10 <= reduction <= 0.90


def test_total_reduction_band(ablation_data):
    """Paper: ~73% with all techniques."""
    reduction = 1.0 - ablation_data["layout+reconfig+sched"] / ablation_data["none"]
    assert reduction >= 0.30
