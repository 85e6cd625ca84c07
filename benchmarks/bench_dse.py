"""Design space exploration (Sec. V-F): sweep tree depth D, register
banks B and registers per bank R over latency / energy / EDP.

Paper shape: (D=3, B=64, R=32) offers the best latency-energy balance.
"""

import pytest

from helpers import print_table

from repro.core.arch import ReasonAccelerator
from repro.core.arch.config import ArchConfig, dse_grid
from repro.core.arch.tree_pe import PEMode
from repro.core.compiler import compile_dag
from repro.core.dag import circuit_to_dag, regularize_two_input
from repro.core.dag.graph import default_leaf_inputs
from repro.pc.learn import random_circuit


def _evaluate_config(config: ArchConfig, dag):
    program, stats = compile_dag(dag, config)
    accelerator = ReasonAccelerator(config)
    report = accelerator.run_program(
        program, default_leaf_inputs(program.dag), mode=PEMode.PROBABILISTIC
    )
    energy = report.energy_j + accelerator.energy.static_power_w() * report.cycles * config.cycle_time_s
    latency = report.cycles * config.cycle_time_s
    return latency, energy, latency * energy


@pytest.fixture(scope="module")
def dse_results():
    dag = regularize_two_input(circuit_to_dag(random_circuit(10, depth=4, seed=3))[0])
    grid = dse_grid(depths=(2, 3, 4), banks=(16, 64, 128), regs=(16, 32, 64))
    results = {}
    for config in grid:
        key = (config.tree_depth, config.num_banks, config.regs_per_bank)
        results[key] = _evaluate_config(config, dag)
    return results


def bench_dse_sweep(benchmark, dse_results):
    best_edp = min(v[2] for v in dse_results.values())
    rows = []
    for (d, b, r), (latency, energy, edp) in sorted(dse_results.items()):
        marker = " <== paper pick" if (d, b, r) == (3, 64, 32) else ""
        rows.append(
            [
                f"D={d} B={b} R={r}",
                f"{latency * 1e6:.2f}us",
                f"{energy * 1e9:.2f}nJ",
                f"{edp / best_edp:.2f}{marker}",
            ]
        )
    print_table(
        "DSE — latency / energy / normalized EDP per (D, B, R)",
        ["Config", "Latency", "Energy", "EDP (norm)"],
        rows,
    )
    dag = regularize_two_input(circuit_to_dag(random_circuit(8, depth=3, seed=4))[0])
    benchmark(_evaluate_config, ArchConfig(), dag)


def test_dse_paper_pick_is_competitive(dse_results):
    """(3, 64, 32) lands within 2× of the best EDP in the sweep."""
    best = min(v[2] for v in dse_results.values())
    paper_pick = dse_results[(3, 64, 32)][2]
    assert paper_pick <= 2.0 * best


def test_dse_deeper_trees_reduce_blocks(dse_results):
    shallow_latency = dse_results[(2, 64, 32)][0]
    deep_latency = dse_results[(4, 64, 32)][0]
    assert deep_latency <= shallow_latency


def test_dse_tiny_register_files_hurt():
    dag = regularize_two_input(circuit_to_dag(random_circuit(10, depth=4, seed=3))[0])
    tiny = _evaluate_config(ArchConfig(num_banks=2, regs_per_bank=4), dag)
    normal = _evaluate_config(ArchConfig(), dag)
    assert tiny[0] >= normal[0]
