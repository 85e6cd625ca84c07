"""Table III / Fig. 10: device specifications and REASON's silicon
footprint with technology scaling, and Sec. V-F's unified fabric
against two decoupled engines.

Paper anchors: REASON = 6.00 mm² / 2.12 W / 1.25 MB at 28 nm;
1.37 mm² / 1.21 W at 12 nm; 0.51 mm² / 0.98 W at 8 nm.  One fabric for
both kernel kinds: ~58 % less area than a symbolic plus a probabilistic
engine, at > 90 % utilization.
"""

import pytest

from helpers import print_table

from repro.baselines.device import all_devices
from repro.core.arch.config import (
    DEFAULT_CONFIG,
    DRAM_BANDWIDTH_GBPS,
    TECH_NODE_NM,
    VOLTAGE,
    ArchConfig,
)
from repro.core.arch.energy import (
    EnergyModel,
    TechNode,
    scale_to_node,
    unified_vs_decoupled,
)


def bench_table3_specs(benchmark):
    rows = [
        [d.name, f"{d.tech_nm} nm", f"{d.area_mm2:.2f}", f"{d.tdp_w:.2f}"]
        for d in all_devices()
    ]
    model = EnergyModel()
    for node in TechNode:
        rows.append(
            [
                f"REASON ({node.value} nm)",
                f"{node.value} nm",
                f"{model.area_mm2(node):.2f}",
                f"{scale_to_node(2.12, node, 'energy'):.2f}",
            ]
        )
    print_table(
        "Table III — device specs (area mm², power W)",
        ["Device", "Node", "Area", "Power"],
        rows,
    )
    benchmark(model.area_mm2, TechNode.NM28)


def test_reason_fig10_specs():
    model = EnergyModel()
    config = DEFAULT_CONFIG
    assert model.area_mm2() == pytest.approx(6.00, rel=0.02)
    assert config.sram_kib == 1280
    assert config.num_pes == 12
    assert config.frequency_hz == 500e6
    assert (TECH_NODE_NM, VOLTAGE, DRAM_BANDWIDTH_GBPS) == (28, 0.9, 104.0)


def test_tech_scaling_table3_rows():
    model = EnergyModel()
    assert model.area_mm2(TechNode.NM12) == pytest.approx(1.37, rel=0.02)
    assert model.area_mm2(TechNode.NM8) == pytest.approx(0.51, rel=0.02)
    assert scale_to_node(2.12, TechNode.NM12, "energy") == pytest.approx(1.21, rel=0.02)
    assert scale_to_node(2.12, TechNode.NM8, "energy") == pytest.approx(0.98, rel=0.02)


def test_reason_orders_of_magnitude_smaller_than_gpus():
    model = EnergyModel()
    for device in all_devices():
        if device.name in ("DPU-like",):
            continue
        assert model.area_mm2() < device.area_mm2


def test_area_saving_band():
    comparison = unified_vs_decoupled()
    assert 0.45 <= comparison.area_saving <= 0.65


def test_utilization_gap():
    comparison = unified_vs_decoupled()
    assert comparison.unified_utilization > 0.90
    assert comparison.decoupled_utilization < 0.60


def test_scales_with_config():
    big = unified_vs_decoupled(ArchConfig(num_pes=24))
    assert big.decoupled_area_mm2 > big.unified_area_mm2
