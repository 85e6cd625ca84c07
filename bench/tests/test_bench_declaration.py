"""``BENCHMARK.json`` keeps to the limits the benchmark contract sets."""

import re

from bench import record

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_declaration_keeps_to_the_contract():
    declared = record.declaration()
    assert sorted(declared) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"
    ]
    assert declared["paths"] == ["bench"]
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    for workload in declared["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert NAME.match(workload["name"]) and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    assert 1 <= len(declared["end_to_end"]) <= 16 and 1 <= len(declared["per_layer"]) <= 128
    for metric in declared["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 <= metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(set(names)) == len(names)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])
    assert record.DECLARATION.stat().st_size <= 64 * 1024


def test_exact_metrics_are_declared():
    assert set(record.EXACT_METRICS) <= set(record.declared_metrics()["end_to_end"])
