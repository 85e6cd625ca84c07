"""A ``--tiny`` run of every workload emits exactly what
``BENCHMARK.json`` declares, and the command line ends with the one
JSON object the benchmark contract asks for."""

import json
import math
import subprocess
import sys

import pytest

from bench import record, run
from bench.__main__ import REPO_ROOT
from bench.hostspeed import UNIT_REFERENCE_S, HostProbe
from bench.workloads import WORKLOADS, Tally


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(record, "OUT_DIR", tmp_path)


def test_workload_names_are_the_declared_ones():
    declared = [workload["name"] for workload in record.declaration()["workloads"]]
    assert list(WORKLOADS) == declared


@pytest.mark.parametrize("trace", [False, True], ids=["end-to-end", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_exactly_the_declared_metrics(name, trace):
    result = run.run_workload(name, seed=2, trace=trace, tiny=True)
    wanted = record.declared_metrics()["per_layer" if trace else "end_to_end"]
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (1 if trace else 100)
    assert list(result["metrics"]) == list(wanted)
    for metric, unit in wanted.items():
        value = result["metrics"][metric]["value"]
        assert result["metrics"][metric]["unit"] == unit
        assert isinstance(value, (int, float)) and math.isfinite(value), metric
    if not trace:
        assert all(result["metrics"][metric]["value"] > 0 for metric in wanted)
        assert result["metrics"]["ok_share"]["value"] == 1.0
    line = json.loads(run.driver_line(result))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]


def test_wall_clock_figures_are_divided_by_the_host_factor():
    # Ten passes of 120 requests; during the last five the host ran at
    # half speed, and the probe's units took twice as long as well.
    probe = HostProbe()
    tally = Tally(probe)
    for index in range(10):
        slow = 2.0 if index >= 5 else 1.0
        probe.stamps += [index + 0.1 * k for k in range(3, 8)]
        probe.times += [UNIT_REFERENCE_S * slow] * 5
        tally.pass_windows.append((index + 0.3, index + 0.7))
        tally.pass_latencies.append([0.001 * slow] * 90 + [0.002 * slow] * 30)
        tally.pass_walls.append(sum(tally.pass_latencies[-1]))
    assert run.host_factors(tally) == pytest.approx([1.0] * 5 + [2.0] * 5)
    values, counts = run.wall_clock(tally)
    assert values["request_s.p50"] == pytest.approx(0.001)
    assert values["request_s.p90"] == pytest.approx(0.002)
    assert values["requests_per_s"] == pytest.approx(120 / 0.15)
    assert counts == {"requests_per_s": 10, "request_s.p50": 1200, "request_s.p90": 1200}
    # Without a probe the same tally reads as the clock did.
    tally.probe = None
    assert run.wall_clock(tally)[0]["request_s.p90"] == pytest.approx(0.002 * 2.0)


def test_same_seed_same_modeled_clock_and_digest():
    first = run.run_workload("cold-prob", seed=4, tiny=True)
    again = run.run_workload("cold-prob", seed=4, tiny=True)
    other = run.run_workload("cold-prob", seed=5, tiny=True)
    for metric in record.EXACT_METRICS:
        assert repr(first["metrics"][metric]["value"]) == repr(again["metrics"][metric]["value"])
    assert first["report_digest"] == again["report_digest"] != other["report_digest"]


def test_a_wrong_answer_is_counted_and_reported(monkeypatch):
    from bench import oracle

    monkeypatch.setattr(
        oracle, "check_identity", lambda request, report, reference: f"{request.name}: planted"
    )
    result = run.run_workload("warm-replay", seed=0, tiny=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_share"]["value"] == 0.0
    assert "planted" in result["problems"][0]


def test_record_says_where_and_how_it_was_measured():
    result = run.run_workload("warm-replay", seed=0, tiny=True)
    assert {"schema", "git_sha", "python", "numpy", "nproc", "hash_seed"} <= set(
        result["provenance"]
    )
    assert result["seed"] == 0 and result["passes"] == len(result["pass_wall_s"])
    samples = result["samples"]
    assert 100 <= samples["request_s.p90"] <= result["attempted"]
    assert samples["requests_per_s"] == result["passes"] == len(result["host_factor"])
    assert all(factor > 0.5 for factor in result["host_factor"] + result["setup_host_factor"])
    assert len(result["report_digest"]) == 64


def test_command_line_ends_with_the_result_object(tmp_path):
    out = tmp_path / "one.json"
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "warm-replay", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--tiny", "--out", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == list(record.declared_metrics()["end_to_end"])
    [stored] = record.load(out)
    assert stored["metrics"] == last["metrics"]
    assert stored["provenance"]["hash_seed"] == "0"
