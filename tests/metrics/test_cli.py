"""The ``python -m repro.metrics`` CLI: show, diff, watch, record."""

import copy
import json

import pytest

from repro.metrics import MetricsRegistry, save_snapshot
from repro.metrics.__main__ import main


@pytest.fixture
def snapshot_file(tmp_path):
    registry = MetricsRegistry()
    counter = registry.counter("demo_total", "Demo.", backend="reason")
    for _ in range(4):
        counter.inc()
    registry.histogram("demo_seconds").observe(0.002)
    snapshot = registry.snapshot()
    path = tmp_path / "a.json"
    save_snapshot(snapshot, path)
    return path, snapshot


class TestShow:
    def test_pretty(self, snapshot_file, capsys):
        path, _ = snapshot_file
        assert main(["show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "demo_total{backend=reason}" in out and "4" in out

    def test_prom(self, snapshot_file, capsys):
        path, _ = snapshot_file
        assert main(["show", str(path), "--format", "prom"]) == 0
        assert "# TYPE demo_total counter" in capsys.readouterr().out

    def test_json(self, snapshot_file, capsys):
        path, snapshot = snapshot_file
        assert main(["show", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == snapshot

    def test_missing_file(self, tmp_path, capsys):
        assert main(["show", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_version(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 42}')
        assert main(["show", str(path)]) == 2

    def test_a_directory_is_bad_input(self, tmp_path, capsys):
        assert main(["show", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestDiffCommand:
    def test_identical_exits_zero(self, snapshot_file, capsys):
        path, _ = snapshot_file
        assert main(["diff", str(path), str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_a_directory_is_bad_input_not_a_drift(self, snapshot_file, tmp_path, capsys):
        path, _ = snapshot_file
        assert main(["diff", str(tmp_path), str(tmp_path)]) == 2
        assert main(["diff", str(path), str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_injected_regression_exits_one(self, snapshot_file, tmp_path, capsys):
        path, snapshot = snapshot_file
        changed = copy.deepcopy(snapshot)
        changed["metrics"]["demo_total"]["series"]["backend=reason"] = 9.0
        other = tmp_path / "b.json"
        save_snapshot(changed, other)
        assert main(["diff", str(path), str(other)]) == 1
        out = capsys.readouterr().out
        assert "demo_total" in out and "DIFFERS" in out

    def test_ignore_silences_the_regression(self, snapshot_file, tmp_path):
        path, snapshot = snapshot_file
        changed = copy.deepcopy(snapshot)
        changed["metrics"]["demo_total"]["series"]["backend=reason"] = 9.0
        other = tmp_path / "b.json"
        save_snapshot(changed, other)
        assert main(["diff", str(path), str(other), "--ignore", "demo_*"]) == 0

    def test_tolerance(self, snapshot_file, tmp_path):
        path, snapshot = snapshot_file
        changed = copy.deepcopy(snapshot)
        changed["metrics"]["demo_total"]["series"]["backend=reason"] = 4.1
        other = tmp_path / "b.json"
        save_snapshot(changed, other)
        assert main(["diff", str(path), str(other), "--tolerance", "0.05"]) == 0


class TestWatch:
    def test_single_observation(self, snapshot_file, capsys):
        path, _ = snapshot_file
        assert main(
            ["watch", str(path), "--interval", "0.01", "--count", "1"]
        ) == 0
        assert "demo_total" in capsys.readouterr().out


class TestRecord:
    def test_record_writes_live_snapshot(self, tmp_path, capsys):
        out = tmp_path / "live.json"
        assert main(
            [
                "record",
                str(out),
                "--kernel",
                "ksat",
                "--size",
                "16",
                "--requests",
                "6",
                "--unique",
                "2",
                "--shards",
                "2",
            ]
        ) == 0
        text = capsys.readouterr().out
        assert "6 requests served" in text
        payload = json.loads(out.read_text())
        assert payload["version"] == 1
        series = payload["metrics"]["reason_request_e2e_seconds"]["series"]
        assert sum(entry["count"] for entry in series.values()) == 6
