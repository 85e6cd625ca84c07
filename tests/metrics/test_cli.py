"""The snapshot commands of ``python -m repro``: show, diff, watch,
and the bundle ``record`` writes."""

import copy
import json
import os
from types import SimpleNamespace

import pytest

from repro.__main__ import MIX, main
from repro.metrics import MetricsRegistry, diff_snapshots, render_pretty, save_snapshot
from repro.trace import TraceReader
from repro.trace.analyze import CheckResult, ValidationResult


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

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_a_tolerance_that_would_pass_any_drift_is_bad_input(
        self, snapshot_file, tmp_path, tolerance, capsys
    ):
        # NaN and infinity used to read a x10 counter as "no differences".
        path, snapshot = snapshot_file
        changed = copy.deepcopy(snapshot)
        changed["metrics"]["demo_total"]["series"]["backend=reason"] = 40.0
        other = tmp_path / "b.json"
        save_snapshot(changed, other)
        assert main(["diff", str(path), str(other), "--tolerance", tolerance]) == 2
        assert "tolerance" in capsys.readouterr().err
        assert main(["diff", str(path), str(other), "--tolerance", "0.05"]) == 1

    def test_prints_exactly_the_snapshot_diff(self, snapshot_file, tmp_path, capsys):
        path, snapshot = snapshot_file
        changed = copy.deepcopy(snapshot)
        changed["metrics"]["demo_total"]["series"]["backend=reason"] = 9.0
        other = tmp_path / "b.json"
        save_snapshot(changed, other)
        same, differs = diff_snapshots(snapshot, snapshot), diff_snapshots(snapshot, changed)
        main(["diff", str(path), str(path)])
        main(["diff", str(path), str(other)])
        assert capsys.readouterr().out == "\n".join([
            f"OK: {same.compared} series compared, no differences",
            *differs.describe(),
            f"DIFFERS: {len(differs.changes)} change(s) across {differs.compared} compared series",
            "",
        ])  # fmt: skip


class TestWatch:
    def test_single_observation(self, snapshot_file, capsys):
        path, _ = snapshot_file
        assert main(
            ["watch", str(path), "--interval", "0.01", "--count", "1"]
        ) == 0
        assert "demo_total" in capsys.readouterr().out

    def test_a_rewrite_between_polls_prints_what_moved(self, snapshot_file, capsys, monkeypatch):
        path, snapshot = snapshot_file
        changed = copy.deepcopy(snapshot)
        changed["metrics"]["demo_total"]["series"]["backend=reason"] = 9.0
        rewrites = iter([changed, changed])

        def rewrite_instead_of_sleeping(seconds):
            # Each poll's sleep rewrites the file under a new mtime: the
            # first rewrite moves the counter, the second moves nothing.
            save_snapshot(next(rewrites), path)
            mtime = path.stat().st_mtime + 10
            os.utime(path, (mtime, mtime))

        monkeypatch.setattr("repro.__main__.time", SimpleNamespace(sleep=rewrite_instead_of_sleeping))
        assert main(["watch", str(path), "--count", "3"]) == 0
        assert capsys.readouterr().out == "".join([
            render_pretty(snapshot),
            *(line + "\n" for line in diff_snapshots(snapshot, changed).describe()),
            "(no change)\n",
        ])  # fmt: skip

    @pytest.mark.parametrize(
        "option, value",
        # --count 0 used to exit having watched nothing; a negative or NaN
        # interval failed only after printing the first snapshot.
        [
            ("--count", "0"),
            ("--count", "-1"),
            ("--interval", "-1"),
            ("--interval", "nan"),
            ("--interval", "0"),
        ],
    )
    def test_a_count_or_interval_out_of_range_is_bad_input(
        self, snapshot_file, option, value, capsys
    ):
        path, _ = snapshot_file
        with pytest.raises(SystemExit) as exit_info:
            main(["watch", str(path), option, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {option}" in captured.err and captured.out == ""


class TestRecord:
    def test_record_writes_live_snapshot(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(["record", str(bundle), "--size", "4", "--requests", "6", "--shards", "2"]) == 0
        text = capsys.readouterr().out
        assert "6 requests served" in text
        payload = json.loads((bundle / "metrics.json").read_text())
        assert payload["version"] == 1
        series = payload["metrics"]["reason_request_e2e_seconds"]["series"]
        assert sum(entry["count"] for entry in series.values()) == 6

    def test_a_bundle_holds_one_trace_per_distinct_kernel(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(["record", str(bundle), "--size", "4", "--requests", "6"]) == 0
        out = capsys.readouterr().out
        traces = sorted(bundle.glob("*.trace"))
        assert len(traces) == len(MIX)
        assert sorted(path.name for path in bundle.iterdir()) == sorted(
            [path.name for path in traces] + ["metrics.json"]
        )
        for path in traces:
            TraceReader(path).validate()
            assert path.name in out
        assert "every request's trace reproduces its execution report" in out
        assert main(["record", str(tmp_path / "two"), "--size", "4", "--requests", "2"]) == 0
        assert len(list((tmp_path / "two").glob("*.trace"))) == 2

    def test_a_trace_that_does_not_reproduce_its_report_fails(
        self, tmp_path, monkeypatch, capsys
    ):
        mismatch = ValidationResult([CheckResult("cycles", 1, 2)])
        monkeypatch.setattr("repro.__main__.cross_validate", lambda path, report: mismatch)
        assert main(["record", str(tmp_path / "bundle"), "--size", "2", "--requests", "1"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out and "FAILED" in out

    @pytest.mark.parametrize(
        "option, value",
        # --requests 0 ended in a KeyError, --size 0 meant the default and
        # --size -1 blamed the clause width.
        [("--requests", "0"), ("--shards", "0"), ("--size", "0"), ("--size", "-1")],
    )
    def test_record_counts_below_one_write_no_file(self, tmp_path, option, value, capsys):
        bundle = tmp_path / "bundle"
        with pytest.raises(SystemExit) as exit_info:
            main(["record", str(bundle), option, value])
        assert exit_info.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
