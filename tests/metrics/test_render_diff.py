"""Exposition renderers, snapshot persistence, and snapshot diffing."""

import copy
import json

import pytest

from repro.metrics import (
    MetricsRegistry,
    diff_snapshots,
    load_snapshot,
    render_json,
    render_pretty,
    render_prometheus,
    save_snapshot,
)


@pytest.fixture
def snapshot():
    registry = MetricsRegistry()
    for backend, requests in (("reason", 5), ("gpu", 2)):
        counter = registry.counter("reason_requests_total", "Requests.", backend=backend)
        for _ in range(requests):
            counter.inc()
    registry.register_callback("reason_queue_depth", lambda: 3.0)
    hist = registry.histogram("reason_latency_seconds", "Latency.")
    for value in (0.001, 0.002, 0.004, 0.032):
        hist.observe(value)
    return registry.snapshot()


class TestPrometheus:
    def test_headers_and_series(self, snapshot):
        text = render_prometheus(snapshot)
        assert "# TYPE reason_requests_total counter" in text
        assert '# HELP reason_requests_total Requests.' in text
        assert 'reason_requests_total{backend="reason"} 5' in text
        assert 'reason_requests_total{backend="gpu"} 2' in text
        assert "reason_queue_depth 3" in text

    def test_histogram_cumulative_buckets(self, snapshot):
        text = render_prometheus(snapshot)
        assert 'reason_latency_seconds_bucket{le="+Inf"} 4' in text
        assert "reason_latency_seconds_count 4" in text
        assert "reason_latency_seconds_sum" in text
        # Cumulative counts never decrease along the le axis.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("reason_latency_seconds_bucket")
        ]
        assert counts == sorted(counts)


class TestJsonAndPretty:
    def test_json_is_stable(self, snapshot):
        assert render_json(snapshot) == render_json(copy.deepcopy(snapshot))
        assert json.loads(render_json(snapshot)) == snapshot

    def test_pretty_mentions_every_series(self, snapshot):
        text = render_pretty(snapshot)
        assert "reason_requests_total{backend=reason}" in text
        assert "p95=" in text and "n=4" in text


class TestPersistence:
    def test_round_trip(self, snapshot, tmp_path):
        path = tmp_path / "snap.json"
        save_snapshot(snapshot, path)
        assert load_snapshot(path) == snapshot

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "metrics": {}}')
        with pytest.raises(ValueError, match="schema version"):
            load_snapshot(path)


class TestDiff:
    def test_identical_snapshots_clean(self, snapshot):
        diff = diff_snapshots(snapshot, copy.deepcopy(snapshot))
        assert diff.clean
        assert diff.compared > 0

    def test_scalar_change_flagged(self, snapshot):
        changed = copy.deepcopy(snapshot)
        changed["metrics"]["reason_requests_total"]["series"]["backend=gpu"] = 9.0
        diff = diff_snapshots(snapshot, changed)
        assert not diff.clean
        (change,) = diff.changes
        assert change.metric == "reason_requests_total"
        assert change.series == "backend=gpu"
        assert change.delta == 7.0
        assert "2 -> 9" in change.describe()

    def test_histogram_population_change_flagged(self, snapshot):
        changed = copy.deepcopy(snapshot)
        series = changed["metrics"]["reason_latency_seconds"]["series"][""]
        series["count"] += 1
        diff = diff_snapshots(snapshot, changed)
        assert [c.stat for c in diff.changes] == ["count"]

    def test_missing_series_reported_once(self, snapshot):
        changed = copy.deepcopy(snapshot)
        del changed["metrics"]["reason_latency_seconds"]["series"][""]
        diff = diff_snapshots(snapshot, changed)
        (change,) = diff.changes
        assert change.after is None
        assert "only in A" in change.describe()

    def test_missing_metric_reported(self, snapshot):
        changed = copy.deepcopy(snapshot)
        del changed["metrics"]["reason_queue_depth"]
        diff = diff_snapshots(snapshot, changed)
        assert any(c.metric == "reason_queue_depth" for c in diff.changes)

    def test_tolerance_is_relative(self, snapshot):
        changed = copy.deepcopy(snapshot)
        changed["metrics"]["reason_queue_depth"]["series"][""] = 4.0
        # |4 - 3| / max(3, 4) = 0.25 relative drift.
        assert not diff_snapshots(snapshot, changed, tolerance=0.2).clean
        assert diff_snapshots(snapshot, changed, tolerance=0.3).clean

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
    def test_a_tolerance_that_would_pass_any_drift_is_rejected(self, snapshot, tolerance):
        # NaN and infinity used to report a x10 counter as "no differences".
        changed = copy.deepcopy(snapshot)
        changed["metrics"]["reason_requests_total"]["series"]["backend=reason"] = 50.0
        with pytest.raises(ValueError, match="tolerance"):
            diff_snapshots(snapshot, changed, tolerance=tolerance)

    def test_five_percent_separates_drift_from_noise(self, snapshot):
        drift, noise = copy.deepcopy(snapshot), copy.deepcopy(snapshot)
        drift["metrics"]["reason_requests_total"]["series"]["backend=reason"] = 50.0
        noise["metrics"]["reason_requests_total"]["series"]["backend=reason"] = 5.1
        assert not diff_snapshots(snapshot, drift, tolerance=0.05).clean
        assert diff_snapshots(snapshot, noise, tolerance=0.05).clean

    def test_ignore_globs_match_name_and_series(self, snapshot):
        changed = copy.deepcopy(snapshot)
        changed["metrics"]["reason_requests_total"]["series"]["backend=gpu"] = 9.0
        series = changed["metrics"]["reason_latency_seconds"]["series"][""]
        series["sum"] *= 2
        assert diff_snapshots(
            snapshot, changed, ignore=("*_total{backend=gpu}", "*_seconds")
        ).clean
        assert not diff_snapshots(snapshot, changed, ignore=("*_seconds",)).clean
