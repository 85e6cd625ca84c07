"""Trace diffing: identical runs match byte-for-byte; behavior changes
are localized to kinds, phases and the first diverging event."""

import pytest

from repro.api.session import ReasonSession
from repro.logic.generators import random_ksat
from repro.metrics import MetricsRegistry, save_snapshot
from repro.__main__ import main
from repro.trace.analyze import diff_traces
from repro.trace.reader import TraceReader


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Three traces: A and B record the same kernel (deterministic →
    identical), C records a different kernel."""
    root = tmp_path_factory.mktemp("traces")
    paths = {}
    for name, seed in (("a", 11), ("b", 11), ("c", 12)):
        kernel = random_ksat(24, 96, seed=seed)
        path = root / f"{name}.trace"
        ReasonSession().run(kernel, trace=str(path))
        paths[name] = str(path)
    return paths


class TestDiffTraces:
    def test_same_execution_is_identical(self, traces):
        diff = diff_traces(traces["a"], traces["b"])
        assert diff.identical
        assert diff.kind_deltas == [] and diff.phase_deltas == []
        assert diff.events[0] == diff.events[1] > 0
        assert diff.cycles[0] == diff.cycles[1] > 0

    def test_different_execution_localized(self, traces):
        diff = diff_traces(traces["a"], traces["c"])
        assert not diff.identical
        assert diff.divergence is not None
        assert diff.divergence.index >= 0
        assert diff.divergence.before and diff.divergence.after
        # Count deltas reconcile with the totals on both sides.
        assert diff.events[0] != diff.events[1] or diff.kind_deltas
        described = "\n".join(diff.describe())
        assert "first divergence" in described

    def test_truncated_trace_diverges_at_the_cut(self, traces, tmp_path):
        # Re-encode a prefix of A: drop the last quarter of events.
        from repro.trace.writer import TraceWriter

        records = list(TraceReader(traces["a"]))
        keep = records[: 3 * len(records) // 4]
        cut = tmp_path / "cut.trace"
        with TraceWriter(str(cut)) as writer:
            for record in keep:
                writer.emit(record.kind, record.cycle, record.value, record.extra)
        diff = diff_traces(traces["a"], cut)
        assert diff.divergence is not None
        assert diff.divergence.index == len(keep)
        assert diff.divergence.after is None  # B ended first
        assert diff.events == (len(records), len(keep))

    def test_reader_instances_accepted(self, traces):
        diff = diff_traces(TraceReader(traces["a"]), TraceReader(traces["b"]))
        assert diff.identical


class TestDiffCli:
    def test_clean_exit_zero(self, traces, capsys):
        assert main(["diff", traces["a"], traces["b"]]) == 0
        assert "OK: traces match" in capsys.readouterr().out

    def test_regression_exit_one(self, traces, capsys):
        assert main(["diff", traces["a"], traces["c"]]) == 1
        out = capsys.readouterr().out
        assert "DIFFERS" in out and "first divergence" in out

    def test_prints_exactly_the_trace_diff(self, traces, capsys):
        same, differs = diff_traces(traces["a"], traces["b"]), diff_traces(traces["a"], traces["c"])
        main(["diff", traces["a"], traces["b"]])
        main(["diff", traces["a"], traces["c"]])
        assert capsys.readouterr().out == "\n".join([
            f"OK: traces match ({same.events[0]} events, {same.cycles[0]} cycles)",
            *differs.describe(),
            "DIFFERS: the traces record different executions",
            "",
        ])  # fmt: skip

    def test_a_trace_and_a_snapshot_are_bad_input(self, traces, tmp_path, capsys):
        snapshot = tmp_path / "s.json"
        save_snapshot(MetricsRegistry().snapshot(), snapshot)
        assert main(["diff", traces["a"], str(snapshot)]) == 2
        assert main(["diff", str(snapshot), traces["a"]]) == 2
        assert "two traces or two snapshots" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--tolerance", "0.05"], ["--ignore", "*"]])
    def test_snapshot_filters_on_traces_are_bad_input(self, traces, option, capsys):
        # They used to be accepted and silently ignored.
        assert main(["diff", traces["a"], traces["c"], *option]) == 2
        assert "snapshots, not traces" in capsys.readouterr().err
