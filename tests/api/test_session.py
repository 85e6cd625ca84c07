"""ReasonSession facade: run/run_batch semantics across backends and
public exports."""

import inspect

import pytest

import repro
from repro import BatchResult, ReasonService, ReasonSession
from repro.hmm.model import HMM
from repro.logic.generators import random_ksat
from repro.pc.learn import random_circuit
from repro.trace import timeline


class TestRun:
    def test_queries_scale_cycles_exactly(self):
        session = ReasonSession()
        kernel = random_ksat(12, 40, seed=0)
        one = session.run(kernel, queries=1)
        many = session.run(kernel, queries=10)
        assert many.cycles == one.cycles * 10
        assert many.seconds == pytest.approx(one.seconds * 10)
        assert many.seconds / many.queries == pytest.approx(one.seconds)

    def test_invalid_queries_rejected(self):
        with pytest.raises(ValueError):
            ReasonSession().run(random_ksat(6, 18, seed=1), queries=0)

    def test_record_events_surfaces_timeline(self):
        report = ReasonSession().run(
            random_ksat(10, 30, seed=2), backend="reason", trace=True
        )
        events = list(timeline(report.extras["trace_data"]))
        assert events and all(unit for _, unit, _ in events)
        assert events[-1][0] == report.cycles  # RUN_END closes the timeline

    def test_scaled_report(self):
        report = ReasonSession().run(random_ksat(10, 30, seed=3))
        scaled = report.scaled(100.0)
        assert scaled.cycles == report.cycles * 100
        assert scaled.seconds == pytest.approx(report.seconds * 100)
        assert scaled.backend == report.backend


class TestRunBatch:
    def test_batched_totals_match_serial_sum_without_overlap(self):
        session = ReasonSession()
        kernels = [random_ksat(10, 30, seed=s) for s in range(4)]
        batch = session.run_batch(kernels, neural_s=0.0)
        assert isinstance(batch, BatchResult)
        assert len(batch) == 4
        per_kernel = sum(report.seconds for report in batch.reports)
        # Serial makespan = sum of stage times plus per-task handoffs.
        assert batch.serial_s == pytest.approx(per_kernel, rel=1e-6, abs=1e-4)

    def test_pipelined_batch_not_slower_and_overlap_reported(self):
        session = ReasonSession()
        kernels = [random_ksat(10, 30, seed=s) for s in range(4)]
        symbolic = session.run_batch(kernels, queries=1000)
        neural_s = symbolic.reports[0].seconds  # balanced two-stage pipeline
        overlapped = session.run_batch(kernels, queries=1000, neural_s=neural_s)
        assert overlapped.total_s < overlapped.serial_s
        assert overlapped.overlap_saved_s > 0
        assert overlapped.speedup > 1.0

    def test_batch_reports_cache_hits(self):
        session = ReasonSession()
        kernel = random_ksat(10, 30, seed=5)
        batch = session.run_batch([kernel] * 5)
        assert batch.cache_misses == 1 and batch.cache_hits == 4
        assert batch.hit_rate == pytest.approx(0.8)

    def test_mixed_kernel_families_in_one_batch(self):
        session = ReasonSession()
        circuit = random_circuit(4, depth=2, seed=6)
        kernels = [random_ksat(8, 24, seed=7), circuit, HMM.random(3, 4, seed=8)]
        batch = session.run_batch(kernels)
        assert [r.kernel for r in batch.reports] == ["cnf", "circuit", "hmm"]

    def test_mismatched_lengths_rejected(self):
        session = ReasonSession()
        kernels = [random_ksat(8, 24, seed=12)] * 2
        with pytest.raises(ValueError):
            session.run_batch(kernels, neural_s=[0.1])

    def test_options_parsed_once_per_batch(self, monkeypatch):
        """Regression: run_batch used to rebuild RunOptions for every
        kernel (twice per request, counting compile)."""
        import repro.api.session as session_module

        real = session_module.RunOptions
        constructions = []

        def counting(*args, **kwargs):
            constructions.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(session_module, "RunOptions", counting)
        session = ReasonSession()
        kernels = [random_ksat(8, 24, seed=s) for s in range(4)]
        session.run_batch(kernels, keep_fraction=0.9)
        assert len(constructions) == 1


class TestBackends:
    def test_every_backend_runs_a_kernel(self):
        session = ReasonSession()
        kernel = random_ksat(10, 30, seed=21)
        for name in repro.list_backends():
            report = session.run(kernel, backend=name)
            assert report.backend == name
            assert report.kernel == "cnf"

    def test_functional_backends_agree(self):
        session = ReasonSession()
        kernel = random_ksat(10, 30, seed=22)
        reports = {
            name: session.run(kernel, backend=name) for name in ("reason", "software")
        }
        assert reports["reason"].result == reports["software"].result

    def test_one_compile_serves_every_backend(self):
        session = ReasonSession()
        kernel = random_circuit(4, depth=2, seed=23)
        for name in ("reason", "gpu", "cpu"):
            session.run(kernel, backend=name)
        assert session.prepare_calls == 1
        assert session.cache_stats.hits == 2


class TestPublicSurface:
    def test_top_level_imports(self):
        assert repro.__version__ == "1.44.0"
        for name in (
            "ReasonSession",
            "ReasonService",
            "ReasonFuture",
            "Backend",
            "ExecutionReport",
            "BatchResult",
            "ServiceBatchResult",
            "list_policies",
            "TraceReader",
            "TraceWriter",
            "MetricsRegistry",
            "RequestSpan",
            "SpanLog",
            "diff_snapshots",
            "render_prometheus",
        ):
            assert hasattr(repro, name)

    def test_one_mode_constructors(self):
        """Sessions always cache and nothing smuggles a span through the
        compile options: the arguments that selected otherwise are gone."""
        session = inspect.signature(ReasonSession).parameters
        service = inspect.signature(ReasonService).parameters
        assert "cache" not in session and "cache" not in service
        assert "cost_model" not in service and len(service) == 11
        with pytest.raises(TypeError):
            ReasonSession().run(random_ksat(6, 18, seed=1), span=object())
        assert ReasonSession(store="shared")._cache.store is not None
        with ReasonService(shards=1, store="shared") as built:
            assert built.store is not None

    def test_a_fault_plan_is_no_argument(self):
        """A chaos drill wraps the backend, adapter and store it breaks:
        neither constructor takes a plan, and the package exports none."""
        with pytest.raises(TypeError, match="faults"):
            ReasonSession(faults=None)
        with pytest.raises(TypeError, match="faults"):
            ReasonService(faults=None)
        assert not hasattr(repro, "FaultPlan") and not hasattr(repro, "FaultInjected")
