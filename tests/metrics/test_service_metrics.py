"""Serving-path telemetry: spans, session/service instrumentation,
bit-identity with metrics on, and stats serialization."""

import dataclasses
import gc
import math
import threading
import weakref

import numpy as np
import pytest

from repro.api.adapters import CnfAdapter, RunOptions, adapter_for
from repro.api import resilience
from repro.api import service as service_module
from repro.api.service import ReasonService
from repro.api.session import ReasonSession
from repro.core.arch.config import DEFAULT_CONFIG
from repro.core.system.pipeline import PipelineResult
from repro.core.system.sharding import ShardComposition
from repro.logic.generators import random_ksat
from repro.metrics import Histogram, MetricsRegistry, RequestSpan, SpanLog
from repro.pc.learn import random_circuit

from tests.chaos import FaultPlan


def _kernels():
    return [random_ksat(20, 80, seed=seed) for seed in range(2)] + [
        random_circuit(5, depth=2, sum_children=2, seed=1)
    ]


class TestSessionMetrics:
    def test_reports_bit_identical_with_metrics_on(self):
        kernel = random_ksat(30, 120, seed=5)
        plain = ReasonSession().run(kernel)
        metered = ReasonSession(metrics=True).run(kernel)
        assert metered.cycles == plain.cycles
        assert metered.seconds == plain.seconds
        assert metered.energy_j == plain.energy_j
        assert metered.result == plain.result

    def test_compile_and_run_instruments(self):
        session = ReasonSession(metrics=True)
        kernel = random_ksat(16, 56, seed=2)
        session.run(kernel)
        session.run(kernel)  # warm: no second compile observation
        snap = session.metrics.snapshot()["metrics"]
        assert snap["reason_compile_seconds"]["series"][""]["count"] == 1
        assert snap["reason_runs_total"]["series"]["backend=reason"] == 2
        assert snap["reason_run_seconds"]["series"]["backend=reason"]["count"] == 2
        assert snap["reason_prepare_calls_total"]["series"][""] == 1
        assert snap["reason_cache_misses_total"]["series"][""] == 1
        assert snap["reason_cache_local_hits_total"]["series"][""] == 1
        assert snap["reason_cache_artifacts"]["series"][""] == 1

    def test_shared_registry_needs_distinct_labels(self):
        registry = MetricsRegistry()
        ReasonSession(metrics=registry, metrics_labels={"shard": "0"})
        with pytest.raises(ValueError):
            ReasonSession(metrics=registry, metrics_labels={"shard": "0"})
        ReasonSession(metrics=registry, metrics_labels={"shard": "1"})

    def test_bad_metrics_argument(self):
        with pytest.raises(TypeError):
            ReasonSession(metrics="on")


class TestFingerprintExclusion:
    """Observation knobs must never split the compile cache."""

    def test_span_and_trace_not_in_fingerprint(self):
        # trace= and verify= are options the fingerprint skips; the span
        # is not an option at all, so it has nothing to enter it by.
        kernel = random_ksat(14, 48, seed=6)
        adapter = adapter_for(kernel)
        base = adapter.fingerprint(kernel, RunOptions(), DEFAULT_CONFIG)
        observed = adapter.fingerprint(
            kernel, RunOptions(trace=True, verify=True), DEFAULT_CONFIG
        )
        assert observed == base
        assert "span" not in RunOptions.__dataclass_fields__


class TestServiceMetrics:
    def test_spans_cover_every_request(self):
        kernels = _kernels()
        with ReasonService(shards=2, metrics=True) as service:
            futures = [
                service.submit(kernels[i % len(kernels)]) for i in range(9)
            ]
            reports = [future.result(timeout=60) for future in futures]
            service.drain()
            spans = service.spans()
            snap = service.metrics().snapshot()["metrics"]
        assert len(spans) == 9
        by_fp = {span.fingerprint for span in spans}
        assert by_fp == {future.fingerprint for future in futures}
        for span in spans:
            assert span.status == "ok"
            assert span.e2e_s >= span.execute_s > 0.0
            assert span.queue_wait_s >= 0.0
            assert 0 <= span.shard < 2
            assert span.backend == "reason"
            assert span.actual_s in {report.seconds for report in reports}
        e2e = snap["reason_request_e2e_seconds"]["series"]["backend=reason"]
        assert e2e["count"] == 9
        assert snap["reason_service_admitted_total"]["series"][""] == 9
        # Shard callbacks mirror the counters exactly.
        completed = sum(
            snap["reason_shard_completed_total"]["series"][f"shard={i}"]
            for i in range(2)
        )
        assert completed == 9

    def test_failed_request_span(self):
        with ReasonService(shards=1, metrics=True) as service:
            bad = service.submit(random_ksat(8, 24, seed=7), backend="no-such")
            with pytest.raises(KeyError):
                bad.result(timeout=30)
            service.drain()
            spans = service.spans()
            snap = service.metrics().snapshot()["metrics"]
        (span,) = spans
        assert span.status == "error"
        assert "no-such" in span.error
        # Failures stay out of the latency histograms.
        assert "reason_request_e2e_seconds" not in snap

    def test_ok_span_legs_are_the_reports(self):
        kernel = random_ksat(16, 56, seed=3)
        with ReasonService(shards=1, metrics=True) as service:
            reports = [service.submit(kernel).result(timeout=60) for _ in range(2)]
            spans = service.spans()  # logged before each future resolved
        assert [report.cache_hit for report in reports] == [False, True]
        for span, report in zip(spans, reports):
            assert span.status == "ok" and span.error == ""
            assert span.compile_s == report.compile_s
            assert span.execute_s == report.execute_s > 0.0
            assert span.cache_hit is report.cache_hit
            assert span.executed is report.executed
            assert span.actual_s == report.seconds
            assert span.actual_energy_j == report.energy_j
            assert span.backend == report.backend and span.kind == report.kernel
            assert span.admitted_at <= span.started_at <= span.finished_at
        assert spans[0].compile_s > 0.0 and spans[1].compile_s == 0.0

    def test_span_status_is_the_settle_outcome_not_the_exception_name(self, monkeypatch):
        """A user's own ``DeadlineExceeded`` is an error like any other:
        the span and the counters describe the same request the same way."""

        class DeadlineExceeded(Exception):
            pass

        def prepare(self, kernel, options, config):
            raise DeadlineExceeded("the user's own")

        monkeypatch.setattr(CnfAdapter, "prepare", prepare)
        with ReasonService(shards=1, metrics=True) as service:
            with pytest.raises(DeadlineExceeded):
                service.submit(random_ksat(8, 24, seed=7)).result(timeout=30)
            service.drain(timeout=15)
            (span,) = service.spans()
            stats = service.stats()
        assert span.status == "error"
        assert span.error == "DeadlineExceeded: the user's own"
        assert (stats.failed, stats.expired) == (1, 0)

    def test_missed_deadline_span(self, chaos):
        chaos(FaultPlan(latency_rate=1.0, latency_s=0.5))  # outlasts the budget
        with ReasonService(shards=1, metrics=True) as service:
            future = service.submit(random_ksat(10, 30, seed=0), deadline_s=0.05)
            with pytest.raises(resilience.DeadlineExceeded):
                future.result(timeout=30)
            (span,) = service.spans()
            service.drain(timeout=15)
            stats = service.stats()
        assert span.status == "deadline"
        assert span.error.startswith("DeadlineExceeded: ")
        assert (stats.failed, stats.expired) == (1, 1)
        assert span.started_at > 0.0 and span.execute_s == 0.0

    def test_rerouted_retry_span_carries_the_final_shard(self, chaos):
        # Round-robin opens on shard 0; its one injected fault sends the
        # retry to the only other shard.
        chaos(FaultPlan(seed=1, execute_error_rate=1.0, max_injections=1))
        with ReasonService(
            shards=2, metrics=True, retry=resilience.RetryPolicy(max_attempts=3)
        ) as service:
            future = service.submit(random_ksat(12, 40, seed=1))
            report = future.result(timeout=30)
            (span,) = service.spans()
        assert future.shard_index == 1
        assert (span.status, span.shard, span.attempts) == ("ok", 1, 2)
        assert report.extras["attempts"] == 2
        assert span.execute_s == report.execute_s

    def test_cancelled_span(self):
        kernels = _kernels()
        with ReasonService(shards=1, metrics=True) as service:
            # Pile up one shard's queue so the last request is still
            # queued when we cancel it.  Cancellation can legitimately
            # lose the race to the worker; the span must agree with
            # whichever side won.
            futures = [
                service.submit(kernels[index % len(kernels)])
                for index in range(8)
            ]
            cancelled = futures[-1].cancel()
            service.drain()
            spans = service.spans()
        statuses = [span.status for span in spans]
        assert len(spans) == 8
        if cancelled:
            assert statuses.count("cancelled") == 1
            assert statuses.count("ok") == 7
        else:
            assert statuses.count("ok") == 8

    def test_rejected_requests_counted(self):
        from repro.api.service import ServiceClosed

        service = ReasonService(shards=1, metrics=True)
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(random_ksat(8, 24, seed=1))
        snap = service.metrics().snapshot()["metrics"]
        rejected = snap["reason_service_rejected_total"]["series"]
        assert rejected["reason=closed"] == 1
        assert rejected["reason=overloaded"] == 0

    def test_shared_registry_across_services(self):
        registry = MetricsRegistry()
        with ReasonService(shards=1, metrics=registry) as service:
            assert service.metrics() is registry
        # A second service would collide on the unlabeled service
        # counters — documented behavior, loud failure.
        with pytest.raises(ValueError):
            ReasonService(shards=1, metrics=registry)


class TestOneMode:
    """Telemetry has no off mode: every service keeps spans, and the
    batched folds lose nothing."""

    LEGS = (
        ("queue_wait_s", "reason_request_queue_wait_seconds"),
        ("execute_s", "reason_request_execute_seconds"),
        ("e2e_s", "reason_request_e2e_seconds"),
    )

    def test_metrics_false_raises(self):
        with pytest.raises(TypeError, match="always on"):
            ReasonSession(metrics=False)
        with pytest.raises(TypeError, match="always on"):
            ReasonService(shards=1, metrics=False)

    def test_span_histograms_equal_sequential_observe(self):
        kernels = _kernels()
        with ReasonService(shards=2, policy="round-robin") as service:
            for index in range(12):
                backend = ("reason", "gpu")[index % 2]
                service.submit(kernels[index % len(kernels)], backend=backend).result(timeout=60)
            service.drain(timeout=60)
            spans = service.spans()
            snap = service.metrics().snapshot()["metrics"]
        assert len(spans) == 12
        for backend in ("reason", "gpu"):
            mine = [span for span in spans if span.backend == backend]
            assert mine
            for leg, name in self.LEGS:
                reference = Histogram()
                for span in mine:
                    reference.observe(getattr(span, leg))
                expected = reference.snapshot_value()
                folded = snap[name]["series"][f"backend={backend}"]
                assert folded["count"] == expected["count"] > 0
                for key in ("buckets", "overflow", "min", "max", "p50", "p95", "p99"):
                    assert folded[key] == expected[key], (leg, key)
                assert folded["sum"] == pytest.approx(expected["sum"], rel=1e-12)

    def test_ring_wraps_without_losing_observations(self, monkeypatch):
        monkeypatch.setattr(service_module, "SPAN_LOG_SIZE", 16)
        kernels = _kernels()
        with ReasonService(shards=1) as service:
            futures = [service.submit(kernels[index % len(kernels)]) for index in range(100)]
            for future in futures:
                future.result(timeout=60)
            service.drain(timeout=60)
            spans = service.spans()
            snap = service.metrics().snapshot()["metrics"]
        # One shard serves its queue in order: the ring keeps the last 16.
        assert [span.fingerprint for span in spans] == [f.fingerprint for f in futures[-16:]]
        for _, name in self.LEGS:
            assert snap[name]["series"]["backend=reason"]["count"] == 100, name
        assert snap["reason_service_admitted_total"]["series"][""] == 100
        assert snap["reason_runs_total"]["series"]["backend=reason,shard=0"] == 100

    def test_caller_woken_by_result_finds_its_span(self):
        kernels = _kernels()
        missing = []
        with ReasonService(shards=2) as service:

            def caller(index):
                future = service.submit(kernels[index % len(kernels)], queries=index + 1)
                future.result(timeout=60)
                if not any(
                    span.fingerprint == future.fingerprint and span.queries == index + 1
                    for span in service.spans()
                ):
                    missing.append(index)

            threads = [threading.Thread(target=caller, args=(index,)) for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert missing == []

    def test_registry_keeps_no_dropped_session_or_service_alive(self):
        # A session or service owns its registry, so callbacks holding
        # it strongly would be a cycle: a dropped one, compile cache and
        # all, would live on until a full garbage collection.
        kernel = random_ksat(12, 40, seed=4)
        registry = MetricsRegistry()
        gc.disable()
        try:
            session = ReasonSession()
            session.run(kernel)
            dropped = [weakref.ref(session)]
            del session
            service = ReasonService(shards=2, metrics=registry)
            service.submit(kernel).result(timeout=60)
            service.close()
            dropped.append(weakref.ref(service))
            del service
            assert [ref() for ref in dropped] == [None, None]
        finally:
            gc.enable()
        # What the registry mirrored is gone and reads NaN; close()
        # folded the service's spans into the histograms it shares.
        snap = registry.snapshot()["metrics"]
        assert math.isnan(snap["reason_service_admitted_total"]["series"][""])
        assert snap["reason_request_e2e_seconds"]["series"]["backend=reason"]["count"] == 1

    def test_spans_last_is_a_count(self):
        kernel = random_ksat(12, 40, seed=2)
        with ReasonService(shards=1) as service:
            for _ in range(5):
                service.submit(kernel).result(timeout=60)
            assert service.spans(last=0) == []
            assert len(service.spans(last=2)) == 2
            assert len(service.spans(last=np.int64(9))) == 5
            for last in (-2, True, 1.5, "2"):
                with pytest.raises(ValueError, match="last"):
                    service.spans(last=last)


class TestSpanLog:
    def test_last_is_a_count(self):
        log = SpanLog(maxlen=8)
        log.extend(RequestSpan("ok", fingerprint=str(index)) for index in range(5))
        assert log.snapshot(0) == []
        assert [span.fingerprint for span in log.snapshot(7)] == ["0", "1", "2", "3", "4"]
        for last in (-2, False, 2.0):
            with pytest.raises(ValueError, match="last"):
                log.snapshot(last)

    def test_bounded_ring(self):
        log = SpanLog(maxlen=3)
        log.extend(RequestSpan("ok", fingerprint=str(index)) for index in range(5))
        assert len(log) == 3
        assert [span.fingerprint for span in log.snapshot()] == ["2", "3", "4"]
        assert [span.fingerprint for span in log.snapshot(last=2)] == ["3", "4"]
        with pytest.raises(ValueError):
            SpanLog(0)

    def test_span_durations_derive_from_its_timestamps(self):
        span = RequestSpan(
            "ok", fingerprint="abc", kind="cnf", backend="reason",
            admitted_at=1.0, started_at=1.5, finished_at=3.0,
        )
        assert (span.queue_wait_s, span.e2e_s) == (0.5, 2.0)
        with pytest.raises(TypeError):
            RequestSpan()  # a span without an outcome is not a record


class TestStatsSerialization:
    def test_service_stats_round_trip(self):
        kernels = _kernels()
        with ReasonService(shards=2, metrics=True) as service:
            for index in range(6):
                service.submit(kernels[index % len(kernels)]).result(timeout=60)
            service.drain()
            stats = service.stats()
        import json

        payload = json.loads(json.dumps(dataclasses.asdict(stats)))
        assert set(payload) == {"policy", "shards", "composition"}
        assert payload["policy"] == stats.policy
        assert sum(shard["completed"] for shard in payload["shards"]) == 6
        assert [shard["cache"]["misses"] for shard in payload["shards"]] == [
            shard.cache.misses for shard in stats.shards
        ]
        assert payload["composition"]["total_s"] == stats.makespan_s
        assert len(payload["composition"]["per_shard"]) == 2

    def test_zero_request_stats_compose_empty(self):
        with ReasonService(shards=3) as service:
            stats = service.stats()
        assert stats.completed == 0
        assert stats.makespan_s == 0.0
        assert stats.throughput_rps == 0.0
        assert stats.composition == ShardComposition(
            per_shard=[PipelineResult(0.0, 0.0, 0.0, 0.0)] * 3,
            total_s=0.0,
            single_shard_s=0.0,
            serial_s=0.0,
        )
