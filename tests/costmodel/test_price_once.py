"""Price once: a (kernel, backend) is priced from its first settled
run — the premise that makes that sound and what the warm path then
costs, through a service."""

import threading

import pytest

from repro import ReasonService
from repro.api.cache import CompileCache
from repro.costmodel.estimator import ALPHA
from repro.logic.generators import random_ksat

from tests.corpus import small_kernels


class CountingLock:
    """Stands in for ``CostEstimator._lock``; counts acquisitions."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquisitions = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquisitions += 1

    def __exit__(self, *exc_info):
        self._lock.release()


class TestPremise:
    def test_a_settled_pair_costs_the_same_on_every_request(self):
        """What the deleted per-fingerprint EWMAs averaged was a
        constant: per query, every report of a (fingerprint, backend) —
        cold, warm, traced, at any ``queries`` — costs what its first
        one did, so the price table never goes stale.

        If this fails, a report has started to depend on something
        besides the compiled artifact and the backend.  Revisit ROADMAP
        "Parked": with per-request run-time inputs the price is a
        function of the input, and ``CostEstimator._prices`` needs that
        input in its key (or an average back) before placement can
        trust it.
        """
        pool = small_kernels()
        # Two rounds at queries=1 put each kernel's first settle on
        # both substrates (alternating by turn, rotated by one); then mixed.
        rounds = [1, 1, 3, 8, 1, 50]
        settled = []
        with ReasonService(shards=2, metrics=True) as service:
            for turn, queries in enumerate(rounds):
                futures = [
                    service.submit(
                        pool[(i + turn) % len(pool)],
                        backend=("reason", "gpu")[i % 2],
                        queries=queries,
                    )
                    for i in range(len(pool))
                ]
                settled += [(future, future.result(timeout=60)) for future in futures]
                service.drain()
            traced = service.submit(pool[0], backend="reason", trace=True)
            settled.append((traced, traced.result(timeout=60)))
            service.drain()
            prices = dict(service.cost_model._prices)
            spans = service.spans()
        assert settled[-1][1].executed and "trace_data" in settled[-1][1].extras
        assert len(prices) == 2 * len(pool)
        for future, result in settled:
            seconds, energy_j = prices[future.fingerprint, result.backend]
            # (x * q) / q is x to an ulp, and to the bit at q == 1.
            rel = 0.0 if result.queries == 1 else 1e-15
            assert result.seconds / result.queries == pytest.approx(seconds, rel=rel, abs=0.0)
            assert result.energy_j / result.queries == pytest.approx(energy_j, rel=rel, abs=0.0)
        warm = [
            span
            for span in spans
            if span.predicted_source == "calibrated"
            and span.backend == "reason"
            and span.queries == 1
        ]
        # Round 4's reason half, and the traced request.
        assert len(warm) == len(pool) // 2 + 1
        assert all(span.latency_residual == 1.0 for span in warm)
        first_sights = [span for span in spans if span.predicted_source != "calibrated"]
        assert len(first_sights) == len(prices)


class TestWarmPath:
    def test_a_priced_request_costs_the_model_one_probe(self, monkeypatch):
        cold_kernel, other = random_ksat(12, 40, seed=7), random_ksat(12, 40, seed=8)
        peeks = []
        peek = CompileCache.peek
        monkeypatch.setattr(
            CompileCache, "peek", lambda self, key: peeks.append(key) or peek(self, key)
        )
        with ReasonService(shards=1) as service:
            lock = service.cost_model._lock = CountingLock()
            first = service.submit(cold_kernel)
            cold = first.result(timeout=60)
            service.drain()
            # The first settle is the one that pays: one peek, one lock.
            assert (len(peeks), lock.acquisitions) == (1, 1)
            warm = service.submit(cold_kernel).result(timeout=60)
            service.drain()
            assert (len(peeks), lock.acquisitions) == (1, 1)
            prediction = service.cost_model.predict(first.fingerprint, "reason")
            # And it is paid per pair, not per service.
            service.submit(other).result(timeout=60)
            service.drain()
            assert (len(peeks), lock.acquisitions) == (2, 2)
        assert warm.cache_hit and not cold.cache_hit
        assert prediction.source == "calibrated"
        assert prediction.seconds == warm.seconds == cold.seconds
        assert prediction.energy_j == warm.energy_j == cold.energy_j

    def test_class_tables_take_one_sample_per_distinct_pair(self):
        first, second = random_ksat(12, 40, seed=7), random_ksat(14, 50, seed=8)
        with ReasonService(shards=1) as service:

            def serve(kernel, times):
                for _ in range(times):
                    served = service.submit(kernel, queries=2).result(timeout=60)
                    service.drain()
                return served.seconds / 2

            a, b = serve(first, 5), serve(second, 3)
            assert serve(first, 2) == a != b
            estimator = service.cost_model
        assert len(estimator._prices) == 2
        # Ten requests, two samples: a seeds the EWMA, b moves it once.
        assert estimator._class_seconds["cnf", "reason"] == a + ALPHA * (b - a)
