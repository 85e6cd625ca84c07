"""ReasonService × cost model: uniform shards with per-request
backends, busy-time accounting, online calibration, and placement
fidelity."""

import pytest

from repro import ReasonService, ReasonSession
from repro.api.scheduler import SchedulingPolicy
from repro.costmodel import CostEstimator
from repro.logic.generators import random_ksat
from repro.pc.learn import random_circuit

from tests.corpus import small_kernels


class TestUniformShards:
    """Every shard is a REASON session with a breaker; only the request
    chooses a substrate."""

    @pytest.mark.parametrize(
        "shards", [["reason"], ["reason", "gpu", "cpu"], ("reason",), []], ids=repr
    )
    def test_backend_names_are_not_a_shard_count(self, shards):
        with pytest.raises(ValueError, match="shards must be a shard count"):
            ReasonService(shards=shards)

    def test_every_shard_is_a_reason_session_with_a_breaker(self):
        with ReasonService(shards=3) as service:
            service.submit(small_kernels()[0], backend="gpu").result(timeout=60)
            service.drain(timeout=60)
            stats = service.stats()
            views = list(service._views)
        assert [shard.breaker for shard in stats.shards] == ["closed"] * 3
        assert all(not hasattr(shard, "backend") for shard in service._shards)
        assert all(not hasattr(shard, "backend") for shard in stats.shards)
        assert [view.backend for view in views] == ["reason"] * 3

    def test_requests_execute_on_their_own_backend(self):
        backends = [None, "gpu", "cpu", "software"]
        with ReasonService(shards=2, policy="round-robin") as service:
            futures = [
                service.submit(kernel, backend=backend)
                for kernel, backend in zip(small_kernels(), backends)
            ]
            reports = [future.result(timeout=60) for future in futures]
        assert [future.shard_index for future in futures] == [0, 1, 0, 1]
        assert [report.backend for report in reports] == ["reason", "gpu", "cpu", "software"]

    @pytest.mark.parametrize("forced", [None, "software"], ids=["default", "forced-backend"])
    def test_every_placed_request_carries_its_one_prediction(self, forced):
        """Admission predicts the request's backend once, before any
        policy runs: whichever shard a policy picks, its busy-time
        charge reads that prediction."""
        seen = []

        class Recording(SchedulingPolicy):
            name = "recording"

            def select(self, request, views):
                seen.extend((request, view) for view in views)
                return len(seen) % len(views)

        with ReasonService(shards=3, policy=Recording()) as service:
            for kernel in small_kernels():
                service.submit(kernel, backend=forced).result(timeout=60)
        assert len(seen) == len(small_kernels()) * 3
        for request, view in seen:
            (prediction,) = request.predicted.values()
            assert list(request.predicted) == [forced or "reason"]
            assert prediction.backend == (forced or "reason") and view.backend == "reason"
            assert prediction.seconds > 0.0

    def test_admission_predicts_once_per_request(self):
        class Recording(CostEstimator):
            def __init__(self):
                super().__init__()
                self.predicted = []

            def predict(self, fingerprint, backend, queries=1, kind=None):
                self.predicted.append((fingerprint, backend))
                return super().predict(fingerprint, backend, queries, kind)

        estimator = Recording()
        kernels = small_kernels() * 2
        backends = [None, "gpu"] * len(small_kernels())
        with ReasonService(shards=3, policy="least-loaded", cost_model=estimator) as service:
            futures = [
                service.submit(kernel, backend=backend, queries=2)
                for kernel, backend in zip(kernels, backends)
            ]
            for future in futures:
                future.result(timeout=60)
            service.drain(timeout=60)
        assert estimator.predicted == [
            (future.fingerprint, backend or "reason")
            for future, backend in zip(futures, backends)
        ]


class TestBusyTimeAccounting:
    def test_busy_drains_to_zero(self):
        with ReasonService(shards=2, policy="least-loaded") as service:
            for kernel in small_kernels() * 3:
                service.submit(kernel, queries=5)
            service.drain()
            stats = service.stats()
        for shard in stats.shards:
            assert shard.busy_s == pytest.approx(0.0, abs=1e-12)
            assert shard.pending == 0
            # Accounting identity still holds with the new fields.
            assert shard.submitted == shard.completed + shard.failed + shard.cancelled

    def test_failed_requests_repay_their_busy_charge(self):
        with ReasonService(shards=1) as service:
            bad = service.submit(random_ksat(8, 24, seed=7), backend="no-such")
            with pytest.raises(KeyError):
                bad.result()
            service.drain()
            stats = service.stats()
        assert stats.shards[0].failed == 1
        assert stats.shards[0].busy_s == pytest.approx(0.0, abs=1e-12)


class TestOnlineCalibration:
    def test_service_feeds_the_cost_model_automatically(self):
        kernel = random_ksat(12, 40, seed=11)
        with ReasonService(shards=1) as service:
            future = service.submit(kernel, queries=4)
            report = future.result()
            prediction = service.cost_model.predict(
                future.fingerprint, "reason", queries=4
            )
        assert prediction.source == "calibrated"
        assert prediction.seconds == pytest.approx(report.seconds, rel=1e-9)

    def test_shared_prewarmed_estimator_prices_the_first_request(self):
        kernel = random_circuit(4, depth=2, seed=12)
        estimator = CostEstimator()
        with ReasonService(shards=1, cost_model=estimator) as warmup:
            fingerprint = warmup.submit(kernel).fingerprint
            warmup.drain()
        with ReasonService(shards=2, cost_model=estimator) as service:
            assert service.cost_model is estimator
            prediction = service.cost_model.predict(fingerprint, "gpu")
        assert prediction.source == "features"
        assert prediction.seconds > 0.0


class TestPlacementFidelity:
    @pytest.mark.parametrize("policy", ["least-loaded", "cache-affinity"])
    def test_reports_bit_identical_to_session_runs(self, policy):
        kernels = small_kernels() * 2
        backends = ["reason", "gpu"] * len(small_kernels())
        with ReasonService(shards=2, policy=policy) as service:
            futures = [
                service.submit(k, backend=backend, queries=3)
                for k, backend in zip(kernels, backends)
            ]
            reports = [future.result() for future in futures]
        session = ReasonSession()
        for kernel, backend, report in zip(kernels, backends, reports):
            assert report.backend == backend
            expected = session.run(kernel, backend=backend, queries=3)
            assert expected.result == report.result
            assert expected.cycles == report.cycles
            assert expected.seconds == report.seconds
            assert expected.energy_j == report.energy_j
