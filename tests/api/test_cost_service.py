"""ReasonService × cost model: heterogeneous shards, busy-time
accounting, online calibration, and placement fidelity."""

import pytest

from repro import ReasonService, ReasonSession
from repro.api.scheduler import SchedulingPolicy
from repro.costmodel import CostEstimator
from repro.hmm.model import HMM
from repro.logic.generators import random_ksat
from repro.pc.learn import random_circuit


def mixed_kernels():
    return [
        random_ksat(12, 40, seed=0),
        random_circuit(4, depth=2, seed=1),
        HMM.random(3, 4, seed=2),
        random_ksat(10, 32, seed=3),
    ]


class TestHeterogeneousShards:
    def test_backend_specs_give_each_shard_a_substrate(self):
        with ReasonService(shards=["reason", "gpu", "cpu"]) as service:
            assert service.num_shards == 3
            assert service.shard_backends == ["reason", "gpu", "cpu"]
            stats = service.stats()
            assert [shard.backend for shard in stats.shards] == [
                "reason",
                "gpu",
                "cpu",
            ]

    def test_integer_shards_stay_homogeneous(self):
        with ReasonService(shards=3) as service:
            assert service.shard_backends == ["reason"] * 3

    def test_requests_execute_on_their_shards_substrate(self):
        with ReasonService(shards=["reason", "gpu"], policy="round-robin") as service:
            futures = [service.submit(k) for k in mixed_kernels()]
            reports = [future.result() for future in futures]
        for future, report in zip(futures, reports):
            expected = ["reason", "gpu"][future.shard_index]
            assert report.backend == expected

    def test_forced_backend_overrides_the_shard_default(self):
        with ReasonService(shards=["reason", "gpu"], policy="round-robin") as service:
            reports = [
                service.submit(k, backend="software").result()
                for k in mixed_kernels()[:2]
            ]
        assert all(report.backend == "software" for report in reports)

    @pytest.mark.parametrize(
        "shards, forced",
        [(2, None), (["reason", "gpu", "cpu"], None), (["reason", "gpu", "cpu"], "software")],
        ids=["homogeneous", "heterogeneous", "forced-backend"],
    )
    def test_every_placed_request_has_a_prediction_for_every_view(self, shards, forced):
        """Admission predicts the forced backend, or every distinct shard
        substrate, before any policy runs: whichever shard a policy
        picks, its busy-time charge reads an existing prediction."""
        seen = []

        class Recording(SchedulingPolicy):
            name = "recording"

            def select(self, request, views):
                seen.extend((request, view) for view in views)
                return len(seen) % len(views)

        with ReasonService(shards=shards, policy=Recording()) as service:
            for kernel in mixed_kernels():
                service.submit(kernel, backend=forced).result()
            backends = service.shard_backends
        assert len(seen) == len(mixed_kernels()) * len(backends)
        for request, view in seen:
            prediction = request.predicted[forced or view.backend]
            assert prediction.backend == (forced or backends[view.index])
            assert prediction.seconds > 0.0

    def test_unknown_substrate_rejected_at_construction(self):
        with pytest.raises(KeyError):
            ReasonService(shards=["reason", "warp-drive"])

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            ReasonService(shards=[])


class TestBusyTimeAccounting:
    def test_busy_drains_to_zero(self):
        with ReasonService(shards=2, policy="least-loaded") as service:
            for kernel in mixed_kernels() * 3:
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
        kernels = mixed_kernels() * 2
        with ReasonService(shards=["reason", "gpu"], policy=policy) as service:
            futures = [service.submit(k, queries=3) for k in kernels]
            reports = [future.result() for future in futures]
        session = ReasonSession()
        for kernel, report in zip(kernels, reports):
            expected = session.run(kernel, backend=report.backend, queries=3)
            assert expected.result == report.result
            assert expected.cycles == report.cycles
            assert expected.seconds == report.seconds
            assert expected.energy_j == report.energy_j
