"""ReasonService: admission, futures, sharding, backpressure, stats."""

import asyncio
import random
import threading

import pytest

from repro import ReasonService, ReasonSession
from repro.api import ServiceBatchResult, ServiceClosed, ServiceOverloaded
from repro.api.scheduler import SchedulingPolicy
from repro.costmodel import CostEstimator
from repro.hmm.model import HMM
from repro.logic.generators import random_ksat, redundant_sat
from repro.pc.learn import random_circuit

from tests.api.conftest import wait_until_running
from tests.corpus import small_kernels


class TestSubmit:
    def test_future_resolves_to_report(self):
        with ReasonService(shards=2) as service:
            future = service.submit(random_ksat(10, 30, seed=4), queries=5)
            report = future.result(timeout=30)
        assert report.result in (0.0, 1.0)
        assert report.queries == 5
        assert future.kind == "cnf"
        assert 0 <= future.shard_index < 2
        assert future.fingerprint

    def test_results_bit_identical_to_synchronous_session(self):
        kernels = small_kernels()
        session = ReasonSession()
        with ReasonService(shards=4) as service:
            futures = [service.submit(k, queries=7) for k in kernels]
            reports = [f.result(timeout=30) for f in futures]
        for kernel, served in zip(kernels, reports):
            sync = session.run(kernel, queries=7)
            assert served.result == sync.result
            assert served.cycles == sync.cycles
            assert served.seconds == sync.seconds
            assert served.energy_j == sync.energy_j

    def test_submit_after_close_rejected(self):
        service = ReasonService(shards=1)
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(random_ksat(8, 24, seed=5))
        service.close()  # idempotent

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            ReasonService(shards=0)
        with pytest.raises(ValueError):
            ReasonService(shards=1, max_queue=0)
        with pytest.raises(KeyError):
            ReasonService(shards=1, policy="no-such-policy")

    def test_invalid_queries_rejected_at_admission(self):
        with ReasonService(shards=1) as service:
            with pytest.raises(ValueError):
                service.submit(random_ksat(8, 24, seed=6), queries=0)

    def test_execution_error_lands_on_the_future(self):
        with ReasonService(shards=1) as service:
            bad = service.submit(random_ksat(8, 24, seed=7), backend="no-such")
            with pytest.raises(KeyError):
                bad.result(timeout=30)
            # The shard survives a failed request and keeps serving;
            # failures are not counted as completions.
            good = service.submit(random_ksat(8, 24, seed=7))
            assert good.result(timeout=30).result in (0.0, 1.0)
            service.drain()
            stats = service.stats()
            assert stats.failed == 1 and stats.completed == 1
            assert stats.submitted == 2


class TestBackpressure:
    def test_full_queue_times_out_with_service_overloaded(self, gate):
        kernel = random_ksat(8, 24, seed=8)
        service = ReasonService(shards=1, max_queue=1)
        try:
            running = service.submit(kernel, backend="test-gate")
            # Wait until the worker dequeues the first item so the
            # single queue slot frees deterministically.
            wait_until_running(running)
            queued = service.submit(kernel, backend="test-gate")
            with pytest.raises(ServiceOverloaded):
                service.submit(kernel, backend="test-gate", timeout=0.0)
        finally:
            gate.set()
            service.close()
        assert running.result(timeout=30).result == 1.0
        assert queued.result(timeout=30).result == 1.0

    def test_timeout_covers_lock_wait_behind_parked_producer(self, gate):
        """A bounded submit must reject promptly even while another
        producer blocks inside the same shard's admission (holding the
        submit lock on a full queue)."""
        import time

        kernel = random_ksat(8, 24, seed=30)
        service = ReasonService(shards=1, max_queue=1)
        try:
            running = service.submit(kernel, backend="test-gate")
            wait_until_running(running)
            queued = service.submit(kernel, backend="test-gate")  # fills the queue

            parked = threading.Thread(
                target=lambda: service.submit(kernel, backend="test-gate")
            )
            parked.start()  # blocks in queue.put holding submit_lock
            time.sleep(0.05)

            start = time.monotonic()
            with pytest.raises(ServiceOverloaded):
                service.submit(kernel, backend="test-gate", timeout=0.1)
            assert time.monotonic() - start < 5.0  # bounded, not forever
        finally:
            gate.set()
            parked.join(timeout=30)
            service.close()
        assert running.result(timeout=30).result == 1.0
        assert queued.result(timeout=30).result == 1.0

    def test_submit_batch_cancels_admitted_work_on_rejection(self, gate):
        kernel = random_ksat(8, 24, seed=31)
        service = ReasonService(shards=1, max_queue=1)
        try:
            running = service.submit(kernel, backend="test-gate")
            wait_until_running(running)
            # Slot 1 of the batch fills the queue; slot 2 is rejected at
            # timeout=0 — the already-admitted slot-1 future must come
            # back cancelled instead of leaking into the shard.
            with pytest.raises(ServiceOverloaded):
                service.submit_batch([kernel] * 2, backend="test-gate", timeout=0.0)
        finally:
            gate.set()
            service.close()
        assert running.result(timeout=30).result == 1.0
        stats = service.stats()
        assert stats.cancelled == 1 and stats.completed == 1

    def test_queued_request_can_be_cancelled(self, gate):
        kernel = random_ksat(8, 24, seed=9)
        service = ReasonService(shards=1, max_queue=4)
        try:
            running = service.submit(kernel, backend="test-gate")
            wait_until_running(running)
            queued = service.submit(kernel, backend="test-gate")
            assert queued.cancel()
        finally:
            gate.set()
            service.close()
        assert running.result(timeout=30).result == 1.0
        assert queued.cancelled()
        stats = service.stats()
        assert stats.cancelled == 1 and stats.completed == 1
        # The accounting identity every monitoring consumer relies on:
        assert stats.submitted == stats.completed + stats.failed + stats.cancelled

    def test_close_without_wait_needs_no_queue_slot(self, gate):
        """Shutdown is independent of queue occupancy: with the one
        queue slot taken and the worker parked, close(wait=False)
        returns at once, the queued request is still served, and a
        producer parked on the full queue learns the service closed —
        not that it is overloaded."""
        import time

        kernel = random_ksat(8, 24, seed=33)
        service = ReasonService(shards=1, max_queue=1)
        raised = []

        def parked_submit():
            try:
                service.submit(kernel, backend="test-gate", timeout=8.0)
            except Exception as exc:
                raised.append(exc)

        try:
            running = service.submit(kernel, backend="test-gate")
            wait_until_running(running)
            queued = service.submit(kernel, backend="test-gate")  # fills the queue
            racer = threading.Thread(target=parked_submit)
            racer.start()
            time.sleep(0.05)  # let it park on the full queue
            start = time.monotonic()
            service.close(wait=False)
            elapsed = time.monotonic() - start
            racer.join(timeout=5.0)  # the gate is still shut
            assert not racer.is_alive()
        finally:
            gate.set()
        assert elapsed < 1.0
        assert [type(exc) for exc in raised] == [ServiceClosed]
        assert running.result(timeout=30).result == 1.0
        assert queued.result(timeout=30).result == 1.0
        worker = service._shards[0].thread
        worker.join(timeout=30)
        assert not worker.is_alive()
        stats = service.stats()
        assert stats.submitted == stats.completed == 2


class TestSharding:
    def test_shards_own_private_caches(self):
        kernel = random_ksat(10, 30, seed=10)
        with ReasonService(shards=2, policy="round-robin") as service:
            for _ in range(4):  # round-robin alternates shards
                service.submit(kernel)
            service.drain()
            assert service._shards[0].session.prepare_calls == 1
            assert service._shards[1].session.prepare_calls == 1
            stats = service.stats()
        assert stats.cache_misses == 2 and stats.cache_hits == 2

    def test_cache_affinity_pins_identical_requests_to_one_shard(self):
        kernel = random_ksat(10, 30, seed=11)
        with ReasonService(shards=4, policy="cache-affinity") as service:
            futures = [service.submit(kernel) for _ in range(6)]
            reports = [f.result(timeout=30) for f in futures]
        assert len({f.shard_index for f in futures}) == 1
        assert sum(1 for r in reports if r.cache_hit) == 5

    def test_affinity_beats_round_robin_on_skewed_trace(self):
        """Acceptance: strictly higher warm hit rate on repeated kernels."""
        distinct = [random_ksat(10, 30, seed=s) for s in (12, 13, 14)]
        trace = distinct * 8  # 24 requests; positions of each kernel
        # sweep all 4 shard residues under round-robin
        rates = {}
        for policy in ("round-robin", "cache-affinity"):
            with ReasonService(shards=4, policy=policy) as service:
                for kernel in trace:
                    service.submit(kernel)
                service.drain()
                rates[policy] = service.stats().warm_hit_rate
        assert rates["cache-affinity"] > rates["round-robin"]

    def test_custom_policy_instance(self):
        class PinToZero(SchedulingPolicy):
            name = "pin-zero"

            def select(self, request, shards):
                return 0

        with ReasonService(shards=3, policy=PinToZero()) as service:
            futures = [service.submit(k) for k in small_kernels()]
            service.drain()
        assert all(f.shard_index == 0 for f in futures)


class TestRunBatch:
    def test_async_run_batch_returns_composed_result(self):
        kernels = small_kernels() * 2
        with ReasonService(shards=2, policy="round-robin") as service:
            batch = asyncio.run(
                service.run_batch(kernels, queries=100, neural_s=1e-5)
            )
        assert isinstance(batch, ServiceBatchResult)
        assert len(batch) == len(kernels)
        assert [r.kernel for r in batch.reports[:4]] == ["cnf", "circuit", "hmm", "dag"]
        assert batch.shard_indices == [0, 1] * 4
        # Sharded makespan can't exceed the one-shard pipeline, which
        # can't exceed strictly serial execution.
        assert batch.total_s <= batch.single_shard_s <= batch.serial_s
        assert batch.speedup >= 1.0
        # 4 distinct kernels, each twice, and round-robin on 2 shards
        # sends both copies to the same shard: one miss + one hit each.
        assert batch.cache_hits == 4 and batch.cache_misses == 4

    def test_batch_reports_equal_single_submits(self):
        kernels = [random_ksat(10, 30, seed=15)] * 4
        with ReasonService(shards=2) as service:
            singles = [service.submit(k, queries=50).result() for k in kernels]
            batch = asyncio.run(service.run_batch(kernels, queries=50))
        assert [r.identity() for r in batch.reports] == [r.identity() for r in singles]

    def test_futures_are_awaitable(self):
        async def roundtrip(service, kernel):
            return await service.submit(kernel, queries=3)

        with ReasonService(shards=1) as service:
            report = asyncio.run(roundtrip(service, random_ksat(10, 30, seed=16)))
        assert report.queries == 3

    def test_batch_validation(self):
        with ReasonService(shards=1) as service:
            kernels = [random_ksat(8, 24, seed=17)] * 2
            with pytest.raises(ValueError):
                service.submit_batch(kernels, neural_s=[0.1])


class TestStatsAndDrain:
    def test_drain_waits_for_all_admitted_work(self):
        with ReasonService(shards=3, policy="least-loaded") as service:
            for kernel in small_kernels() * 3:
                service.submit(kernel, queries=10)
            service.drain()
            stats = service.stats()
        assert stats.submitted == 12 and stats.completed == 12
        assert all(shard.pending == 0 for shard in stats.shards)
        assert stats.policy == "least-loaded"

    def test_makespan_composition_is_max_over_shards(self):
        with ReasonService(shards=2, policy="round-robin") as service:
            for kernel in small_kernels():
                service.submit(kernel, queries=100)
            service.drain()
            stats = service.stats()
        per_shard = [shard.makespan.total_s for shard in stats.shards]
        assert stats.makespan_s == pytest.approx(max(per_shard))
        assert stats.composition.single_shard_s >= stats.makespan_s
        assert stats.throughput_rps > 0

    def test_four_shards_at_least_double_one_shards_modeled_throughput(self):
        """32 mixed kernels x 4 shuffled passes, so neither kernel family
        nor repeat index lines up with a shard stride.  Round-robin
        placement and the modeled clock are both deterministic, hence
        so is the ratio (3.45x when this was written)."""
        families = (
            lambda seed: redundant_sat(30, 110, seed=seed)[0],
            lambda seed: random_ksat(24, 85, seed=seed),
            lambda seed: random_circuit(5, depth=2, seed=seed),
            lambda seed: HMM.random(3, 5, seed=seed),
        )
        trace = [families[index % 4](index) for index in range(32)] * 4
        random.Random(0).shuffle(trace)
        throughput = {}
        for shards in (1, 4):
            with ReasonService(shards=shards, policy="round-robin") as service:
                for kernel in trace:
                    service.submit(kernel, queries=200, neural_s=0.0)
                service.drain()
                throughput[shards] = service.stats().throughput_rps
        assert throughput[4] >= 2.0 * throughput[1]

    def test_stats_window_bounds_retained_history(self):
        from repro.core.system import TwoLevelPipeline

        kernel = random_ksat(8, 24, seed=32)
        symbolic = ReasonSession().run(kernel).seconds
        with ReasonService(shards=1, stats_window=4) as service:
            for _ in range(10):
                service.submit(kernel)
            service.drain()
            stats = service.stats()
        assert stats.completed == 10 and stats.retained == 4
        # Makespan composed over the 4 most recent successes only, and
        # throughput divides the windowed count, not the all-time one.
        expected = TwoLevelPipeline().run([0.0] * 4, [symbolic] * 4).total_s
        assert stats.makespan_s == pytest.approx(expected)
        assert stats.throughput_rps == pytest.approx(4 / expected)
        with pytest.raises(ValueError):
            ReasonService(shards=1, stats_window=0)

    def test_empty_service_stats(self):
        with ReasonService(shards=2) as service:
            stats = service.stats()
        assert stats.submitted == 0 and stats.completed == 0
        assert stats.makespan_s == 0.0 and stats.throughput_rps == 0.0
        assert stats.warm_hit_rate == 0.0


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
    def test_a_policy_sees_no_prediction(self, forced):
        """The service does not predict: whatever the backend, a policy
        sees an empty read-only ``predicted`` and views whose ``busy_s``
        is 0.0, and routes on ``pending``."""
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
            assert request.backend == forced and dict(request.predicted) == {}
            with pytest.raises(TypeError):
                request.predicted[forced or "reason"] = None
            assert (view.backend, view.busy_s) == ("reason", 0.0)


class TestPlacementFidelity:
    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded", "cache-affinity"])
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


POLICIES = ["round-robin", "least-loaded", "cache-affinity"]


class TestPendingAccounting:
    """Placement and rerouting read ``pending``, so every admitted
    request must give its slot back however it settles."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_pending_drains_to_zero(self, policy):
        backends = [None, "gpu", "no-such"]
        with ReasonService(shards=2, policy=policy) as service:
            futures = [
                service.submit(kernel, backend=backend, queries=5)
                for kernel in small_kernels()
                for backend in backends
            ]
            service.drain()
            stats = service.stats()
        failed = [future for future in futures if future.exception() is not None]
        assert len(failed) == len(small_kernels())
        assert all(isinstance(future.exception(), KeyError) for future in failed)
        for shard in stats.shards:
            assert shard.pending == 0
            assert shard.submitted == shard.completed + shard.failed + shard.cancelled
        assert sum(shard.failed for shard in stats.shards) == len(failed)

    def test_failed_requests_release_their_pending_slot(self):
        with ReasonService(shards=1) as service:
            bad = service.submit(random_ksat(8, 24, seed=7), backend="no-such")
            with pytest.raises(KeyError):
                bad.result()
            service.drain()
            stats = service.stats()
        assert (stats.shards[0].failed, stats.shards[0].pending) == (1, 0)


class TestNoPricingOnTheRequestPath:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_admission_and_settle_never_call_the_cost_model(self, monkeypatch, policy):
        """Cold misses, warm hits and every backend are served without
        one call into :class:`CostEstimator`."""

        def refuse(*args, **kwargs):
            raise AssertionError("the request path called the cost model")

        for name in ("__init__", "record_artifact", "predict"):
            monkeypatch.setattr(CostEstimator, name, refuse)
        kernels = small_kernels()
        backends = ["reason", "gpu", "roofline", "cpu"]
        session = ReasonSession()
        rounds = []
        with ReasonService(shards=2, policy=policy) as service:
            for _ in range(2):  # cold, then warm
                futures = [
                    service.submit(kernel, backend=backend, queries=2)
                    for kernel, backend in zip(kernels, backends)
                ]
                rounds.append([future.result(timeout=60) for future in futures])
                service.drain(timeout=60)
        # Every policy places the first kernel of each round, on an idle
        # service, on shard 0, so the warm round holds at least one hit.
        assert rounds[1][0].cache_hit
        for reports in rounds:
            for kernel, backend, report in zip(kernels, backends, reports):
                expected = session.run(kernel, backend=backend, queries=2)
                assert report.identity() == expected.identity()
