"""Chaos suite: seeded fault injection against the fault-tolerant
service — supervision, retries, deadlines, breakers, store degradation,
and the accounting invariant under random fault plans."""

import dataclasses
import random
import sys
import threading

import pytest

from repro import (
    DeadlineExceeded,
    FaultPlan,
    ReasonService,
    ReasonSession,
    RetriesExhausted,
    RetryPolicy,
    ShardCrashed,
)
from repro.api import DiskStore, ServiceOverloaded
from repro.api.resilience import CircuitBreaker
from repro.api.scheduler import SchedulingPolicy
from repro.faults import CORRUPT_BYTES, FaultInjected, corrupt_disk_entry
from repro.logic.generators import random_ksat

from tests.api.conftest import wait_until_running
from tests.corpus import small_kernels


class PinZeroPolicy(SchedulingPolicy):
    """Always chooses shard 0 — isolates breaker route-around."""

    name = "pin-zero"

    def select(self, request, shards):
        return 0


class TestFaultPlan:
    def test_same_seed_same_decisions(self):
        a = FaultPlan(seed=11, execute_error_rate=0.5)
        b = FaultPlan(seed=11, execute_error_rate=0.5)
        decisions_a, decisions_b = [], []
        for _ in range(50):
            try:
                a.execute_fault("k")
                decisions_a.append(False)
            except FaultInjected:
                decisions_a.append(True)
            try:
                b.execute_fault("k")
                decisions_b.append(False)
            except FaultInjected:
                decisions_b.append(True)
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)
        assert a.counts() == b.counts()

    def test_sites_draw_independent_streams(self):
        plan = FaultPlan(seed=1, compile_error_rate=1.0)
        # Execute decisions never consume or trip the compile stream.
        plan.execute_fault("k")
        with pytest.raises(FaultInjected, match="compile"):
            plan.compile_fault("k")
        counts = plan.counts()
        assert counts["compile"]["injected"] == 1
        assert counts["execute"]["injected"] == 0

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(execute_error_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(latency_s=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(max_injections=-1)

    def test_max_injections_caps_each_site(self):
        plan = FaultPlan(seed=2, execute_error_rate=1.0, max_injections=2)
        hits = 0
        for _ in range(10):
            try:
                plan.execute_fault("k")
            except FaultInjected:
                hits += 1
        assert hits == 2
        assert plan.injected("execute") == 2
        assert plan.injected() == 2


class TestRetriesUnderChaos:
    def test_injected_faults_retried_to_bit_identical_success(self):
        kernels = small_kernels()
        baseline = []
        with ReasonService(shards=2) as service:
            for kernel in kernels:
                baseline.append(
                    service.submit(kernel, queries=3).result(timeout=30).identity()
                )
        plan = FaultPlan(seed=3, execute_error_rate=1.0, max_injections=3)
        with ReasonService(
            shards=2, retry=RetryPolicy(max_attempts=5), faults=plan
        ) as service:
            futures = [service.submit(kernel, queries=3) for kernel in kernels]
            reports = [future.result(timeout=30) for future in futures]
            service.drain(timeout=15)
            stats = service.stats()
        assert plan.injected("execute") == 3
        assert [report.identity() for report in reports] == baseline
        assert stats.completed == len(kernels) and stats.failed == 0
        assert stats.retries == 3
        # The replay count is visible but outside the identity.
        assert sum(report.extras.get("attempts", 1) - 1 for report in reports) == 3

    def test_retries_disabled_surfaces_the_injected_fault(self):
        plan = FaultPlan(seed=4, execute_error_rate=1.0, max_injections=1)
        with ReasonService(shards=1, retry=None, faults=plan) as service:
            future = service.submit(random_ksat(10, 30, seed=0))
            with pytest.raises(FaultInjected):
                future.result(timeout=30)
            service.drain(timeout=15)
            assert service.stats().failed == 1

    def test_retries_exhausted_chains_the_last_fault(self):
        plan = FaultPlan(seed=5, execute_error_rate=1.0)  # every attempt fails
        with ReasonService(
            shards=2, retry=RetryPolicy(max_attempts=3), faults=plan
        ) as service:
            future = service.submit(random_ksat(10, 30, seed=0))
            with pytest.raises(RetriesExhausted) as excinfo:
                future.result(timeout=30)
            service.drain(timeout=15)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, FaultInjected)

    def test_retry_that_cannot_land_fails_fast(self, gate, monkeypatch):
        """A retry never waits for admission (its worker would wait on
        its own queue): with the one slot taken it is shed, chained to
        the fault it was retrying."""
        plan = FaultPlan(seed=9, execute_error_rate=1.0, max_injections=1)
        inject = plan.execute_fault

        def parked_fault(key=""):
            gate.wait(timeout=10.0)  # hold the worker until the queue is full
            inject(key)

        monkeypatch.setattr(plan, "execute_fault", parked_fault)
        with ReasonService(
            shards=1, max_queue=1, retry=RetryPolicy(), faults=plan
        ) as service:
            faulted = service.submit(random_ksat(10, 30, seed=0))
            wait_until_running(faulted)
            queued = service.submit(random_ksat(12, 40, seed=1))  # takes the slot
            gate.set()
            with pytest.raises(RetriesExhausted, match="shed by shard 0") as excinfo:
                faulted.result(timeout=30)
            assert queued.result(timeout=30).cycles > 0
            service.drain(timeout=15)
            stats = service.stats()
        assert isinstance(excinfo.value.__cause__, FaultInjected)
        assert excinfo.value.attempts == 2
        assert (stats.completed, stats.failed, stats.retries) == (1, 1, 1)
        (shard,) = stats.shards
        assert shard.pending == 0
        assert shard.submitted == shard.completed + shard.failed + shard.cancelled

    def test_deadline_exceeded_is_never_retried(self):
        plan = FaultPlan(seed=6, latency_rate=1.0, latency_s=0.3, max_injections=1)
        with ReasonService(
            shards=1, retry=RetryPolicy(max_attempts=5), faults=plan
        ) as service:
            future = service.submit(random_ksat(10, 30, seed=0), deadline_s=0.05)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30)
            service.drain(timeout=15)
            stats = service.stats()
        assert stats.expired == 1
        assert stats.retries == 0

    def test_a_fault_after_the_deadline_counts_no_retry(self):
        """The deadline settles the request while its attempt sleeps;
        the fault that ends the attempt then replays nothing, so
        ``retries`` (replays dispatched) stays 0."""
        plan = FaultPlan(
            seed=0, latency_rate=1.0, latency_s=0.3, execute_error_rate=1.0, max_injections=1
        )
        with ReasonService(shards=1, faults=plan) as service:
            late = service.submit(random_ksat(10, 30, seed=0), deadline_s=0.05)
            with pytest.raises(DeadlineExceeded):
                late.result(timeout=30)
            # The one worker serves this only after the failed attempt.
            assert service.submit(random_ksat(12, 40, seed=1)).result(timeout=30).cycles > 0
            late_span = service.spans()[0]
            stats = service.stats()
        assert plan.injected("execute") == 1
        assert (late_span.status, late_span.attempts) == ("deadline", 1)
        assert (stats.completed, stats.expired, stats.retries) == (1, 1, 0)

    def test_a_retry_starts_no_thread(self, monkeypatch):
        """A replay is requeued by the thread whose attempt failed: no
        timer is built, and the service runs no thread beyond its
        shard workers while retries are in flight."""
        timers = []

        class CountingTimer(threading.Timer):
            def __init__(self, *args, **kwargs):
                timers.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(threading, "Timer", CountingTimer)
        count = 8
        plan = FaultPlan(execute_error_rate=1.0, max_injections=count)
        inject = plan.execute_fault
        queued, faulted, threads = threading.Event(), threading.Event(), []
        first_attempts = set()

        def each_request_faults_once(key=""):
            # Every request is queued before any runs, and a replay runs
            # only once the first attempts have taken all the faults.
            if key in first_attempts:
                faulted.wait(timeout=10.0)
                threads.append(threading.active_count())
            else:
                first_attempts.add(key)
                queued.wait(timeout=10.0)
            try:
                inject(key)
            finally:
                if plan.injected("execute") == count:
                    faulted.set()

        monkeypatch.setattr(plan, "execute_fault", each_request_faults_once)
        before = threading.active_count()
        with ReasonService(shards=2, faults=plan) as service:
            kernels = [random_ksat(10, 30, seed=index) for index in range(count)]
            futures = [service.submit(kernel) for kernel in kernels]
            queued.set()
            reports = [future.result(timeout=30) for future in futures]
            service.drain(timeout=15)
            threads.append(threading.active_count())
            spans = service.spans()
        assert [report.extras["attempts"] for report in reports] == [2] * count
        assert sorted((span.status, span.attempts) for span in spans) == [("ok", 2)] * count
        assert timers == []
        assert len(threads) == count + 1 and max(threads) - before <= 2


class TestSupervision:
    def test_worker_crash_restarts_and_recovers(self):
        plan = FaultPlan(seed=7, crash_rate=1.0, max_injections=1)
        kernels = small_kernels()
        with ReasonService(shards=2, faults=plan) as service:
            futures = [service.submit(kernel) for kernel in kernels]
            reports = [future.result(timeout=30) for future in futures]
            service.drain(timeout=15)
            stats = service.stats()
        assert all(report.cycles > 0 for report in reports)
        assert stats.crashes == 1 and stats.restarts == 1
        assert stats.completed == len(kernels) and stats.failed == 0

    def test_crash_without_retries_fails_fast_with_shard_crashed(self):
        plan = FaultPlan(seed=8, crash_rate=1.0, max_injections=1)
        with ReasonService(shards=1, retry=None, faults=plan) as service:
            future = service.submit(random_ksat(10, 30, seed=0))
            with pytest.raises(ShardCrashed) as excinfo:
                future.result(timeout=30)
            service.drain(timeout=15)
            stats = service.stats()
        assert excinfo.value.shard_index == 0
        assert stats.crashes == 1 and stats.restarts == 1
        assert stats.failed == 1

    def test_supervision_that_fails_still_settles_the_future(self, monkeypatch):
        # Last resort: if the supervisor itself raises after a crash,
        # the stranded request fails with the crash instead of hanging.
        plan = FaultPlan(seed=10, crash_rate=1.0, max_injections=1)
        with ReasonService(shards=1, faults=plan) as service:

            def broken(item, error):
                raise RuntimeError("supervisor bug")

            monkeypatch.setattr(service, "_retry_or_fail", broken)
            future = service.submit(random_ksat(10, 30, seed=0))
            with pytest.raises(ShardCrashed):
                future.result(timeout=30)
            service.drain(timeout=15)
            stats = service.stats()
        assert stats.crashes == 1 and stats.failed == 1
        assert stats.shards[0].pending == 0

    def test_drain_bounded_with_worker_killed_mid_stream(self):
        # The acceptance drill: kill a worker while requests are queued
        # behind the victim; drain() must still return (bounded), every
        # future must be terminal, and queued work must complete.
        plan = FaultPlan(seed=9, crash_rate=1.0, max_injections=1)
        with ReasonService(shards=1, faults=plan) as service:
            futures = [
                service.submit(random_ksat(10 + i, 30 + 3 * i, seed=i))
                for i in range(5)
            ]
            service.drain(timeout=15)  # raises TimeoutError if anything hangs
            assert all(future.done() for future in futures)
            reports = [future.result(timeout=0) for future in futures]
            stats = service.stats()
        assert len(reports) == 5
        assert stats.completed == 5 and stats.restarts == 1

    def test_close_joins_respawned_workers(self):
        plan = FaultPlan(seed=10, crash_rate=1.0, max_injections=1)
        service = ReasonService(shards=1, faults=plan)
        future = service.submit(random_ksat(10, 30, seed=0))
        assert future.result(timeout=30).cycles > 0
        service.close()  # must join the replacement thread, not the corpse
        for shard_index in range(service.num_shards):
            assert not service._shards[shard_index].thread.is_alive()


class TestDeadlines:
    def test_an_unmeetable_deadline_is_admitted_and_expires(self):
        # Admission does not read the budget: a deadline shorter than
        # any backlog is admitted, and its wall-clock expiry settles it.
        with ReasonService(shards=1, metrics=True) as service:
            future = service.submit(random_ksat(14, 44, seed=9), deadline_s=1e-9)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30)
            service.drain(timeout=15)
            stats = service.stats()
            snap = service.metrics().snapshot()["metrics"]
        assert stats.submitted == 1 and stats.expired == 1
        assert "reason=deadline" not in snap["reason_service_rejected_total"]["series"]

    def test_named_deadline_classes_accepted(self):
        with ReasonService(shards=1) as service:
            report = service.submit(
                random_ksat(10, 30, seed=0), deadline_s="batch"
            ).result(timeout=30)
        assert report.cycles > 0

    def test_queued_request_shed_at_expiry(self, gate):
        with ReasonService(shards=1, max_queue=8) as service:
            blocker = service.submit(
                random_ksat(10, 30, seed=0), backend="test-gate"
            )
            doomed = service.submit(
                random_ksat(12, 40, seed=1),
                backend="test-gate",
                deadline_s=0.05,
            )
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=10)  # resolved while still queued
            gate.set()
            assert blocker.result(timeout=30).result == 1.0
            service.drain(timeout=15)
            stats = service.stats()
        assert stats.expired == 1
        assert stats.completed == 1

    def test_a_queued_deadline_runs_on_the_span_clock(self, gate):
        # The budget is measured from the span's own admission stamp, so
        # an expired span has lived at least its budget.
        with ReasonService(shards=1, max_queue=8) as service:
            blocker = service.submit(random_ksat(10, 30, seed=0), backend="test-gate")
            wait_until_running(blocker)
            doomed = service.submit(
                random_ksat(12, 40, seed=1), backend="test-gate", deadline_s=0.05
            )
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=10)
            span = service.spans()[-1]
            gate.set()
            blocker.result(timeout=30)
            service.drain(timeout=15)
        assert span.status == "deadline"
        assert span.e2e_s >= 0.05

    def test_batch_deadline_plumbing(self):
        with ReasonService(shards=2) as service:
            futures = service.submit_batch(
                small_kernels(), queries=2, deadline_s="batch"
            )
            reports = [future.result(timeout=30) for future in futures]
        assert len(reports) == 4


class TestBreakers:
    def test_tripped_shard_routed_around(self):
        with ReasonService(
            shards=2,
            policy=PinZeroPolicy(),
            breaker=lambda: CircuitBreaker(failure_threshold=1, reset_after_s=60.0),
        ) as service:
            first = service.submit(random_ksat(10, 30, seed=0))
            assert first.result(timeout=30) is not None
            assert first.shard_index == 0
            service._shards[0].breaker.record_failure()  # trip it
            rerouted = service.submit(random_ksat(12, 40, seed=1))
            assert rerouted.result(timeout=30) is not None
            assert rerouted.shard_index == 1
            service.drain(timeout=15)
            stats = service.stats()
        assert stats.shards[0].breaker == "open"
        assert stats.shards[1].breaker == "closed"

    def test_all_tripped_fails_open(self):
        with ReasonService(
            shards=1,
            breaker=lambda: CircuitBreaker(failure_threshold=1, reset_after_s=60.0),
        ) as service:
            service._shards[0].breaker.record_failure()
            report = service.submit(random_ksat(10, 30, seed=0)).result(timeout=30)
        assert report.cycles > 0  # degraded service beats no service

    def test_consecutive_faults_trip_via_execution(self):
        plan = FaultPlan(seed=12, execute_error_rate=1.0, max_injections=2)
        with ReasonService(
            shards=1,
            retry=None,
            faults=plan,
            breaker=lambda: CircuitBreaker(failure_threshold=2, reset_after_s=60.0),
        ) as service:
            for seed in range(2):
                future = service.submit(random_ksat(10, 30, seed=seed))
                with pytest.raises(FaultInjected):
                    future.result(timeout=30)
            service.drain(timeout=15)
            assert service._shards[0].breaker.state == "open"
            assert service.stats().shards[0].breaker == "open"

    def test_user_errors_do_not_trip_breakers(self):
        with ReasonService(
            shards=1,
            retry=None,
            breaker=lambda: CircuitBreaker(failure_threshold=1, reset_after_s=60.0),
        ) as service:
            future = service.submit(random_ksat(10, 30, seed=0), backend="no-such")
            with pytest.raises(KeyError):
                future.result(timeout=30)
            service.drain(timeout=15)
            assert service._shards[0].breaker.state == "closed"


class TestStoreChaos:
    def test_store_faults_degrade_to_local_caching(self, tmp_path):
        plan = FaultPlan(seed=13, store_error_rate=1.0)
        with ReasonService(
            shards=2, store=f"disk:{tmp_path}", faults=plan
        ) as service:
            futures = [service.submit(kernel) for kernel in small_kernels()]
            reports = [future.result(timeout=30) for future in futures]
            service.drain(timeout=15)
            assert service.store.errors > 0
            assert service.store.breaker.state == "open"
            assert service.store.degraded > 0
            assert service.stats().failed == 0
        assert all(report.cycles > 0 for report in reports)

    def test_planted_corruption_counted_and_degraded_to_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        kernel = random_ksat(10, 30, seed=0)
        with ReasonService(shards=1, store=store, metrics=True) as service:
            fingerprint = service.submit(kernel).fingerprint
            service.drain(timeout=15)
            assert corrupt_disk_entry(store, fingerprint)  # plant garbage
            assert store._file_for(fingerprint).read_bytes() == CORRUPT_BYTES
            service._shards[0].session._cache._entries.clear()  # force the store read
            report = service.submit(kernel).result(timeout=30)
            service.drain(timeout=15)
            snap = service.metrics().snapshot()["metrics"]
        assert report.cycles > 0  # corrupt entry recompiled, not failed
        assert store.corrupt_misses >= 1
        series = snap["reason_store_corrupt_misses_total"]["series"]
        assert series[""] == store.corrupt_misses

    def test_injected_corruption_via_plan(self, tmp_path):
        store = DiskStore(tmp_path)
        plan = FaultPlan(seed=14, store_corrupt_rate=1.0)
        kernel = random_ksat(10, 30, seed=0)
        with ReasonService(shards=1, store=store, faults=plan) as service:
            service.submit(kernel).result(timeout=30)
            service.drain(timeout=15)
            service._shards[0].session._cache._entries.clear()
            report = service.submit(kernel).result(timeout=30)
            service.drain(timeout=15)
            # ResilientStore(ChaosStore(store)): both count what the store holds.
            assert len(service.store) == len(store) == 1
        assert plan.injected("corrupt") >= 1
        assert store.corrupt_misses >= 1
        assert report.cycles > 0


class TestChaosTelemetry:
    def test_fault_and_resilience_series_exported(self):
        plan = FaultPlan(seed=15, execute_error_rate=1.0, max_injections=1)
        with ReasonService(
            shards=1, retry=RetryPolicy(max_attempts=3), faults=plan, metrics=True
        ) as service:
            report = service.submit(random_ksat(10, 30, seed=0)).result(timeout=30)
            service.drain(timeout=15)
            snap = service.metrics().snapshot()["metrics"]
            spans = service.spans()
        assert report.extras["attempts"] == 2
        assert snap["reason_faults_injected_total"]["series"]["site=execute"] == 1
        assert snap["reason_shard_retries_total"]["series"]["shard=0"] == 1
        assert snap["reason_shard_breaker_state"]["series"]["shard=0"] in (0, 1, 2)
        assert spans[-1].status == "ok" and spans[-1].attempts == 2

    def test_deadline_outcome_tagged_on_span_and_counter(self):
        plan = FaultPlan(seed=16, latency_rate=1.0, latency_s=0.3, max_injections=1)
        with ReasonService(shards=1, faults=plan, metrics=True) as service:
            future = service.submit(random_ksat(10, 30, seed=0), deadline_s=0.05)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30)
            service.drain(timeout=15)
            spans = service.spans()
            snap = service.metrics().snapshot()["metrics"]
        assert spans[-1].status == "deadline"
        assert snap["reason_shard_expired_total"]["series"]["shard=0"] == 1

    def test_stats_roundtrip_with_resilience_fields(self):
        plan = FaultPlan(seed=17, crash_rate=1.0, max_injections=1)
        with ReasonService(shards=2, faults=plan) as service:
            for kernel in small_kernels():
                service.submit(kernel).result(timeout=30)
            service.drain(timeout=15)
            stats = service.stats()
        assert stats.retries == stats.restarts == stats.crashes == 1
        shards = dataclasses.asdict(stats)["shards"]
        assert sum(shard["retries"] for shard in shards) == 1
        assert [shard["breaker"] for shard in shards] == [
            s.breaker for s in stats.shards
        ]


class TestAccountingInvariant:
    @pytest.mark.parametrize("seed", range(5))
    def test_submitted_equals_terminal_sum_under_chaos(self, seed, tmp_path):
        rng = random.Random(seed)
        plan = FaultPlan(
            seed=seed,
            compile_error_rate=rng.uniform(0.0, 0.3),
            execute_error_rate=rng.uniform(0.0, 0.4),
            crash_rate=rng.uniform(0.0, 0.2),
            latency_rate=rng.uniform(0.0, 0.3),
            latency_s=0.002,
            store_error_rate=rng.uniform(0.0, 0.2),
            store_corrupt_rate=rng.uniform(0.0, 0.5),
        )
        kernels = [
            random_ksat(8 + i % 5, 24 + 3 * (i % 5), seed=i) for i in range(12)
        ]
        fault_free = ReasonSession()
        reference = [fault_free.run(kernel).identity() for kernel in kernels]
        with ReasonService(
            shards=2,
            store=f"disk:{tmp_path}",
            retry=RetryPolicy(max_attempts=3),
            faults=plan,
        ) as service:
            futures = {}  # future -> index of its kernel
            # Two passes: the second reads what the first published, so
            # store errors and corrupt entries are on the path.
            for index, kernel in enumerate(kernels * 2):
                deadline = 5.0 if index % 4 == 0 else None
                try:
                    future = service.submit(kernel, deadline_s=deadline)
                except ServiceOverloaded:
                    continue  # deadline shed at admission: no future, no charge
                futures[future] = index % len(kernels)
            if futures:
                list(futures)[-1].cancel()  # may or may not win the race
            service.drain(timeout=20)
            stats = service.stats()
            # Every admitted future is terminal — never pending/hung.
            assert all(future.done() for future in futures)
        for shard in stats.shards:
            assert shard.submitted == (
                shard.completed + shard.failed + shard.cancelled
            ), f"seed {seed} shard {shard.index} leaks accounting"
            assert shard.pending == 0
        settled = [future for future in futures if not future.cancelled()]
        succeeded = [future for future in settled if future.exception() is None]
        assert stats.completed == len(succeeded)
        assert stats.failed == len(settled) - len(succeeded)
        # Retried, rerouted, recompiled after a corrupt read: whatever a
        # success went through, it is the fault-free answer.
        for future in succeeded:
            assert future.result().identity() == reference[futures[future]]

    def test_terminal_race_settles_every_request_exactly_once(self):
        """Caller cancel(), a deadline timer a few hundred microseconds
        out, injected transient faults retried with reroute, and plain
        completion all race for the same items: each future must end
        exactly once, and the books must close."""
        rng = random.Random(2024)
        plan = FaultPlan(seed=11, execute_error_rate=0.3)
        kernels = [random_ksat(8 + i % 4, 24 + 3 * (i % 4), seed=i) for i in range(8)]
        fired = []  # list.append is atomic under the GIL
        futures = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ReasonService(
                shards=3,
                max_queue=8,
                retry=RetryPolicy(max_attempts=3),
                faults=plan,
                metrics=True,
            ) as service:
                for index in range(300):
                    deadline = rng.uniform(2e-4, 9e-4) if index % 2 else None
                    try:
                        future = service.submit(kernels[index % 8], deadline_s=deadline)
                    except ServiceOverloaded:
                        continue  # shed at admission: no future, no charge
                    future.add_done_callback(lambda f: fired.append(id(f)))
                    futures.append(future)
                    if rng.random() < 0.3:
                        future.cancel()  # may or may not win
                service.drain(timeout=30)
                stats = service.stats()
                spans = service.spans()
        finally:
            sys.setswitchinterval(interval)
        assert len(futures) >= 200
        assert all(future.done() for future in futures)
        assert sorted(fired) == sorted(id(future) for future in futures)
        outcomes = {span.status for span in spans}
        assert len(spans) == len(futures) and "open" not in outcomes
        # The race really was a race: every way out was taken.
        assert outcomes >= {"ok", "deadline", "cancelled"}
        for shard in stats.shards:
            assert shard.submitted == shard.completed + shard.failed + shard.cancelled
            assert shard.pending == 0
            assert shard.busy_s == 0.0
        assert stats.submitted == len(futures)
