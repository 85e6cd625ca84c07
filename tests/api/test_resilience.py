"""Resilience primitives: deadlines, retry policy, circuit breaker,
resilient store wrapper, and the enriched wait_all/ServiceOverloaded
error surfaces."""

import math
import threading
import time

import pytest

from repro.api import ReasonService, ServiceOverloaded
from repro.api.futures import ReasonFuture, wait_all
from repro.api.resilience import (
    DEADLINE_CLASSES,
    CircuitBreaker,
    DeadlineExceeded,
    ResilientStore,
    RetriesExhausted,
    RetryPolicy,
    ShardCrashed,
    TransientError,
    resolve_deadline,
)
from repro.api.store import SharedStore
from repro.api.types import CompiledArtifact
from repro.faults import FaultPlan
from repro.hmm.model import HMM


class TestResolveDeadline:
    def test_none_passes_through(self):
        assert resolve_deadline(None) is None

    def test_named_classes(self):
        for name, seconds in DEADLINE_CLASSES.items():
            assert resolve_deadline(name) == seconds

    def test_numbers_pass_through(self):
        assert resolve_deadline(2.5) == 2.5
        assert resolve_deadline(3) == 3.0

    def test_unknown_class_names_the_options(self):
        with pytest.raises(ValueError, match="interactive"):
            resolve_deadline("warp-speed")

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            resolve_deadline(0.0)
        with pytest.raises(ValueError):
            resolve_deadline(-1.0)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(max_attempts=2.5), "max_attempts must be a positive integer, not 2.5"),
            (dict(max_attempts=True), "max_attempts must be a positive integer, not True"),
            (dict(max_attempts=-1), "max_attempts must be a positive integer, not -1"),
            (dict(max_attempts=3.0), "max_attempts must be a positive integer, not 3.0"),
            (dict(max_attempts=math.inf), "max_attempts must be a positive integer, not inf"),
            (dict(max_attempts=math.nan), "max_attempts must be a positive integer, not nan"),
            (dict(max_attempts="3"), "max_attempts must be a positive integer, not '3'"),
            (dict(max_attempts=None), "max_attempts must be a positive integer, not None"),
        ],
        ids=[
            "fractional-attempts", "bool-attempts", "negative-attempts", "float-attempts",
            "inf-attempts", "nan-attempts", "str-attempts", "none-attempts",
        ],
    )  # fmt: skip
    def test_every_backoff_is_armable(self, fields, message):
        """The attempt budget is a count: a fraction or a bool is refused
        at construction."""
        with pytest.raises(ValueError, match=message):
            RetryPolicy(**fields)

    def test_the_longest_armable_backoff_is_accepted(self):
        assert RetryPolicy(max_attempts=10**6).max_attempts

    @pytest.mark.parametrize("field", ["backoff_s", "multiplier", "jitter", "seed", "reroute"])
    def test_a_back_off_field_is_refused(self, field):
        """A replay is requeued at once and always offered to another
        shard first, so the policy takes no delay or routing option: a
        caller that still passes one is told, not silently ignored."""
        with pytest.raises(TypeError, match=field):
            RetryPolicy(max_attempts=2, **{field: 1.0})

    def test_a_retry_on_the_only_shard_replays_there(self):
        """With no other shard to take it, a replay is requeued on the
        shard whose attempt failed, and resolves."""
        plan = FaultPlan(seed=0, execute_error_rate=1.0, max_injections=1)
        with ReasonService(shards=1, retry=RetryPolicy(max_attempts=3), faults=plan) as service:
            future = service.submit(HMM.random(4, 3, seed=1))
            report = future.result(timeout=30)
            service.drain(timeout=30)
            assert service.stats().retries == 1
        assert report.extras["attempts"] == 2
        assert future.shard_index == 0

    def test_retryable_classification(self):
        policy = RetryPolicy()

        class Injected(TransientError, RuntimeError):
            pass

        assert policy.retryable(Injected("boom"))
        assert policy.retryable(ShardCrashed("worker died", 0))
        # Deadline misses and request-inherent errors never replay.
        assert not policy.retryable(DeadlineExceeded("late", 0.1))
        assert not policy.retryable(ValueError("bad kernel"))
        assert not policy.retryable(KeyError("no such backend"))


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_after_s=60.0)
        assert breaker.state == "closed" and breaker.admits()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"  # not consecutive enough yet
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.admits()
        assert breaker.trips == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_after_s=60.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_then_close_or_reopen(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=0.02)
        breaker.record_failure()
        assert breaker.state == "open"
        time.sleep(0.03)
        assert breaker.admits()  # lazily half-opens
        assert breaker.state == "half-open"
        breaker.record_failure()  # probe failed: straight back open
        assert breaker.state == "open" and breaker.trips == 2
        time.sleep(0.03)
        assert breaker.admits()
        breaker.record_success()  # probe succeeded: closed again
        assert breaker.state == "closed" and breaker.admits()

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(reset_after_s=math.nan), "reset_after_s must be finite and >= 0, not nan"),
            (dict(reset_after_s=math.inf), "reset_after_s must be finite and >= 0, not inf"),
            (dict(reset_after_s=-1.0), "reset_after_s must be finite and >= 0"),
            (dict(failure_threshold=2.5), "failure_threshold must be a positive integer"),
            (dict(failure_threshold=True), "failure_threshold must be a positive integer"),
            (dict(failure_threshold=0), "failure_threshold must be a positive integer"),
        ],
        ids=["nan-cooldown", "inf-cooldown", "negative-cooldown",
             "fractional-threshold", "bool-threshold", "zero-threshold"],
    )  # fmt: skip
    def test_threshold_and_cooldown_are_checked(self, fields, message):
        """A NaN cooldown never half-opened: ``elapsed >= nan`` is False,
        so a tripped shard was routed around for good."""
        with pytest.raises(ValueError, match=message):
            CircuitBreaker(**fields)

    def test_state_codes(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=60.0)
        assert breaker.state_code == 0
        breaker.record_failure()
        assert breaker.state_code == 2


class _ExplodingStore(SharedStore):
    def get(self, key):
        raise OSError("backing volume detached")

    def put(self, key, artifact):
        raise OSError("backing volume detached")

    def __len__(self):
        raise OSError("backing volume detached")


class TestResilientStore:
    def _artifact(self):
        return CompiledArtifact(kind="cnf", key="k", kernel=None)

    def test_passthrough_when_healthy(self):
        store = ResilientStore(SharedStore())
        artifact = self._artifact()
        store.put("k", artifact)
        assert store.get("k") is artifact
        assert len(store) == 1
        assert store.errors == 0 and store.degraded == 0

    def test_errors_degrade_to_miss_and_are_counted(self):
        store = ResilientStore(_ExplodingStore())
        assert store.get("k") is None  # swallowed, not raised
        store.put("k", self._artifact())
        assert len(store) == 0
        assert store.errors == 3

    def test_breaker_opens_into_local_only_mode(self):
        store = ResilientStore(
            _ExplodingStore(),
            breaker=CircuitBreaker(failure_threshold=2, reset_after_s=60.0),
        )
        for _ in range(3):
            store.get("k")
        assert store.breaker.state == "open"
        before = store.errors
        store.get("k")  # short-circuited: no call into the inner store
        assert store.errors == before
        assert store.degraded >= 1

    def test_diagnostics_proxy_to_inner(self):
        inner = SharedStore()
        inner.corrupt_misses = 7
        assert ResilientStore(inner).corrupt_misses == 7


class TestWaitAll:
    def test_resolves_in_submission_order(self):
        futures = [ReasonFuture(shard_index=i) for i in range(3)]
        for i, future in enumerate(futures):
            future.set_result(i)
        assert wait_all(futures) == [0, 1, 2]

    def test_timeout_names_unresolved_count_and_shards(self):
        resolved = ReasonFuture(shard_index=0)
        resolved.set_result("ok")
        stuck_a = ReasonFuture(shard_index=1)
        stuck_b = ReasonFuture(shard_index=3)
        with pytest.raises(TimeoutError, match=r"2 of 3 .*\[1, 3\]"):
            wait_all([resolved, stuck_a, stuck_b], timeout=0.01)

    def test_timeout_chains_a_failed_futures_real_error(self):
        failed = ReasonFuture(shard_index=0)
        failed.set_exception(RuntimeError("the real reason"))
        stuck = ReasonFuture(shard_index=1)
        with pytest.raises(TimeoutError) as excinfo:
            wait_all([failed, stuck], timeout=0.01)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert "the real reason" in str(excinfo.value.__cause__)

    def test_failure_without_timeout_propagates_directly(self):
        failed = ReasonFuture(shard_index=0)
        failed.set_exception(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            wait_all([failed])

    def test_late_resolution_inside_timeout(self):
        future = ReasonFuture(shard_index=0)
        threading.Timer(0.02, future.set_result, args=("late",)).start()
        assert wait_all([future], timeout=5.0) == ["late"]


class TestStructuredOverload:
    def test_default_fields(self):
        error = ServiceOverloaded()
        assert error.shard_index == -1
        assert error.queue_depth == 0
        assert error.backlog_s == 0.0

    def test_carries_context(self):
        error = ServiceOverloaded("shed", shard_index=2, queue_depth=9, backlog_s=1.5)
        assert (error.shard_index, error.queue_depth) == (2, 9)
        assert error.backlog_s == 1.5


class TestExceptionTaxonomy:
    def test_retries_exhausted_keeps_attempts(self):
        error = RetriesExhausted("gave up", attempts=3)
        assert error.attempts == 3

    def test_deadline_exceeded_is_a_timeout(self):
        error = DeadlineExceeded("late", deadline_s=0.25)
        assert isinstance(error, TimeoutError)
        assert error.deadline_s == 0.25

    def test_shard_crashed_carries_index(self):
        assert ShardCrashed("died", shard_index=4).shard_index == 4
