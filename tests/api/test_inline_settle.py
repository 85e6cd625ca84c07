"""ReasonService's inline settle: a warm hit on an idle shard runs on
the submitting thread, and everything else still queues."""

import functools
import itertools
import threading
import time

import pytest

from repro import (
    CircuitBreaker, DeadlineExceeded, ReasonService, ReasonSession, RetryPolicy, ShardCrashed,
    SharedStore,
)
from repro.api import ServiceClosed, backends
from repro.api.resilience import WorkerCrash
from repro.api.scheduler import SchedulingPolicy
from repro.api.types import ExecutionReport
from repro.logic.generators import random_ksat

from tests.api.conftest import wait_idle, wait_until_running
from tests.chaos import ChaosStore, FaultPlan


class RecordingBackend(backends.Backend):
    """Records ``(queries, thread name)`` per run, in run order: a test
    tags each request by its ``queries`` and reads where and in which
    order the shards ran them."""

    name = "test-record"

    def __init__(self):
        self.runs = []

    def run(self, artifact, config=None, queries=1, options=None):
        self.runs.append((queries, threading.current_thread().name))
        return ExecutionReport(
            backend=self.name, kernel=artifact.kind, result=1.0, cycles=1, seconds=1e-6
        )


@pytest.fixture
def recorder(monkeypatch):
    backend = RecordingBackend()
    monkeypatch.setitem(backends._BACKENDS, backend.name, backend)
    return backend


def warm(service, kernel) -> None:
    """Compile ``kernel`` on every shard (round-robin places one request
    on each) and wait until they are all idle again."""
    for future in [service.submit(kernel) for _ in range(service.num_shards)]:
        future.result(timeout=30)
    wait_idle(service)


def is_worker(thread_name: str) -> bool:
    return thread_name.startswith("reason-shard-")


def test_warm_hit_on_idle_shard_settles_before_submit_returns(recorder):
    kernel = random_ksat(8, 24, seed=40)
    with ReasonService(shards=1) as service:
        warm(service, kernel)
        future = service.submit(kernel, backend="test-record")
        assert future.done()
        callback_threads = []
        future.add_done_callback(lambda _: callback_threads.append(threading.current_thread()))
        assert callback_threads == [threading.current_thread()]
        assert future.result().cache_hit
        span = service.spans()[-1]
    assert recorder.runs == [(1, threading.current_thread().name)]
    assert span.status == "ok" and span.cache_hit
    assert 0.0 <= span.queue_wait_s < 5e-3


@pytest.mark.parametrize("store", [None, "disk"])
def test_a_local_miss_is_never_run_inline(gate, store, tmp_path):
    """A first sight, and a kernel another shard already put in a
    ``DiskStore`` (a local miss there, and a store that promises no
    ``get``), both settle on a worker."""
    kernel = random_ksat(8, 24, seed=41)
    spec = None if store is None else f"disk:{tmp_path}"
    with ReasonService(shards=2, store=spec) as service:
        if store is not None:
            service.submit(kernel).result(timeout=30)  # shard 0 compiles it
        wait_idle(service)
        future = service.submit(kernel, backend="test-gate")  # a local miss
        assert not future.done()
        settled_on = []
        future.add_done_callback(lambda _: settled_on.append(threading.current_thread().name))
        gate.set()
        assert future.result(timeout=30).result == 1.0
    assert len(settled_on) == 1 and is_worker(settled_on[0])


def test_a_shared_store_hit_settles_before_submit_returns(recorder):
    """A kernel another shard put in the shared store is a local miss
    here and a store hit: it runs on the caller's thread, and the shard
    counts it as a worker would, one shared hit promoted."""
    kernel = random_ksat(8, 24, seed=41)
    with ReasonService(shards=2, store="shared") as service:
        service.submit(kernel).result(timeout=30)  # shard 0 compiles it
        wait_idle(service)
        before = service.stats().shards[1].cache
        future = service.submit(kernel, backend="test-record")  # shard 1
        assert future.done()
        assert future.result().cache_hit
        after = service.stats().shards[1].cache
    assert recorder.runs == [(1, threading.current_thread().name)]
    assert (
        after.shared_hits - before.shared_hits,
        after.promotions - before.promotions,
        after.local_hits - before.local_hits,
        after.misses - before.misses,
    ) == (1, 1, 0, 0)


def test_an_armed_fault_plan_settles_warm_hits_inline(recorder, chaos):
    """A plan wraps the backend it breaks, so a drill's warm hit on an
    idle shard takes the claim real traffic takes."""
    kernel = random_ksat(8, 24, seed=42)
    plan = chaos(FaultPlan(seed=0))
    with ReasonService(shards=1) as service:
        warm(service, kernel)
        for _ in range(5):
            assert service.submit(kernel, backend="test-record").done()
            wait_idle(service)
    assert plan.counts()["execute"]["decisions"] == service.num_shards + 5
    assert recorder.runs == [(1, threading.current_thread().name)] * 5


def test_an_inline_execute_fault_is_requeued_to_a_bit_identical_result(chaos, monkeypatch):
    """The fault strikes the caller's attempt; the retry a worker runs
    returns the report a fault-free hit returns."""
    kernel = random_ksat(8, 24, seed=50)
    with ReasonService(shards=1) as service:
        warm(service, kernel)
        expected = service.submit(kernel).result(timeout=0)
        wait_idle(service)
        plan = chaos(FaultPlan(seed=0, execute_error_rate=1.0, max_injections=1))
        inject, struck = plan.execute_fault, []

        def recorded(key=""):
            struck.append(threading.current_thread().name)
            inject(key)

        monkeypatch.setattr(plan, "execute_fault", recorded)
        report = service.submit(kernel).result(timeout=30)
        service.drain(timeout=10)
        stats = service.stats()
    assert plan.injected("execute") == 1
    assert struck[0] == threading.current_thread().name and is_worker(struck[1])
    assert report.identity() == expected.identity()
    assert report.extras["attempts"] == 2
    assert (stats.retries, stats.failed, stats.crashes, stats.restarts) == (1, 0, 0, 0)


@pytest.mark.parametrize("forwarded", [True, False], ids=["inline", "queued"])
def test_store_faults_strike_an_inline_store_hit_as_they_strike_a_worker(
    forwarded, monkeypatch
):
    """Every store get and put fails: the store-resident kernel is
    compiled where it runs and served, and the report and counters are
    the same whether the caller ran it (the chaos store forwards
    ``holds``) or a worker did (it answers the base class's False)."""
    kernel = random_ksat(8, 24, seed=53)
    inner = SharedStore()
    ReasonSession(store=inner).run(kernel)  # resident before the plan strikes
    if not forwarded:
        monkeypatch.setattr(ChaosStore, "holds", lambda self, key: False)
    plan = FaultPlan(seed=0, store_error_rate=1.0)
    with ReasonService(shards=1, store=ChaosStore(inner, plan)) as service:
        future = service.submit(kernel)
        submitted_done = future.done()
        report = future.result(timeout=30)
        service.drain(timeout=10)
        stats = service.stats()
    assert submitted_done is forwarded
    assert report.identity() == ReasonSession().run(kernel).identity()
    assert not report.cache_hit and report.extras.get("attempts", 1) == 1
    assert plan.injected("store") == 2  # the get, then the publishing put
    assert (service.store.errors, service.store.degraded) == (2, 0)
    cache = stats.shards[0].cache
    assert (cache.misses, cache.shared_hits, cache.local_hits, cache.promotions) == (1, 0, 0, 0)
    assert (stats.completed, stats.failed, stats.retries) == (1, 0, 0)


def test_a_requeued_inline_attempt_can_no_longer_be_cancelled(chaos, monkeypatch):
    """A replay is a running request: once the caller's own attempt has
    failed and been requeued, cancel() refuses, and the request that
    the books count as completed resolves with its report."""
    kernel = random_ksat(8, 24, seed=52)
    with ReasonService(shards=1) as service:
        warm(service, kernel)
        plan = chaos(FaultPlan(seed=0, execute_error_rate=1.0, max_injections=1))
        inject, replaying, release = plan.execute_fault, threading.Event(), threading.Event()

        def held_replay(key=""):
            if plan.injected("execute"):  # the replay, on the worker
                replaying.set()
                release.wait(timeout=10.0)
            inject(key)

        monkeypatch.setattr(plan, "execute_fault", held_replay)
        future = service.submit(kernel)
        assert replaying.wait(timeout=10.0)
        cancelled = future.cancel()
        release.set()
        report = future.result(timeout=30)
        service.drain(timeout=10)
        stats = service.stats()
    assert not cancelled and report.extras["attempts"] == 2
    assert (stats.completed, stats.cancelled, stats.retries) == (2, 0, 1)


@pytest.mark.parametrize("retry", [RetryPolicy(), None], ids=["retried", "no-retry"])
def test_an_inline_crash_never_escapes_submit(chaos, retry):
    """A crash on the caller's thread kills no worker: the attempt
    fails as a ShardCrashed, which a retry requeues, or which settles
    the future before submit returns."""
    kernel = random_ksat(8, 24, seed=51)
    with ReasonService(shards=1, retry=retry) as service:
        warm(service, kernel)
        plan = chaos(FaultPlan(seed=0, crash_rate=1.0, max_injections=1))
        future = service.submit(kernel)  # raises nothing
        assert future.done() is (retry is None)
        error = future.exception(timeout=30)
        service.drain(timeout=10)
        stats = service.stats()
    assert plan.injected("crash") == 1
    assert (stats.crashes, stats.restarts) == (0, 0)
    if retry is None:
        assert isinstance(error, ShardCrashed) and error.shard_index == 0
        assert isinstance(error.__cause__, WorkerCrash)
        assert (stats.failed, stats.retries) == (1, 0)
    else:
        assert error is None and future.result().extras["attempts"] == 2
        assert (stats.failed, stats.retries) == (0, 1)


def test_a_tripped_breaker_never_settles_inline(recorder):
    """With its only breaker open, the service fails open and queues the
    request on the policy's shard: a worker runs it, never the caller."""
    kernel = random_ksat(8, 24, seed=48)
    tripping = functools.partial(CircuitBreaker, failure_threshold=1, reset_after_s=60.0)
    with ReasonService(shards=1, breaker=tripping) as service:
        warm(service, kernel)
        service._shards[0].breaker.record_failure()
        assert service.stats().shards[0].breaker == "open"
        service.submit(kernel, backend="test-record").result(timeout=30)
    assert len(recorder.runs) == 1 and is_worker(recorder.runs[0][1])


def test_a_shard_that_stopped_accepting_never_settles_inline(recorder):
    """close() marks the service closed, then clears every shard's
    ``accepting``.  A submit that passed the closed check just before
    finds a warm, idle shard that no longer accepts: it is refused, and
    nothing runs on a service that is shutting down."""
    kernel = random_ksat(8, 24, seed=49)
    service = ReasonService(shards=1)
    warm(service, kernel)
    service.close()
    service._closed = False  # where that submit stands
    with pytest.raises(ServiceClosed):
        service.submit(kernel, backend="test-record")
    service.close()
    assert recorder.runs == []
    assert service.stats().submitted == service.stats().completed == 1


class ByTag(SchedulingPolicy):
    """Places a request on shard ``queries % shards``: a test picks
    every request's shard through its ``queries`` tag."""

    name = "by-tag"

    def select(self, request, shards):
        return request.queries % len(shards)


def test_mixed_inline_and_queued_traffic_keeps_per_shard_fifo(gate, recorder):
    """A gated request holds shard 0's worker, and a gated inline run
    holds shard 1's caller, while producers queue on both.  Once the
    gate opens, the caller submits again at once and the producers go
    on.  On each shard, a request whose ``submit`` returned before
    another's began runs first, whether a worker or a caller ran
    either, and the accounting identity closes after drain()."""
    producers, per_phase = 4, 20
    kernel = random_ksat(8, 24, seed=43)
    futures, spans = {}, {}  # queries tag -> future, (first, last) tick of its submit
    ticks = itertools.count()

    def submit(tag: int, backend: str = "test-record") -> None:
        first = next(ticks)
        futures[tag] = service.submit(kernel, backend=backend, queries=tag)
        spans[tag] = (first, next(ticks))

    settled_inline = []

    def caller() -> None:
        submit(1, backend="test-gate")  # shard 1, inline, until the gate opens
        settled_inline.append(futures[1].done())
        for i in range(per_phase):
            submit(3 + 2 * i)

    opened = threading.Barrier(producers + 1)

    def produce(p: int) -> None:
        for phase in range(2):
            for i in range(per_phase):
                submit(1000 * (p + 1) + phase * per_phase + i)
            if phase == 0:
                opened.wait(timeout=30)  # the gate opens between the phases

    service = ReasonService(shards=2, policy=ByTag())
    threads = [threading.Thread(target=caller, name="caller")] + [
        threading.Thread(target=produce, args=(p,), name=f"producer-{p}")
        for p in range(producers)
    ]
    try:
        for shard in range(2):
            service.submit(kernel, queries=2 + shard).result(timeout=30)
        wait_idle(service)
        held = service.submit(random_ksat(8, 24, seed=44), backend="test-gate", queries=2)
        wait_until_running(held)  # shard 0's worker holds it
        threads[0].start()
        while not service._shards[1].running:  # the caller holds shard 1
            time.sleep(0.001)
        for thread in threads[1:]:
            thread.start()
        opened.wait(timeout=30)
        gate.set()
        for thread in threads:
            thread.join(timeout=30)
        service.drain(timeout=30)
    finally:
        gate.set()
        service.close()
    assert held.result(timeout=30).result == 1.0
    assert len(recorder.runs) == len(futures) - 1 == (2 * producers + 1) * per_phase
    for shard in range(2):
        latest_first = -1  # of the requests this shard already ran
        for tag, _ in recorder.runs:
            if futures[tag].shard_index == shard:
                first, last = spans[tag]
                assert last > latest_first, f"shard {shard} ran a later request before {tag}"
                latest_first = max(latest_first, first)
    assert settled_inline == [True]
    assert any(is_worker(thread) for _, thread in recorder.runs)  # queued behind a held shard
    stats = service.stats()
    for shard in stats.shards:
        assert shard.pending == 0
        assert shard.submitted == shard.completed + shard.failed + shard.cancelled + shard.pending
    assert stats.completed == stats.submitted == len(futures) + 3


def test_close_waits_for_an_inline_run(gate):
    kernel = random_ksat(8, 24, seed=45)
    service = ReasonService(shards=1)
    warm(service, kernel)
    submitted, completed_at_close = [], []
    caller = threading.Thread(
        target=lambda: submitted.append(service.submit(kernel, backend="test-gate")),
        daemon=True,
    )
    closer = threading.Thread(
        target=lambda: (service.close(), completed_at_close.append(service.stats().completed)),
        daemon=True,
    )
    try:
        caller.start()
        wait_until_busy = time.monotonic() + 10.0
        while not service._shards[0].running:  # the caller holds the shard
            assert time.monotonic() < wait_until_busy, "the caller never ran inline"
            time.sleep(0.001)
        closer.start()
        closer.join(timeout=0.2)
        assert closer.is_alive() and caller.is_alive()  # both wait on the gate
    finally:
        gate.set()
        caller.join(timeout=30)
        closer.join(timeout=30)
    assert not caller.is_alive() and not closer.is_alive()
    assert submitted[0].done() and submitted[0].result().result == 1.0
    assert completed_at_close == [2]


def test_an_escape_from_an_inline_run_settles_the_request(monkeypatch):
    """Whatever escapes the inline run fails the request, reaches the
    caller, and leaves the shard free for the next one."""
    kernel = random_ksat(8, 24, seed=47)
    with ReasonService(shards=1) as service:
        warm(service, kernel)

        def escape(shard, item):
            raise RuntimeError("escaped")

        monkeypatch.setattr(service, "_execute", escape)
        with pytest.raises(RuntimeError, match="escaped"):
            service.submit(kernel)
        monkeypatch.undo()
        service.drain(timeout=10)
        assert service.submit(kernel).done()  # the shard is idle again
        stats = service.stats()
    assert stats.failed == 1 and stats.completed == 2 and stats.submitted == 3


def test_sequential_warm_deadline_requests_start_no_threads(monkeypatch):
    """An inline hit is settled before admission reaches the deadline
    timer, so none is armed: no thread starts, and none is left."""
    timers = []

    class CountingTimer(threading.Timer):
        def start(self):
            timers.append(self)
            super().start()

    monkeypatch.setattr(threading, "Timer", CountingTimer)
    kernel = random_ksat(8, 24, seed=46)
    with ReasonService(shards=1) as service:
        warm(service, kernel)
        before = set(threading.enumerate())
        for _ in range(1000):
            future = service.submit(kernel, deadline_s=30.0)
            assert future.done()
            assert future.result().cache_hit
        assert set(threading.enumerate()) <= before
        assert timers == []
        stats = service.stats()
    assert stats.completed == 1001 and stats.expired == 0


def test_a_warm_hit_past_its_deadline_settles_before_submit_returns(monkeypatch):
    """The inline run's pre-execution shed reads the budget on the
    span's clock: a warm hit already past it settles as expired on the
    caller's thread, and no timer is built for it."""
    timers = []

    class CountingTimer(threading.Timer):
        def __init__(self, *args, **kwargs):
            timers.append(self)
            super().__init__(*args, **kwargs)

    kernel = random_ksat(8, 24, seed=47)
    with ReasonService(shards=1) as service:
        warm(service, kernel)
        monkeypatch.setattr(threading, "Timer", CountingTimer)
        future = service.submit(kernel, deadline_s=1e-9)
        assert future.done()
        assert isinstance(future.exception(timeout=0), DeadlineExceeded)
        span = service.spans()[-1]
    assert timers == []
    assert span.status == "deadline"
