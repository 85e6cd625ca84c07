"""ReasonFuture keeps the concurrent.futures.Future contract.

A warm hit on an idle shard is settled on the submitting thread before
``submit`` returns, and its future is born resolved: written in place,
with no Condition built and no notify.  Everything the stdlib offers
for a future must still work on it, and a future that a worker
resolves, after an inline attempt failed and was requeued, must still
wake a thread that waits on it.
"""

import asyncio
import concurrent.futures
import logging
import threading
import time

import pytest

from repro import ReasonService, RetryPolicy
from repro.api import TransientError, backends, wait_all
from repro.api.futures import ReasonFuture, _ClaimedFuture
from repro.api.types import ExecutionReport
from repro.logic.generators import random_ksat

from tests.api.test_inline_settle import is_worker, warm


@pytest.fixture(scope="module")
def born_resolved():
    """A warm hit's future, settled inline; the service is closed, the
    future outlives it."""
    kernel = random_ksat(8, 24, seed=56)
    with ReasonService(shards=1) as service:
        warm(service, kernel)
        future = service.submit(kernel)
    assert future.done()
    assert "_condition" not in vars(future)  # no lock was ever needed
    return future


def test_wait_and_as_completed_see_a_born_resolved_future(born_resolved):
    done, not_done = concurrent.futures.wait([born_resolved], timeout=0)
    assert done == {born_resolved} and not not_done
    assert list(concurrent.futures.as_completed([born_resolved], timeout=1)) == [born_resolved]
    assert wait_all([born_resolved], timeout=0) == [born_resolved.result()]


def test_a_born_resolved_future_is_awaitable(born_resolved):
    async def both():
        return await asyncio.wrap_future(born_resolved), await born_resolved

    wrapped, awaited = asyncio.run(both())
    assert wrapped is awaited is born_resolved.result()


def test_a_born_resolved_future_reads_as_finished(born_resolved):
    assert born_resolved.cancel() is False
    assert not born_resolved.cancelled() and not born_resolved.running()
    assert born_resolved.exception() is None
    assert born_resolved.result(timeout=0).cache_hit


def test_a_raising_done_callback_is_logged_not_raised(born_resolved, caplog):
    ran = []

    def fails(_future):
        raise ValueError("callback fails")

    with caplog.at_level(logging.ERROR, logger="concurrent.futures"):
        born_resolved.add_done_callback(fails)
        born_resolved.add_done_callback(ran.append)
    assert ran == [born_resolved]
    assert [record.exc_info[0] for record in caplog.records] == [ValueError]
    assert "exception calling callback" in caplog.records[0].getMessage()


def claimed() -> _ClaimedFuture:
    return _ClaimedFuture("cnf", "0" * 64, 0, 0.0)


def test_a_claimed_future_holds_every_attribute_a_stdlib_future_holds():
    """A claimed future sets the stdlib's private state itself, and the
    stdlib's own functions (``wait``, ``as_completed``) read it; a
    CPython change to it fails here, not in a waiter."""
    stdlib = set(vars(concurrent.futures.Future()))
    future = claimed()
    assert isinstance(future, ReasonFuture)
    assert stdlib - set(vars(future)) == {"_condition"}  # built on first use
    with future._condition:
        pass
    assert stdlib <= set(vars(future))


def test_threads_racing_the_first_condition_read_share_one():
    future = claimed()
    start = threading.Barrier(4)
    seen = []

    def read():
        start.wait()
        seen.append(future._condition)

    threads = [threading.Thread(target=read) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert len(seen) == 4 and all(condition is seen[0] for condition in seen)
    assert vars(future)["_condition"] is seen[0]


class FailsOnceThenWaits(backends.Backend):
    """The first run raises a transient fault; a later one records its
    thread and waits for ``release``."""

    name = "test-fails-once"

    def __init__(self):
        self.threads = []
        self.release = threading.Event()

    def run(self, artifact, config=None, queries=1, options=None):
        self.threads.append(threading.current_thread().name)
        if len(self.threads) == 1:
            raise TransientError("the inline attempt fails")
        self.release.wait(timeout=10.0)
        return ExecutionReport(
            backend=self.name, kernel=artifact.kind, result=1.0, cycles=1, seconds=1e-6
        )


@pytest.fixture
def fails_once(monkeypatch):
    backend = FailsOnceThenWaits()
    monkeypatch.setitem(backends._BACKENDS, backend.name, backend)
    yield backend
    backend.release.set()


def wait_for_a_waiter(future, timeout_s: float = 10.0) -> None:
    """Until a thread is blocked on the future's Condition."""
    deadline = time.monotonic() + timeout_s
    while not future._condition._waiters:
        assert time.monotonic() < deadline, "nobody ever waited on the future"
        time.sleep(0.001)


def test_a_requeued_inline_attempt_wakes_a_blocked_waiter(fails_once):
    """The inline attempt fails and is requeued; the worker's settle is
    not the submitting thread's, so it resolves the future under its
    Condition and wakes the thread already blocked in ``result()``."""
    kernel = random_ksat(8, 24, seed=57)
    with ReasonService(shards=1, retry=RetryPolicy(max_attempts=2)) as service:
        warm(service, kernel)
        future = service.submit(kernel, backend=fails_once.name)
        assert not future.done()
        reports = []
        waiter = threading.Thread(target=lambda: reports.append(future.result()), daemon=True)
        waiter.start()
        wait_for_a_waiter(future)
        fails_once.release.set()
        waiter.join(timeout=10.0)
        assert not waiter.is_alive(), "the worker's settle never woke the waiter"
    assert reports == [future.result()] and reports[0].extras["attempts"] == 2
    inline, retry = fails_once.threads
    assert inline == threading.current_thread().name and is_worker(retry)
