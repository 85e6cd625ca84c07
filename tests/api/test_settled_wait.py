"""Waiting on futures that settled inline takes no lock.

A warm hit on an idle shard is born resolved (``tests/api/test_futures.py``),
and its condition is a settled stand-in that takes nothing: the
stdlib's ``wait``, ``as_completed`` and ``cancel``, and ``wait_all``,
build no ``threading.Condition`` for it.  A batch that mixes such
futures with queued ones, whose workers resolve them under a real
Condition, is waited on from other threads as any batch is.
"""

import collections
import concurrent.futures
import threading
import time

import pytest

from repro import ReasonService, ReasonSession
from repro.api import adapters, wait_all
from repro.api.futures import _ClaimedFuture
from repro.logic.generators import random_ksat

from tests.api.test_hit_cost import profile
from tests.api.test_inline_settle import warm

WARM = [random_ksat(10, 30, seed=650 + index) for index in range(4)]

#: The Python calls ``concurrent.futures.wait`` makes per born-resolved
#: future: ``_AcquireFutures`` reads its condition (the lazy descriptor)
#: and acquires it, then reads and releases it again.  Nothing a
#: ``threading.Condition`` or a lock runs: a stdlib future's first wait
#: built one (``__get__``, ``Condition.__init__``, ``RLock``) and then
#: took and left its lock.
WAIT_CALLS_PER_FUTURE = collections.Counter({"__get__": 2, "acquire": 1, "release": 1})


@pytest.fixture(scope="module")
def service():
    with ReasonService(shards=2) as service:
        for kernel in WARM:
            warm(service, kernel)
        yield service


def settled_batch(service) -> list:
    """``submit_batch`` over warm kernels on idle shards: every future
    settled inline, born resolved."""
    futures = service.submit_batch(WARM)
    assert all(type(future) is _ClaimedFuture and future.done() for future in futures)
    assert not any("_condition" in vars(future) for future in futures)
    return futures


WAITS = {
    "wait": lambda futures: concurrent.futures.wait(futures, timeout=0),
    "wait-first-completed": lambda futures: concurrent.futures.wait(
        futures, timeout=0, return_when=concurrent.futures.FIRST_COMPLETED
    ),
    "wait-first-exception": lambda futures: concurrent.futures.wait(
        futures, timeout=0, return_when=concurrent.futures.FIRST_EXCEPTION
    ),
    "as_completed": lambda futures: list(concurrent.futures.as_completed(futures, timeout=1)),
    "wait_all": lambda futures: wait_all(futures, timeout=0),
}


@pytest.mark.parametrize("waits", WAITS.values(), ids=list(WAITS))
def test_waiting_on_born_resolved_futures_builds_no_condition(service, waits):
    futures = settled_batch(service)
    waits(futures)
    assert not any("_condition" in vars(future) for future in futures)
    assert all(future._waiters == [] for future in futures)


def test_cancel_and_repr_of_a_born_resolved_future_take_no_lock(service):
    (future, *_) = settled_batch(service)
    assert future.cancel() is False
    assert not future.cancelled() and not future.running()
    assert "done" in repr(future) and future.fingerprint[:12] in repr(future)
    assert "_condition" not in vars(future)
    assert future.result(timeout=0).cache_hit


def test_wait_makes_a_fixed_set_of_calls_per_born_resolved_future(service):
    """Measured as the difference between a wait over two batches and a
    wait over one, so the calls ``wait`` makes once cancel out."""

    def calls(batches: int) -> list:
        futures = [future for _ in range(batches) for future in settled_batch(service)]
        return profile(lambda: concurrent.futures.wait(futures, timeout=0))

    single, double = calls(1), calls(2)
    per_future = collections.Counter(name for event, name in double if event == "call")
    per_future.subtract(name for event, name in single if event == "call")
    expected = collections.Counter(
        {name: count * len(WARM) for name, count in WAIT_CALLS_PER_FUTURE.items()}
    )
    assert +per_future == expected, f"{len(WARM)} more futures made these calls: {per_future}"
    locks = [
        what
        for event, what in double
        if event == "c_call" and type(getattr(what, "__self__", None)).__name__ in ("lock", "RLock")
    ]
    assert locks == [], f"a wait over born-resolved futures took a lock: {locks}"


def test_a_mixed_batch_waited_on_from_other_threads(monkeypatch):
    """Warm hits first, so they settle inline on idle shards; then first
    sights, which queue, and whose compiles wait until two other threads
    are waiting on the batch, one with ``FIRST_COMPLETED`` rounds and one
    with ``as_completed``.  Nobody deadlocks, and every report is a bare
    session's."""
    first_sights = [random_ksat(10, 30, seed=660 + index) for index in range(4)]
    compiles = threading.Event()
    prepare = adapters.CnfAdapter.prepare

    def held(self, kernel, options, config):
        assert compiles.wait(timeout=10), "the waiters never started"
        return prepare(self, kernel, options, config)

    with ReasonService(shards=2) as service:
        for kernel in WARM:
            warm(service, kernel)
        monkeypatch.setattr(adapters.CnfAdapter, "prepare", held)
        futures = service.submit_batch(WARM + first_sights)
        inline, queued = futures[: len(WARM)], futures[len(WARM) :]
        assert all(type(future) is _ClaimedFuture and future.done() for future in inline)
        assert not any(future.done() for future in queued)

        seen = {"first-completed": [], "as_completed": []}

        def first_completed_rounds() -> None:
            pending = set(futures)
            while pending:
                done, pending = concurrent.futures.wait(
                    pending, timeout=30, return_when=concurrent.futures.FIRST_COMPLETED
                )
                assert done, "a FIRST_COMPLETED round timed out"
                seen["first-completed"] += done

        def in_completion_order() -> None:
            seen["as_completed"] += concurrent.futures.as_completed(futures, timeout=30)

        waiters = [
            threading.Thread(target=first_completed_rounds, daemon=True),
            threading.Thread(target=in_completion_order, daemon=True),
        ]
        for waiter in waiters:
            waiter.start()
        deadline = time.monotonic() + 10
        while not all(len(future._waiters) == 2 for future in queued):
            assert time.monotonic() < deadline, "the waiters never waited on the batch"
            time.sleep(0.001)
        compiles.set()
        for waiter in waiters:
            waiter.join(timeout=30)
        assert not any(waiter.is_alive() for waiter in waiters), "a waiter deadlocked"
        monkeypatch.undo()

    for name, order in seen.items():
        assert sorted(map(id, order)) == sorted(map(id, futures)), name
    assert not any("_condition" in vars(future) for future in inline)
    # A first sight on an idle shard was claimed, then queued: pending
    # when it was first waited on, it kept a real Condition.
    claimed_then_queued = [future for future in queued if type(future) is _ClaimedFuture]
    assert claimed_then_queued and all(
        type(vars(future)["_condition"]) is threading.Condition for future in claimed_then_queued
    )
    session = ReasonSession()
    for future, kernel in zip(futures, WARM + first_sights):
        assert future.result(timeout=0).identity() == session.run(kernel).identity()
