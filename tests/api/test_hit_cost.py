"""What a warm hit costs, in Python calls: a session hit of each kernel
kind that carries options, and a service hit beyond a session hit, in
calls and in lock sections, of a kernel in the shard's LRU and of one
only in the shared store.

A warm hit on an idle shard runs on the submitting thread
(``tests/api/test_inline_settle.py``), so one ``sys.setprofile`` hook
on that thread sees all of it: admission, the claim, the session's own
run, the settle and the future.  A call count does not drift with the
host's load the way a wall-clock time does, so this guard can be exact.
"""

import gc
import sys
import time

import pytest

from repro import ReasonService, ReasonSession, SharedStore
from repro.api.scheduler import Request, SchedulingPolicy
from repro.logic.generators import random_ksat

from tests.corpus import small

#: The most Python-level calls one warm inline ``submit(...).result()``
#: may make beyond one ``ReasonSession.run`` of the same kernel.  The
#: inline hit's future is born resolved, so no ``concurrent.futures``
#: or ``threading`` function runs on it: its own ``__init__``, its
#: ``set_result`` (a write in place) and the lock-free ``result`` are
#: all.  Admission predicts nothing and the settle prices nothing, so
#: no cost-model call runs either; it checks neither a default deadline
#: nor a default ``neural_s``, builds its ``Request`` in C, and claims
#: the inline item once, not again in ``_execute``.  Every function left
#: on either path is this package's
#: (generated dataclass ``__init__`` methods included), and neither
#: path runs a comprehension (inlined from 3.12 on), so the bound is
#: the same for CPython 3.10, 3.11 and 3.12.
MAX_EXTRA_CALLS = 13

#: The lock sections (``with`` a lock, counted by the lock's
#: ``__exit__``) one warm inline ``submit(...).result()`` takes beyond
#: one ``ReasonSession.run``'s (the cache's lookup): admission's lock
#: and the shard lock its charge takes inside it, then the item lock the
#: settle takes and the shard lock inside that.  The claim takes none
#: (the inline item is claimed by the section that charges it), the
#: cache is probed once (the session's lookup), and the drain count is
#: a set whose ``add`` and ``discard`` take no lock.  Exact: a section
#: more is a cost, and a section fewer drops a guard the lifecycle
#: needs.
EXTRA_LOCK_SECTIONS = 4

#: The most Python-level calls one warm ``ReasonSession.run`` may make
#: (the probe's own ``lambda`` included), for a kind's ``small`` corpus
#: kernel with its options: an HMM with ``hmm_observations``, a circuit
#: with a calibration.  The same caveat holds: the options' own
#: ``__init__`` (which checks them itself, with no ``__post_init__``) is
#: Python code in CPython 3.10, 3.11 and 3.12 alike, a list calibration
#: skips the ``Mapping`` ABC's ``__instancecheck__``, and neither path
#: runs a comprehension (inlined from 3.12 on), so the bounds are the
#: same for all three.
MAX_WARM_RUN_CALLS = {"hmm": 18, "circuit": 21}

#: The most Python-level calls, and the exact lock sections, that a
#: shared-store hit settled inline (a kernel another shard compiled, a
#: local miss here) makes beyond a ``ReasonSession.run`` store hit of
#: the same kernel over a bare ``SharedStore``: the inline hit's 13
#: calls (the cache's ``holds`` among them) and 4 sections, the
#: resilient wrapper's and the store's ``holds`` answers and the
#: wrapper's breaker read, and the wrapper's ``get`` (its breaker read
#: and success record, no guard frame or closure).  A closed breaker is read without its lock, and ``holds``
#: takes none, so the store lookup's sections are the session's own.
STORE_HIT_EXTRA_CALLS = 19
STORE_HIT_EXTRA_LOCK_SECTIONS = 4


def profile(action) -> list:
    """``(event, what)`` for every call ``action()`` makes on this
    thread, in order: ``("call", name)`` for a Python function,
    ``("c_call", callable)`` for a C one.  The cyclic collector is off
    meanwhile: a collection that frees an earlier test's service runs
    its weakref callbacks (a ``WeakSet._remove``) on this thread, which
    are not calls of the path probed."""
    events = []

    def record(frame, event, arg):
        if event == "call":
            events.append((event, frame.f_code.co_name))
        elif event == "c_call":
            events.append((event, arg))

    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(record)
    try:
        action()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return events


def python_calls(action) -> list:
    """The name of every Python function ``action()`` calls on this
    thread, in call order."""
    return [name for event, name in profile(action) if event == "call"]


def lock_sections(action) -> int:
    """How many ``with`` blocks over a lock ``action()`` leaves on this
    thread: a lock's ``__exit__`` is a C call the profile hook sees (its
    ``__enter__`` is not), and no path probed here takes a lock any
    other way."""
    return sum(
        event == "c_call"
        and getattr(what, "__name__", "") == "__exit__"
        and type(getattr(what, "__self__", None)).__name__ in ("lock", "RLock")
        for event, what in profile(action)
    )


def wait_idle(service, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while any(shard.running or shard.items for shard in service._shards):
        assert time.monotonic() < deadline, "a shard never went idle"
        time.sleep(0.001)


@pytest.mark.parametrize("kind", sorted(MAX_WARM_RUN_CALLS))
def test_a_warm_session_hit_stays_within_its_calls(kind):
    kernel, options = small(kind)
    session = ReasonSession()
    for _ in range(2):  # a miss, then a hit
        session.run(kernel, **options)
    calls = python_calls(lambda: session.run(kernel, **options))
    assert calls.count("run_prepared") == 1 and calls.count("prepare") == 0
    assert len(calls) <= MAX_WARM_RUN_CALLS[kind], (
        f"a warm {kind} hit made {len(calls)} Python calls, more than "
        f"{MAX_WARM_RUN_CALLS[kind]}: {calls}"
    )


@pytest.mark.parametrize("kind", sorted(MAX_WARM_RUN_CALLS))
def test_the_first_warm_session_hit_costs_no_more_than_a_later_one(kind):
    """A miss leaves the memo holding what every hit compares: the first
    hit neither packs nor hashes."""
    kernel, options = small(kind)
    session = ReasonSession()
    session.run(kernel, **options)
    first = python_calls(lambda: session.run(kernel, **options))
    later = python_calls(lambda: session.run(kernel, **options))
    assert first.count("run_prepared") == 1 and first.count("prepare") == 0
    assert len(first) <= len(later), f"first hit: {first}; a later one: {later}"


def test_a_warm_inline_hit_stays_within_its_calls_of_a_session_hit():
    kernel = random_ksat(20, 80, seed=51)
    with ReasonService(shards=2, policy="cache-affinity") as service:
        service.submit(kernel).result(timeout=30)  # a local miss: the worker compiles
        wait_idle(service)
        assert service.submit(kernel).done()  # the first hit settles inline
        service_calls = python_calls(lambda: service.submit(kernel).result())
    session = ReasonSession()
    for _ in range(2):
        session.run(kernel)
    session_calls = python_calls(lambda: session.run(kernel))
    # The hit ran here, not on a worker: the counts cover both runs.
    assert service_calls.count("run_prepared") == session_calls.count("run_prepared") == 1
    extra = len(service_calls) - len(session_calls)
    assert extra <= MAX_EXTRA_CALLS, (
        f"a warm service hit made {len(service_calls)} Python calls against a "
        f"session hit's {len(session_calls)}: {extra} beyond it, more than "
        f"{MAX_EXTRA_CALLS}"
    )


def test_a_warm_inline_hit_takes_its_lock_sections_beyond_a_session_hit():
    kernel = random_ksat(20, 80, seed=51)
    with ReasonService(shards=2, policy="cache-affinity") as service:
        service.submit(kernel).result(timeout=30)
        wait_idle(service)
        assert service.submit(kernel).done()
        service_sections = lock_sections(lambda: service.submit(kernel).result())
    session = ReasonSession()
    for _ in range(2):
        session.run(kernel)
    session_sections = lock_sections(lambda: session.run(kernel))
    assert session_sections == 1, "a session hit takes the cache's lock once"
    assert service_sections - session_sections == EXTRA_LOCK_SECTIONS, (
        f"a warm service hit took {service_sections} lock sections against a "
        f"session hit's {session_sections}, not {EXTRA_LOCK_SECTIONS} more"
    )


def test_an_inline_store_hit_stays_within_its_cost_of_a_session_store_hit():
    kernel, other = random_ksat(20, 80, seed=51), random_ksat(20, 80, seed=52)

    def service_hit(measure):
        with ReasonService(shards=2, store="shared") as service:
            for _ in range(2):  # each round-robin shard has run once
                service.submit(other).result(timeout=30)
            service.submit(kernel).result(timeout=30)  # shard 0 compiles it
            wait_idle(service)
            return measure(lambda: service.submit(kernel).result())  # shard 1

    def session_hit(measure):
        store = SharedStore()
        ReasonSession(store=store).run(kernel)
        session = ReasonSession(store=store)
        session.run(other)
        return measure(lambda: session.run(kernel))

    service_calls, session_calls = service_hit(python_calls), session_hit(python_calls)
    # Both ran a store hit here: one lookup fell through to the store.
    for calls in (service_calls, session_calls):
        assert calls.count("fetch_or_compile") == 1 and calls.count("prepare") == 0
    extra = len(service_calls) - len(session_calls)
    assert extra <= STORE_HIT_EXTRA_CALLS, (
        f"an inline store hit made {len(service_calls)} Python calls against a "
        f"session store hit's {len(session_calls)}: {extra} beyond it, more than "
        f"{STORE_HIT_EXTRA_CALLS}: {service_calls}"
    )
    sections = service_hit(lock_sections) - session_hit(lock_sections)
    assert sections == STORE_HIT_EXTRA_LOCK_SECTIONS, (
        f"an inline store hit took {sections} lock sections beyond a session "
        f"store hit, not {STORE_HIT_EXTRA_LOCK_SECTIONS}"
    )


class _Recording(SchedulingPolicy):
    name = "recording"

    def __init__(self):
        self.requests = []

    def select(self, request, shards):
        self.requests.append(request)
        return 0


def test_admission_builds_a_whole_request():
    """Admission builds its ``Request`` from the field tuple, not through
    the named tuple's constructor: what a policy sees must still be one,
    every field in place."""
    policy = _Recording()
    kernel = random_ksat(12, 40, seed=3)
    with ReasonService(shards=1, policy=policy) as service:
        service.submit(kernel, queries=2, neural_s=0.5, deadline_s=30).result(timeout=30)
    (request,) = policy.requests
    assert type(request) is Request and request == Request(*request)
    assert len(request) == len(Request._fields)
    assert (request.kernel, request.queries, request.neural_s, request.deadline_s) == (
        kernel, 2, 0.5, 30.0,
    )
