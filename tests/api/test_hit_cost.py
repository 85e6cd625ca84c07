"""What a warm hit costs, in Python calls: a session hit of each kernel
kind that carries options, and a service hit beyond a session hit, in
calls and in lock sections.

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

from repro import ReasonService, ReasonSession
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
#: ``__init__`` (which checks them itself, with no ``__post_init__``) and
#: ``ABCMeta.__instancecheck__`` are Python code in CPython 3.10, 3.11
#: and 3.12 alike, and neither path runs a comprehension (inlined from
#: 3.12 on), so the bounds are the same for all three.
MAX_WARM_RUN_CALLS = {"hmm": 18, "circuit": 22}


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
