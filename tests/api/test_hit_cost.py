"""What a warm hit costs, in Python calls: a session hit of each kernel
kind that carries options, and a service hit beyond a session hit.

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
from repro.logic.generators import random_ksat

from tests.corpus import small

#: The most Python-level calls one warm inline ``submit(...).result()``
#: may make beyond one ``ReasonSession.run`` of the same kernel.  Every
#: stdlib function on either path (``concurrent.futures.Future``,
#: ``threading.Condition``, ``threading.RLock``, a named tuple's
#: ``__new__``) is Python code in CPython 3.10, 3.11 and 3.12 alike,
#: and neither path runs a comprehension (inlined from 3.12 on), so the
#: bound is the same for all three.
MAX_EXTRA_CALLS = 33

#: The most Python-level calls one warm ``ReasonSession.run`` may make
#: (the probe's own ``lambda`` included), for a kind's ``small`` corpus
#: kernel with its options: an HMM with ``hmm_observations``, a circuit
#: with a calibration.  The same caveat holds: the dataclass
#: ``__init__`` / ``__post_init__`` of the options and
#: ``ABCMeta.__instancecheck__`` are Python code in CPython 3.10, 3.11
#: and 3.12 alike, and neither path runs a comprehension (inlined from
#: 3.12 on), so the bounds are the same for all three.
MAX_WARM_RUN_CALLS = {"hmm": 22, "circuit": 26}


def python_calls(action) -> list:
    """The name of every Python function ``action()`` calls on this
    thread, in call order.  The cyclic collector is off meanwhile: a
    collection that frees an earlier test's service runs its weakref
    callbacks (a ``WeakSet._remove``) on this thread, which are not
    calls of the path probed."""
    calls = []

    def record(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(record)
    try:
        action()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls


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
        assert service.submit(kernel).done()  # the first hit prices the kernel
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
