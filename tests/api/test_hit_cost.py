"""What a warm service hit costs beyond a session hit, in Python calls.

A warm hit on an idle shard runs on the submitting thread
(``tests/api/test_inline_settle.py``), so one ``sys.setprofile`` hook
on that thread sees all of it: admission, the claim, the session's own
run, the settle and the future.  A call count does not drift with the
host's load the way a wall-clock time does, so this guard can be exact.
"""

import sys
import time

from repro import ReasonService, ReasonSession
from repro.logic.generators import random_ksat

#: The most Python-level calls one warm inline ``submit(...).result()``
#: may make beyond one ``ReasonSession.run`` of the same kernel.  Every
#: stdlib function on either path (``concurrent.futures.Future``,
#: ``threading.Condition``, ``threading.RLock``, a named tuple's
#: ``__new__``) is Python code in CPython 3.10, 3.11 and 3.12 alike,
#: and neither path runs a comprehension (inlined from 3.12 on), so the
#: bound is the same for all three.
MAX_EXTRA_CALLS = 33


def python_calls(action) -> list:
    """The name of every Python function ``action()`` calls on this
    thread, in call order."""
    calls = []

    def record(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return calls


def wait_idle(service, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while any(shard.running or shard.items for shard in service._shards):
        assert time.monotonic() < deadline, "a shard never went idle"
        time.sleep(0.001)


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
