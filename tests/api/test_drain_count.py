"""``drain()`` against four submitting threads.

Admission adds each request to the service's in-flight set and the
settle discards it, neither under a lock, and only ``drain()`` waits on
a condition.  Four threads here send a 2-shard service a mix of warm
hits (settled inline when their shard is idle), queued misses and
requests with deadlines, some spent before they run; every ``drain()``
must return with every future done and every shard's accounting closed.
"""

import threading

from repro import ReasonService
from repro.api.resilience import DeadlineExceeded
from repro.logic.generators import random_ksat

THREADS = 4
ROUNDS = 5
PER_THREAD = 24  # a quarter each: misses, spent deadlines, live deadlines, plain hits
TAIL_MISSES = 4  # then this many more misses
SPENT = PER_THREAD // 4 * THREADS  # requests a round sends with a spent deadline


def send_round(service, warm, round_):
    """One round from :data:`THREADS` threads released together; returns
    every future and whether each was done when its ``submit`` returned.

    A miss costs its shard's worker some milliseconds of compile, and a
    burst of them ends every thread's sequence, so the queues are still
    busy when the last submit returns."""
    futures, born_done = [], []
    start = threading.Barrier(THREADS)

    def send(thread: int) -> None:
        requests = [
            (random_ksat(60, 255, seed=1000 * (round_ + 1) + 100 * thread + i), None)
            if i % 4 == 0 or i >= PER_THREAD
            else (warm[(thread + i) % len(warm)], {1: 1e-9, 2: 60.0}.get(i % 4))
            for i in range(PER_THREAD + TAIL_MISSES)
        ]
        start.wait()
        for kernel, deadline_s in requests:
            future = service.submit(kernel, deadline_s=deadline_s)
            futures.append(future)
            born_done.append(future.done())

    threads = [threading.Thread(target=send, args=(t,)) for t in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    return futures, born_done


def test_drain_returns_after_every_future_under_four_submitters():
    warm = [random_ksat(12, 40, seed=seed) for seed in range(4)]
    born_done, sent = [], len(warm)
    with ReasonService(shards=2, policy="cache-affinity") as service:
        for kernel in warm:
            service.submit(kernel).result(timeout=30)
        for round_ in range(ROUNDS):
            futures, done_at_submit = send_round(service, warm, round_)
            born_done += done_at_submit
            # A second drain() waits alongside this one: one settle wakes both.
            other = threading.Thread(target=service.drain, kwargs={"timeout": 60})
            other.start()
            service.drain(timeout=60)
            assert all(future.done() for future in futures)
            other.join(timeout=60)
            assert not other.is_alive()
            sent += len(futures)
            failures = [future.exception() for future in futures]
            assert sum(isinstance(error, DeadlineExceeded) for error in failures) == SPENT
            assert sum(error is not None for error in failures) == SPENT
            stats = service.stats()
            for shard in stats.shards:
                assert shard.pending == 0
                assert shard.submitted == shard.completed + shard.failed + shard.cancelled
            expired = SPENT * (round_ + 1)
            assert (stats.submitted, stats.expired, stats.failed) == (sent, expired, expired)
    # The mix happened: some hits settled inline, and some requests queued.
    assert any(born_done) and not all(born_done)
