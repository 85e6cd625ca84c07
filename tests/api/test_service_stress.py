"""Admission under contention: more submitter threads than cores, a
forced thread switch every microsecond, a 2-shard service.  The shared
default options, the stored price quotes and the tuple ``Request`` are
read by every thread at once; a lost update shows as a broken counter
identity or a report that differs from a bare session's."""

import os
import sys
import threading
import time

from repro import ReasonService, ReasonSession
from repro.core.dag import cnf_to_dag
from repro.hmm.model import HMM
from repro.logic.generators import random_ksat
from repro.pc.learn import random_circuit

RUN_S = 1.5
JOIN_S = 60.0


def requests():
    """(kernel, queries, option kwargs): default and explicit options
    over every kernel family, at one query and at several."""
    kernels = [
        random_ksat(10, 32, seed=21),
        random_circuit(5, depth=2, seed=22),
        HMM.random(3, 4, seed=23),
        cnf_to_dag(random_ksat(6, 15, seed=24))[0],
    ]
    plans = []
    for kernel in kernels:
        plans += [(kernel, 1, {}), (kernel, 3, {}), (kernel, 1, {"optimize": True})]
    plans.append((kernels[1], 2, {"keep_fraction": 0.5}))
    return plans


def test_counters_and_reports_hold_under_contention():
    run_under_contention(requests(), (os.cpu_count() or 1) + 2, policy="cache-affinity")


def test_store_hits_hold_under_contention():
    """Round-robin shards whose 2-entry LRUs send most lookups to a
    shared store: store hits settle inline on idle shards and on
    workers behind busy ones, among first sights of fresh kernels."""
    plans = requests() + [(random_ksat(8, 20, seed=100 + seed), 1, {}) for seed in range(12)]
    stats = run_under_contention(
        plans, 4, policy="round-robin", cache_capacity=2, store="shared"
    )
    assert sum(shard.cache.shared_hits for shard in stats.shards) > 0


def run_under_contention(plans, submitters, **service_kwargs):
    """Drive ``submitters`` threads over ``plans`` for :data:`RUN_S` and
    check every report and counter; returns the drained service's
    stats."""
    reference = [
        ReasonSession().run(kernel, queries=queries, **options).identity()
        for kernel, queries, options in plans
    ]
    settled = [[] for _ in range(submitters)]
    errors = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ReasonService(shards=2, max_queue=8, **service_kwargs) as service:
            stop = time.monotonic() + RUN_S

            def submit(slot):
                try:
                    turn = slot
                    while time.monotonic() < stop:
                        index = turn % len(plans)
                        kernel, queries, options = plans[index]
                        if turn % 5 == 0:
                            batch = [kernel, kernel]
                            futures = service.submit_batch(batch, queries=queries, **options)
                        else:
                            futures = [service.submit(kernel, queries=queries, **options)]
                        if turn % 7 == 0:
                            futures[0].cancel()
                        settled[slot] += [(index, future) for future in futures]
                        turn += 1
                except Exception as error:  # surfaced by the assertion below
                    errors.append(error)

            threads = [
                threading.Thread(target=submit, args=(slot,)) for slot in range(submitters)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(JOIN_S)
            assert not any(thread.is_alive() for thread in threads)
            service.drain(timeout=JOIN_S)
            stats = service.stats()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    futures = [pair for per_thread in settled for pair in per_thread]
    cancelled = [future for _, future in futures if future.cancelled()]
    served = [(index, future) for index, future in futures if not future.cancelled()]
    assert len(futures) > len(plans)
    assert stats.submitted == len(futures)
    assert stats.submitted == stats.completed + stats.failed + stats.cancelled + sum(
        shard.pending for shard in stats.shards
    )
    assert (stats.failed, stats.cancelled, stats.completed) == (0, len(cancelled), len(served))
    for index, future in served:
        assert future.result(timeout=0).identity() == reference[index]
    # Every distinct kernel served compiled once, service-wide.
    assert stats.cache_misses == len({future.fingerprint for _, future in served})
    return stats
