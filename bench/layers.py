"""Direct measurements of layers no request-path span can isolate:
artifact stores, placement, cost prediction, the cache-miss bookkeeping,
and the serving legs of a :class:`ReasonService` request.

Each probe calls a layer's public functions on artifacts and requests
the workload itself produced, many times, and reports the median
seconds per call.
"""

from __future__ import annotations

import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from repro.api.adapters import RunOptions
from repro.api.cache import CompileCache
from repro.api.scheduler import Request, ShardView, get_policy
from repro.api.store import DiskStore, SharedStore
from repro.api.types import CompiledArtifact
from repro.core.arch.config import DEFAULT_CONFIG
from repro.costmodel import CostEstimator
from repro.metrics.spans import RequestSpan

from bench.tracing import Tracer

clock = time.perf_counter

#: Artifacts a store probe cycles through.
PROBE_ARTIFACTS = 16


def median_call_s(call: Callable[[int], object], calls: int) -> float:
    """Median wall seconds of ``call(i)`` over ``calls`` invocations."""
    samples = []
    for index in range(calls):
        start = clock()
        call(index)
        samples.append(clock() - start)
    return statistics.median(samples)


def store_probe(
    artifacts: Sequence[Tuple[str, CompiledArtifact]], scratch: Path, rounds: int
) -> Dict[str, float]:
    """``get``/``put`` on a :class:`SharedStore` and on a
    :class:`DiskStore` rooted in ``scratch`` (removed afterwards)."""
    artifacts = list(artifacts)[:PROBE_ARTIFACTS]
    if not artifacts:
        return {}
    count = len(artifacts)
    calls = rounds * count
    shared = SharedStore()
    values = {
        "api.store.shared_put_s": median_call_s(
            lambda i: shared.put(*artifacts[i % count]), calls
        ),
        "api.store.shared_get_s": median_call_s(
            lambda i: shared.get(artifacts[i % count][0]), calls
        ),
    }
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        disk = DiskStore(scratch)
        values["api.store.disk_put_s"] = median_call_s(
            lambda i: disk.put(*artifacts[i % count]), calls
        )
        values["api.store.disk_get_s"] = median_call_s(
            lambda i: disk.get(artifacts[i % count][0]), calls
        )
        sizes = [entry.stat().st_size for entry in scratch.iterdir() if entry.is_file()]
        values["api.store.disk_bytes_per_artifact"] = sum(sizes) / len(sizes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return values


def placement_probe(
    artifacts: Sequence[Tuple[str, CompiledArtifact]], policy: str, calls: int
) -> Dict[str, float]:
    """``policy.select`` and ``CostEstimator.predict`` on public
    ``Request`` / ``ShardView`` values, as admission calls them."""
    artifacts = list(artifacts)[:PROBE_ARTIFACTS]
    if not artifacts:
        return {}
    count = len(artifacts)
    estimator = CostEstimator(config=DEFAULT_CONFIG)
    for key, artifact in artifacts:
        estimator.record_artifact(key, artifact)
    options = RunOptions()
    requests = [
        Request(
            kernel=artifact.kernel,
            options=options,
            kind=artifact.kind,
            fingerprint=key,
            backend=None,
            queries=1,
            neural_s=0.0,
            predicted={"reason": estimator.predict(key, "reason", kind=artifact.kind)},
        )
        for key, artifact in artifacts
    ]
    views = [ShardView(0, 3, 100, "reason", 0.001), ShardView(1, 1, 90, "reason", 0.002)]
    chooser = get_policy(policy)
    return {
        "api.scheduler.select_s": median_call_s(
            lambda i: chooser.select(requests[i % count], views), calls
        ),
        "costmodel.predict_s": median_call_s(
            lambda i: estimator.predict(
                artifacts[i % count][0], "reason", kind=artifacts[i % count][1].kind
            ),
            calls,
        ),
    }


def cache_miss_probe(
    artifacts: Sequence[Tuple[str, CompiledArtifact]], calls: int
) -> float:
    """Seconds a ``CompileCache.get_or_compile`` miss spends outside
    its factory (lookup, in-flight guard, insert, eviction): a factory
    that only hands back a ready artifact leaves just that."""
    artifacts = list(artifacts)[:PROBE_ARTIFACTS]
    if not artifacts:
        return 0.0
    count = len(artifacts)
    cache = CompileCache(capacity=1)  # every lookup evicts the last: always a miss

    def miss(index: int) -> None:
        key, artifact = artifacts[index % count]
        cache.get_or_compile(f"{key}:{index}", lambda: artifact)

    return median_call_s(miss, calls)


# ------------------------------------------------------------- serving


class TracedService:
    """Stands in for a :class:`ReasonService` during a traced pass:
    forwards ``submit`` / ``submit_batch`` inside a span and stamps
    the moment every future resolves."""

    def __init__(self, service, tracer: Tracer) -> None:
        self.inner = service
        self.tracer = tracer
        self.submitted = 0
        #: ``(shard_index, perf_counter at done-callback)`` per request.
        self.resolved: List[Tuple[int, float]] = []

    def _stamp(self, future) -> None:
        self.resolved.append((future.shard_index, clock()))

    def submit(self, kernel, **kwargs):
        with self.tracer.span("api.service.submit", self.submitted):
            future = self.inner.submit(kernel, **kwargs)
        self.submitted += 1
        future.add_done_callback(self._stamp)
        return future

    def submit_batch(self, kernels, **kwargs):
        with self.tracer.span("api.service.submit", self.submitted):
            futures = self.inner.submit_batch(kernels, **kwargs)
        self.submitted += len(futures)
        for future in futures:
            future.add_done_callback(self._stamp)
        return futures


def serving_legs(
    spans: Sequence[RequestSpan], resolved: Sequence[Tuple[int, float]]
) -> Dict[str, object]:
    """Queue-wait and execute legs from the service's own
    :class:`RequestSpan` records, the resolve leg (span closed → done-
    callback ran) by pairing them with the stamped callbacks, and the
    deepest any shard's backlog got.

    A shard serves its queue in order, so its i-th finished span and
    its i-th resolved future are the same request.
    """
    spans_by_shard: Dict[int, List[RequestSpan]] = defaultdict(list)
    for span in spans:
        if span.status == "ok":
            spans_by_shard[span.shard].append(span)
    stamps_by_shard: Dict[int, List[float]] = defaultdict(list)
    for shard, stamp in resolved:
        stamps_by_shard[shard].append(stamp)
    resolve: List[float] = []
    depth_max = 0
    for shard, shard_spans in spans_by_shard.items():
        shard_spans.sort(key=lambda span: span.finished_at)
        stamps = sorted(stamps_by_shard[shard])
        if len(stamps) == len(shard_spans):
            resolve += [
                stamp - span.finished_at for span, stamp in zip(shard_spans, stamps)
            ]
        events = [(span.admitted_at, 1) for span in shard_spans]
        events += [(span.finished_at, -1) for span in shard_spans]
        depth = 0
        for _, step in sorted(events):
            depth += step
            depth_max = max(depth_max, depth)
    return {
        "queue_wait": [span.queue_wait_s for span in spans if span.status == "ok"],
        "execute": [span.execute_s for span in spans if span.status == "ok"],
        "resolve": resolve,
        "depth_max": depth_max,
    }
