"""The traced run: a few passes of a workload with spans around every
layer boundary, giving the per-layer metrics.

For every traced pass the same requests also run once plainly and once
with the program's own telemetry (``metrics=``) on, so the cost of both
kinds of observation is a measured ratio.  The traced pass itself runs
each request three ways — through ``ReasonSession.run`` (the reference),
through :class:`bench.staged.StagedPipeline` (the stages), and for cold
workloads through ``adapter.prepare`` (the real front end in one call) —
and a request is correct only if the staged report's ``identity()``
equals the session's.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro import ReasonSession
from repro.api.adapters import RunOptions, adapter_for
from repro.api.cache import CacheStats, CompileCache
from repro.core.arch.config import DEFAULT_CONFIG

from bench import layers, record, stats
from bench.kernels import KernelRequest
from bench.staged import StagedPipeline
from bench.tracing import Tracer
from bench.workloads import (
    ColdState,
    ServiceState,
    Tally,
    Workload,
    WorkloadState,
    fingerprint_of,
    run_requests,
)

clock = time.perf_counter

#: Passes of a traced run; a service workload adds passes until its
#: serving legs have enough samples for a p90.
TRACED_PASSES = 3
MIN_SERVING_SAMPLES = 110

CACHE_FIELDS = ("local_hits", "shared_hits", "misses", "evictions", "promotions")


def _cache_counts(stats_list: Sequence[CacheStats]) -> Counter:
    counts: Counter = Counter()
    for cache_stats in stats_list:
        for name in CACHE_FIELDS:
            counts[name] += getattr(cache_stats, name)
    return counts


def _service_cache_stats(state: ServiceState) -> List[CacheStats]:
    return [shard.cache for shard in state.service.stats().shards]


class SessionProbe:
    """Requests through a session and, side by side, through the staged
    pipeline; one span log for both."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.staged = StagedPipeline(tracer, CompileCache(capacity=None))
        self.requests = 0
        self.artifacts: List[Tuple[str, object]] = []

    def warm(self, requests: Sequence[KernelRequest]) -> None:
        """Compile ``requests`` into the staged cache without leaving
        spans or counts behind."""
        quiet = StagedPipeline(Tracer(), self.staged.cache)
        for request in requests:
            quiet.run(request, -1)

    def run_pass(
        self,
        session: ReasonSession,
        tally: Tally,
        reference: Sequence[KernelRequest],
        staged: Sequence[KernelRequest],
        direct: Sequence[KernelRequest] = (),
    ) -> None:
        """``reference[i]``, ``staged[i]`` and ``direct[i]`` are equal
        kernels in separate objects, so no path profits from what
        another memoized on the kernel.  ``direct`` (cold passes only)
        also gets the one-call front end and a cache hit timed."""
        span = self.tracer.span
        for position, request in enumerate(reference):
            rid = self.requests
            self.requests += 1
            with span("api.session.run", rid):
                report = session.run(
                    request.kernel, queries=request.queries, **request.options
                )
            twin = staged[position]
            staged_report = self.staged.run(twin, rid)
            problem = None
            if staged_report.identity() != report.identity():
                problem = (
                    f"{request.name}: staged {staged_report.identity()!r} "
                    f"!= session.run {report.identity()!r}"
                )
            tally.served(report, problem)
            if direct:
                third = direct[position]
                options = RunOptions(**third.options)
                adapter = adapter_for(third.kernel)
                with span("api.adapters.prepare", rid):
                    adapter.prepare(third.kernel, options, DEFAULT_CONFIG)
                key = fingerprint_of(third, DEFAULT_CONFIG)
                with span("api.cache.lookup_hit", rid):
                    artifact, _ = self.staged.cache.get_or_compile(key, _no_compile)
                if len(self.artifacts) < layers.PROBE_ARTIFACTS:
                    self.artifacts.append((key, artifact))


def _no_compile():
    raise AssertionError("expected a compile-cache hit")


def _pool_artifacts(
    probe: SessionProbe, pool: Sequence[KernelRequest]
) -> List[Tuple[str, object]]:
    """``(key, artifact)`` of already compiled pool kernels."""
    found = []
    for request in pool[: layers.PROBE_ARTIFACTS]:
        key = fingerprint_of(request, DEFAULT_CONFIG)
        artifact = probe.staged.cache.peek(key)
        if artifact is not None:
            found.append((key, artifact))
    return found


#: What only a service workload measures; 0 on the others.
SERVING_METRICS = (
    "api.service.submit_s", "api.service.queue_wait_s.p50", "api.service.queue_wait_s.p90",
    "api.service.execute_s.p50", "api.service.resolve_s.p50", "api.service.overhead_s",
    "api.service.queue_depth_max", "api.service.shard_imbalance", "api.service.rejected",
    "api.service.retries", "api.service.restarts", "api.service.modeled_makespan_s",
    "api.service.modeled_rps",
)


class ServingTrace:
    """What the traced passes of a service workload add up to."""

    def __init__(self) -> None:
        self.legs: Dict[str, List[float]] = {"queue_wait": [], "execute": [], "resolve": []}
        self.depth_max = 0
        self.submitted = 0

    def traced_pass(self, state: ServiceState, index: int, tracer: Tracer, tally: Tally):
        """One pass with every ``submit`` / ``submit_batch`` inside a
        span; the queue-wait and execute legs come from the service's
        own ``spans()``."""
        proxy = layers.TracedService(state.service, tracer)
        state.service = proxy
        try:
            state.run_pass(index, tally)
        finally:
            state.service = proxy.inner
        found = layers.serving_legs(
            proxy.inner.spans(last=state.requests_per_pass), proxy.resolved
        )
        for leg, samples in self.legs.items():
            samples += found[leg]
        self.depth_max = max(self.depth_max, found["depth_max"])
        self.submitted += proxy.submitted

    def values(
        self, tracer: Tracer, service_stats, tally: Tally, overhead_s: float
    ) -> Dict[str, float]:
        per_shard = [shard.completed for shard in service_stats.shards]
        legs = self.legs
        return {
            "api.service.submit_s": tracer.seconds()["api.service.submit"] / self.submitted,
            "api.service.queue_wait_s.p50": stats.percentile(legs["queue_wait"], 50),
            "api.service.queue_wait_s.p90": stats.percentile(legs["queue_wait"], 90),
            "api.service.execute_s.p50": stats.percentile(legs["execute"], 50),
            "api.service.resolve_s.p50": stats.percentile(legs["resolve"], 50),
            "api.service.overhead_s": overhead_s,
            "api.service.queue_depth_max": self.depth_max,
            "api.service.shard_imbalance": max(per_shard) * len(per_shard) / sum(per_shard),
            "api.service.rejected": sum(1 for p in tally.problems if "rejected" in p),
            "api.service.retries": service_stats.retries,
            "api.service.restarts": service_stats.restarts,
            "api.service.modeled_makespan_s": service_stats.makespan_s,
            "api.service.modeled_rps": service_stats.throughput_rps,
        }


def run(
    workload: Workload, state: WorkloadState, seed: int, tiny: bool, tally: Tally
) -> Tuple[Dict[str, float], dict]:
    """Traced passes of ``workload`` on ``state``; returns the per-layer
    values and the extra record fields.  ``tally`` counts the traced
    requests and whatever was wrong with them."""
    tracer = Tracer()
    probe = SessionProbe(tracer)
    serving = isinstance(state, ServiceState)
    cold = isinstance(state, ColdState)
    passes = TRACED_PASSES
    while serving and passes * state.requests_per_pass < MIN_SERVING_SAMPLES:
        passes += 1
    wall: Dict[str, List[float]] = {"off": [], "on": [], "traced": []}
    plain, telemetered = Tally(), Tally()
    cache: Counter = Counter()  # lookups of the traced passes only
    serving_trace = ServingTrace()
    values: Dict[str, float] = {}

    state_on = workload.setup(seed, tiny, metrics=True)
    try:
        state_on.prepare_references()
        if serving:
            probe.warm(state.pool)
        elif not cold:
            probe.warm(state.sequence(0))
        for index in range(passes):
            state.run_pass(index, plain)
            wall["off"].append(plain.pass_walls[-1])
            state_on.run_pass(index, telemetered)
            wall["on"].append(telemetered.pass_walls[-1])
            start = clock()
            if serving:
                before = _cache_counts(_service_cache_stats(state_on))
                serving_trace.traced_pass(state_on, index, tracer, tally)
                cache += _cache_counts(_service_cache_stats(state_on)) - before
            elif cold:
                session = state.fresh_session()
                probe.staged.cache = CompileCache(capacity=8)
                probe.run_pass(
                    session,
                    tally,
                    state.sequence(index),
                    state.sequence(index),
                    state.sequence(index),
                )
                cache += _cache_counts([session.cache_stats])
            else:
                before = _cache_counts([state.session.cache_stats])
                requests = state.sequence(index)
                probe.run_pass(state.session, tally, requests, requests)
                cache += _cache_counts([state.session.cache_stats]) - before
            wall["traced"].append(clock() - start)
        if serving:
            # The same traffic through a bare session: what a request
            # costs without the service around it, and its stages.
            bare, bare_tally, quiet = ReasonSession(), Tally(), Tally()
            sequence = state.sequence(0)
            for request in state.pool:
                bare.run(request.kernel, queries=request.queries, **request.options)
            run_requests(bare, sequence, bare_tally, lambda request, report: None)
            probe.run_pass(bare, quiet, sequence, sequence)
            tally.failed += quiet.failed
            tally.problems += quiet.problems
            overhead_s = stats.percentile(plain.latencies, 50) - stats.percentile(
                bare_tally.latencies, 50
            )
            values = serving_trace.values(
                tracer, state_on.service.stats(), tally, overhead_s
            )
    finally:
        state_on.close()
    tally.failed += telemetered.failed + plain.failed
    tally.problems += telemetered.problems + plain.problems

    artifacts = probe.artifacts or _pool_artifacts(
        probe, state.pool if serving else state.sequence(0)
    )
    values = {**per_layer_values(tracer, probe, cache), **values}
    values.update(
        layers.store_probe(
            artifacts, record.OUT_DIR / f"store-{workload.name}", 2 if tiny else 3
        )
    )
    policy = state.service.policy.name if serving else "cache-affinity"
    values.update(layers.placement_probe(artifacts, policy, 200 if tiny else 2000))
    if not tracer.durations("api.cache.lookup_miss"):
        values["api.cache.lookup_miss_self_s"] = layers.cache_miss_probe(
            artifacts, 200 if tiny else 2000
        )
    values["metrics.on_overhead_ratio"] = _ratio(wall["on"], wall["off"])
    values["bench.trace_overhead_ratio"] = _ratio(wall["traced"], wall["off"])
    span_file = record.OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    tracer.dump(span_file)
    extra = {
        "passes": passes,
        "requests_per_pass": state.requests_per_pass,
        "pass_wall_s": wall,
        "spans": len(tracer.spans),
        "span_file": span_file.name,
        "samples": {name: len(samples) for name, samples in serving_trace.legs.items()},
    }
    return values, extra


def _ratio(numerators: Sequence[float], denominators: Sequence[float]) -> float:
    return statistics.median(numerators) / statistics.median(denominators)


def per_layer_values(tracer: Tracer, probe: SessionProbe, cache: Counter) -> Dict[str, float]:
    """Per-layer metrics of the request path.  ``*_s`` are mean seconds
    per traced request unless the name says otherwise; counts are totals
    over the traced requests; layers the workload never enters read 0."""
    seconds, self_seconds = tracer.seconds(), tracer.self_seconds()
    requests = max(probe.requests, 1)
    counts = probe.staged.counts
    staged = probe.staged

    def per_request(name: str) -> float:
        return seconds.get(name, 0.0) / requests

    def per_unit(name: str, units: int) -> float:
        return seconds.get(name, 0.0) * 1e9 / units if units else 0.0

    hits = tracer.durations("api.cache.lookup_hit")
    misses = len(tracer.durations("api.cache.lookup_miss"))
    # What session.run contains besides its own glue: the children of
    # the staged request, with the staged front end swapped for the
    # real one-call front end where that was timed.
    contained = (
        seconds.get("bench.staged_request", 0.0)
        - self_seconds.get("bench.staged_request", 0.0)
        - seconds.get("bench.staged_compile", 0.0)
        + seconds.get("api.adapters.prepare", 0.0)
    )
    accelerator = seconds.get("core.arch.replay", 0.0) + seconds.get(
        "core.arch.run_program", 0.0
    )
    lookups = sum(cache[name] for name in ("local_hits", "shared_hits", "misses"))
    values = {
        "logic.solve_s": per_request("logic.solve"),
        "logic.solve_ns_per_propagation": per_unit("logic.solve", counts["propagations"]),
        "logic.conflicts": counts["conflicts"],
        "logic.propagations": counts["propagations"],
        "logic.clause_fetches": counts["clause_fetches"],
        "core.dag.build_s": per_request("core.dag.build"),
        "core.dag.prune_s": per_request("core.dag.prune"),
        "core.dag.regularize_s": per_request("core.dag.regularize"),
        "core.dag.nodes_before": counts["nodes_before"],
        "core.dag.nodes_after": counts["nodes_after"],
        "core.dag.memory_reduction": stats.mean(staged.memory_reduction),
        "core.compiler.blocks_s": per_request("core.compiler.blocks"),
        "core.compiler.mapping_s": per_request("core.compiler.mapping"),
        "core.compiler.tree_map_s": per_request("core.compiler.tree_map"),
        "core.compiler.schedule_s": per_request("core.compiler.schedule"),
        "core.compiler.blocks": counts["blocks"],
        "core.compiler.instructions": counts["instructions"],
        "core.compiler.nops": counts["nops"],
        "core.compiler.spills": counts["spills"],
        "core.compiler.reloads": counts["reloads"],
        "core.compiler.bank_conflicts_static": counts["bank_conflicts_static"],
        "core.compiler.issue_efficiency": stats.mean(staged.issue_efficiency),
        "core.arch.replay_s": per_request("core.arch.replay"),
        "core.arch.replay_events": counts["replay_events"],
        "core.arch.replay_ns_per_event": per_unit("core.arch.replay", counts["replay_events"]),
        "core.arch.run_program_s": per_request("core.arch.run_program"),
        "core.arch.run_program_ns_per_instruction": per_unit(
            "core.arch.run_program", counts["instructions_run"]
        ),
        "core.arch.utilization": stats.mean(staged.utilization),
        "core.arch.stalls": counts["stalls"],
        "api.adapters.fingerprint_s": per_request("api.adapters.fingerprint"),
        "api.adapters.prepare_s": per_request("api.adapters.prepare"),
        "api.cache.lookup_hit_s": stats.mean(hits),
        "api.cache.lookup_miss_self_s": (
            self_seconds.get("api.cache.lookup_miss", 0.0) / misses if misses else 0.0
        ),
        "api.cache.hit_rate": (
            (cache["local_hits"] + cache["shared_hits"]) / lookups if lookups else 0.0
        ),
        "api.backends.run_s": per_request("api.backends.run"),
        "api.backends.self_s": (seconds.get("api.backends.run", 0.0) - accelerator) / requests,
        "api.session.run_s": per_request("api.session.run"),
        "api.session.self_s": (seconds.get("api.session.run", 0.0) - contained) / requests,
    }
    for name in CACHE_FIELDS:
        values[f"api.cache.{name}"] = cache[name]
    values.update(dict.fromkeys(SERVING_METRICS, 0.0))
    return values
