"""`ReasonService`: async, sharded serving on top of :class:`ReasonSession`.

Where a session is one blocking object — one caller, one compile cache,
one execution stream — a service is N of them behind an admission
layer::

    from repro import ReasonService

    with ReasonService(shards=4, policy="cache-affinity") as service:
        future = service.submit(kernel, queries=8)     # -> ReasonFuture
        report = future.result()                       # ExecutionReport
        batch = asyncio.run(service.run_batch(kernels, queries=8))

Each shard owns a private :class:`ReasonSession` (its own compile
cache) fed by a bounded admission queue and drained by a dedicated
worker thread; a warm hit on an idle shard skips the queue and runs
on the submitting thread.  A pluggable
:class:`~repro.api.scheduler.SchedulingPolicy` (round-robin,
least-loaded, cache-affinity) places every request;
admission applies backpressure — when the chosen shard's queue is
full, ``submit`` blocks (or raises
:class:`ServiceOverloaded` after ``timeout``), so producers can't
outrun the accelerators unboundedly.

Every shard is the same thing: ``shards=4`` spins up four REASON
instances, each a session behind one bounded queue and one
:class:`CircuitBreaker`.  A substrate is chosen in one place, the
request's ``backend=`` (``"reason"`` unless the caller names another
registered backend, which any shard can run).  A
:class:`~repro.costmodel.CostEstimator` (one per service) predicts
each request's cost on that backend once at admission, tracks every
shard's predicted busy time, and prices each (kernel, backend) from
its first completed report; the request spans' residuals read those
predictions too.

Throughput accounting stays faithful to the paper's overlap model:
each shard's completed work is composed through its own two-level
GPU↔REASON pipeline, and the service makespan is the slowest shard's
makespan (:func:`~repro.core.system.sharding.compose_shard_makespans`)
— not wall time divided by N.

The service also *survives* its shards (:mod:`repro.api.resilience`):
a supervisor restarts crashed workers and requeues or fails their
stranded requests (an admitted future always resolves — never hangs),
transient failures replay under a bounded :class:`RetryPolicy`
(results stay bit-identical, execution is deterministic), per-shard
:class:`CircuitBreaker`\\ s route admission around repeatedly-failing
shards, store trouble degrades to shard-local caching, and a
per-request deadline (``submit(..., deadline_s=...)``) is one
wall-clock budget from admission, enforced in queue and around
execution.  All of it is exercisable deterministically through
``faults=`` (:class:`repro.faults.FaultPlan`) and gated by
``tests/api/test_faults.py``.
"""

from __future__ import annotations

import asyncio
import threading
import time
import weakref
from collections import deque
from collections.abc import Sequence
from concurrent.futures import InvalidStateError
from dataclasses import asdict, dataclass, field, fields, replace
from numbers import Integral
from typing import Callable, Deque, List, Optional, Union

from repro.api.adapters import (
    DEFAULT_OPTIONS,
    RunOptions,
    adapter_for,
    neural_time,
    per_kernel_neural_s,
)
from repro.api.cache import CacheStats
from repro.api.futures import ReasonFuture
from repro.api.resilience import (
    CircuitBreaker,
    DeadlineExceeded,
    ResilientStore,
    RetriesExhausted,
    RetryPolicy,
    ShardCrashed,
    TransientError,
    WorkerCrash,
    resolve_deadline,
)
from repro.api.scheduler import Request, SchedulingPolicy, ShardView, ShardViews, get_policy
from repro.api.session import ReasonSession
from repro.api.store import ArtifactStore, make_store
from repro.api.types import ExecutionReport, check_count
from repro.core.arch.config import ArchConfig, DEFAULT_CONFIG
from repro.core.system.pipeline import PipelineResult
from repro.core.system.sharding import ShardComposition, compose_shard_makespans
from repro.costmodel import CostEstimator
from repro.metrics.registry import (
    LATENCY_BUCKETS,
    RATIO_BUCKETS,
    MetricsRegistry,
    ensure_registry,
)
from repro.metrics.spans import RequestSpan, SpanLog, leg_columns

#: Completed spans :meth:`ReasonService.spans` retains (a bounded ring,
#: like ``stats_window``).
SPAN_LOG_SIZE = 4096

#: What a request that settled without a report contributes to its span.
_NO_REPORT = ExecutionReport("", "", None, 0, 0.0, 0.0)

#: Per-backend histograms a successful request's span feeds:
#: (RequestSpan attribute, metric name, help, buckets).
_SPAN_HISTOGRAMS = (
    ("queue_wait_s", "reason_request_queue_wait_seconds",
     "Admission to the claim by a worker or an inline caller.", LATENCY_BUCKETS),
    ("execute_s", "reason_request_execute_seconds",
     "Backend execution wall seconds.", LATENCY_BUCKETS),
    ("e2e_s", "reason_request_e2e_seconds",
     "Admission to completion — caller-visible latency.", LATENCY_BUCKETS),
    ("latency_residual", "reason_request_latency_residual",
     "Actual/predicted modeled seconds (1.0 = exact).", RATIO_BUCKETS),
    ("energy_residual", "reason_request_energy_residual",
     "Actual/predicted energy (1.0 = exact).", RATIO_BUCKETS),
)  # fmt: skip


class ServiceClosed(RuntimeError):
    """Raised on submission to a service that has been closed."""


class ServiceOverloaded(RuntimeError):
    """Raised when admission rejects a request because its shard's
    queue stayed full past ``timeout`` (backpressure).

    The shard's load at rejection time rides as attributes:

    * ``shard_index`` — the shard the policy chose (-1 if none);
    * ``queue_depth`` — its pending requests at rejection time;
    * ``backlog_s`` — its predicted seconds of unfinished work.
    """

    def __init__(
        self,
        message: str = "service overloaded",
        *,
        shard_index: int = -1,
        queue_depth: int = 0,
        backlog_s: float = 0.0,
    ):
        super().__init__(message)
        self.shard_index = shard_index
        self.queue_depth = queue_depth
        self.backlog_s = backlog_s


# Request lifecycle: QUEUED -> RUNNING -> SETTLED, with a retry the only
# back-edge (a RUNNING item re-enters a queue and stays RUNNING — its
# future entered RUNNING on the first attempt and cannot do so twice).
# SETTLED is entered exactly once, in ReasonService._settle.
_QUEUED, _RUNNING, _SETTLED = "queued", "running", "settled"

#: Terminal outcome -> the shard counters it moves, with ``_settle``'s
#: direct ``completed += 1`` for ``ok``: what keeps the identity
#: ``submitted == completed + failed + cancelled + pending``.  A
#: ``rejected`` request never reached its queue, so it takes its
#: admission back instead of counting as served.
_OUTCOME_COUNTERS = {
    "error": {"failed": 1},
    "deadline": {"failed": 1, "expired": 1},
    "cancelled": {"cancelled": 1},
    "rejected": {"submitted": -1},
}


@dataclass(slots=True)
class _WorkItem:
    # What admission routed on: kernel, queries, neural_s, the deadline
    # budget (read only by the timer and the shed) and the fingerprint
    # (reused for the shard's cache lookup).
    request: Request
    backend: str  # resolved substrate: the caller's ``backend=``, else "reason"
    future: ReasonFuture
    shard: "_Shard"  # current owner; a rerouted retry updates it
    predicted_s: float = 0.0  # busy-time charged at admission, repaid on exit
    attempts: int = 1  # executions dispatched (1 = the original)
    state: str = _QUEUED
    timer: Optional[threading.Timer] = None  # armed deadline watchdog
    # Wall-clock stamps (perf_counter) the settle-time span is built
    # from: admission, where the deadline budget runs from too, and the
    # QUEUED -> RUNNING claim (0.0 = never claimed).
    admitted_at: float = field(default_factory=time.perf_counter)
    started_at: float = 0.0
    # Guards `state`, `shard` and `timer`: worker success/failure (a
    # failure's retry included), the deadline timer and cancellation
    # all race on one item, and whoever flips it SETTLED under this
    # lock does the bookkeeping; everyone else backs off.  Lock order
    # is item.lock -> shard.lock, never the reverse.
    lock: threading.Lock = field(default_factory=threading.Lock)


def _counter(help_text: str):
    return field(default=0, metadata={"help": help_text})


@dataclass
class _ShardCounters:
    """One shard's accounting, mutated only under the shard's lock.

    This is the only list of the counters: :class:`ShardStats` receives
    them by name and the metrics registry exports each field that
    carries a help text as ``reason_shard_<name>_total``.
    """

    submitted: int = _counter("Requests admitted to this shard.")
    completed: int = _counter("Requests this shard executed successfully.")
    failed: int = _counter("Requests that raised on this shard.")
    cancelled: int = _counter("Requests cancelled while queued.")
    retries: int = _counter("Replays dispatched after transient failures.")
    restarts: int = _counter("Worker threads respawned by the supervisor.")
    crashes: int = _counter("Worker deaths observed on this shard.")
    expired: int = _counter("Requests failed by their deadline.")
    # Sum of admitted-but-unfinished predicted seconds (the cost model's
    # view of this shard's backlog; what ShardView.busy_s reports).
    busy_s: float = 0.0

    @property
    def pending(self) -> int:
        """Admitted but not yet terminal (queued or executing).

        Derived from the counters — never from queue internals — so
        ``submitted == completed + failed + cancelled + pending`` holds
        at every observable instant.
        """
        return self.submitted - self.completed - self.failed - self.cancelled

    def repay(self, predicted_s: float) -> None:
        # Float error must never leave a phantom backlog behind: clamp
        # at zero, and a shard with nothing pending owes exactly nothing.
        self.busy_s = max(self.busy_s - predicted_s, 0.0) if self.pending else 0.0


@dataclass(eq=False)  # identity semantics: a shard is not its field values
class _Shard:
    """One accelerator instance: a session, a bounded admission queue
    and the worker thread :class:`ReasonService` runs over them."""

    index: int
    session: ReasonSession
    breaker: CircuitBreaker  # trips on consecutive transient faults
    capacity: int  # queued (not yet dequeued) items the shard holds
    # (neural_s, symbolic_s) per success; bounded so a long-lived
    # service doesn't grow without limit and stats() stays cheap.
    stage_times: Deque
    counters: _ShardCounters = field(default_factory=_ShardCounters)
    # The admission queue.  `lock` guards it, `accepting` and the
    # counters; producers wait on `space` for a free slot and the
    # worker waits on `work` for an item (both conditions share `lock`).
    items: Deque[_WorkItem] = field(default_factory=deque)
    lock: threading.Lock = field(default_factory=threading.Lock)
    # Cleared by close().  Admission and retry dispatch append only
    # while it is set, and the worker exits once it is clear and the
    # queue is empty — so nothing admitted is ever orphaned, and
    # shutdown needs no queue slot of its own.
    accepting: bool = True
    # Taken (under `lock`) by whoever runs a request on this shard: the
    # worker from each pop to the top of its next loop, or a caller
    # running a warm hit inline.  Held from construction until a worker
    # first waits, and by a dead worker until its replacement does.
    running: bool = True
    thread: Optional[threading.Thread] = None

    def __post_init__(self) -> None:
        self.space = threading.Condition(self.lock)
        self.work = threading.Condition(self.lock)

    def offer(self, item: _WorkItem, timeout: Optional[float] = 0.0) -> str:
        """Queue ``item`` if a slot frees within ``timeout`` seconds (0
        does not wait, None waits forever).  Returns ``""`` once it is
        queued, else why it is not: ``"closed"`` or ``"queue-full"``.

        The append happens under the lock close() clears ``accepting``
        under: either the item lands first and the worker serves it
        before exiting, or close() wins and the item is refused — what
        is queued is always served.  close() also wakes every producer
        parked here, so none waits out a queue that will never admit
        it."""
        with self.lock:
            self.space.wait_for(
                lambda: len(self.items) < self.capacity or not self.accepting, timeout
            )
            if not self.accepting:
                return "closed"
            if len(self.items) >= self.capacity:
                return "queue-full"
            self.items.append(item)
            self.work.notify()
            return ""

    def view(self) -> ShardView:
        """This shard's load at one consistent instant — what policies
        route on and what a rejection reports."""
        with self.lock:
            counters = self.counters
            return ShardView(self.index, counters.pending, counters.completed, "reason", counters.busy_s)


@dataclass
class ShardStats:
    """Point-in-time accounting for one shard.

    ``completed`` counts successful executions only; failures and
    cancellations have their own counters, so
    ``submitted == completed + failed + cancelled + pending``.
    """

    index: int
    submitted: int
    completed: int
    failed: int
    cancelled: int
    pending: int
    retained: int  # successes inside the stats window (makespan basis)
    prepare_calls: int
    cache: CacheStats
    makespan: PipelineResult
    busy_s: float = 0.0  # predicted seconds of unfinished admitted work
    retries: int = 0  # replays dispatched after transient failures
    restarts: int = 0  # worker threads respawned by the supervisor
    crashes: int = 0  # worker deaths observed
    expired: int = 0  # requests failed by their deadline (⊆ failed)
    breaker: str = "closed"  # circuit state: closed | half-open | open


@dataclass
class ServiceStats:
    """Service-wide snapshot from :meth:`ReasonService.stats`."""

    policy: str
    shards: List[ShardStats]
    composition: ShardComposition

    @property
    def submitted(self) -> int:
        return sum(shard.submitted for shard in self.shards)

    @property
    def completed(self) -> int:
        """Successfully executed requests (failures/cancels excluded)."""
        return sum(shard.completed for shard in self.shards)

    @property
    def failed(self) -> int:
        return sum(shard.failed for shard in self.shards)

    @property
    def cancelled(self) -> int:
        return sum(shard.cancelled for shard in self.shards)

    @property
    def retries(self) -> int:
        """Replays dispatched after transient failures, service-wide."""
        return sum(shard.retries for shard in self.shards)

    @property
    def restarts(self) -> int:
        """Worker threads the supervisor respawned, service-wide."""
        return sum(shard.restarts for shard in self.shards)

    @property
    def crashes(self) -> int:
        return sum(shard.crashes for shard in self.shards)

    @property
    def expired(self) -> int:
        """Requests failed by their deadline (a subset of ``failed``)."""
        return sum(shard.expired for shard in self.shards)

    @property
    def cache_hits(self) -> int:
        return sum(shard.cache.hits for shard in self.shards)

    @property
    def cache_misses(self) -> int:
        return sum(shard.cache.misses for shard in self.shards)

    @property
    def warm_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def makespan_s(self) -> float:
        """Modeled service makespan: the slowest shard's pipeline."""
        return self.composition.total_s

    @property
    def retained(self) -> int:
        """Successes inside the stats window — the makespan's basis."""
        return sum(shard.retained for shard in self.shards)

    @property
    def throughput_rps(self) -> float:
        """Modeled successfully-served requests per second of service
        makespan.  Both numerator and makespan come from the retained
        stats window, so the rate stays honest on long-lived services
        whose all-time ``completed`` exceeds the window."""
        return self.composition.throughput_rps(self.retained)


@dataclass
class ServiceBatchResult:
    """Outcome of :meth:`ReasonService.run_batch`.

    ``reports`` are in submission order; ``shard_indices[i]`` says where
    request *i* ran.  Makespan accounting lives in ``composition`` (one
    :class:`ShardComposition`); the ``total_s`` / ``single_shard_s`` /
    ``serial_s`` / ``speedup`` properties delegate to it.
    """

    reports: List[ExecutionReport]
    shard_indices: List[int]
    composition: ShardComposition
    cache_hits: int
    cache_misses: int

    @property
    def total_s(self) -> float:
        """Sharded service makespan (slowest shard's pipeline)."""
        return self.composition.total_s

    @property
    def single_shard_s(self) -> float:
        """The same workload pipelined through one shard."""
        return self.composition.single_shard_s

    @property
    def serial_s(self) -> float:
        """The fully serialized (no-overlap) ablation."""
        return self.composition.serial_s

    @property
    def speedup(self) -> float:
        """Sharding gain over the one-shard pipelined baseline."""
        return self.composition.speedup

    @property
    def hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def __len__(self) -> int:
        return len(self.reports)



class ReasonService:
    """Sharded, asynchronous front door over N :class:`ReasonSession`\\ s.

    Parameters
    ----------
    shards:
        Number of REASON instances, each with a private session and
        compile cache (an integer of at least 1, numpy's included,
        never a bool or a float).  Every shard runs whatever backend a
        request names (``submit(..., backend=...)``, ``"reason"`` by
        default).
    policy:
        Scheduling policy name (``round-robin`` | ``least-loaded`` |
        ``cache-affinity``) or a :class:`SchedulingPolicy` instance.
    config:
        Architecture configuration shared by every shard (an
        :class:`~repro.core.arch.config.ArchConfig`).
    cache_capacity:
        LRU bound of each shard's compile cache (None = unbounded).
    store:
        Optional shared compile-cache level behind every shard's local
        LRU: an :class:`~repro.api.store.ArtifactStore` instance or a
        spec string (``"shared"`` for one in-process store, or
        ``"disk:<path>"`` for a cross-process
        :class:`~repro.api.store.DiskStore`).  With a store attached,
        a kernel front-end-compiles once *service-wide* instead of
        once per shard — ``cache-affinity`` routing becomes a locality
        optimization rather than the only defense against N× cold
        penalties.
    max_queue:
        Bound on each shard's admission queue — the backpressure knob.
    stats_window:
        How many recent successful requests each shard retains for the
        makespan composition in :meth:`stats` (a positive integer,
        which keeps memory and ``stats()`` cost constant on long-lived
        services).
    cost_model:
        The :class:`~repro.costmodel.CostEstimator` predicting request
        costs at admission (``None``, the default, builds a private
        one; pass a shared or pre-warmed estimator to start routing on
        settled prices from the first request).  Anything else is a
        :class:`TypeError`.
    trace_dir:
        Optional directory for per-request binary event traces
        (:mod:`repro.trace`).  A request submitted with ``trace=True``
        captures its event stream to
        ``trace_dir/<fingerprint>.trace`` — the same content
        fingerprint the compile cache and artifact store address by,
        so a request's trace sits next to its compiled artifact
        (:meth:`trace_path_for` resolves it).  A request that passes
        an explicit path keeps it unchanged; without ``trace_dir``,
        ``trace=True`` captures in memory, as
        :meth:`ReasonSession.run` does.
    metrics:
        Live telemetry (:mod:`repro.metrics`), always on: a shared
        :class:`~repro.metrics.registry.MetricsRegistry` to aggregate
        several services, or ``None`` / ``True`` for a private one.
        Every admitted request settles into a
        :class:`~repro.metrics.spans.RequestSpan` (queue-wait /
        compile / execute / end-to-end wall times plus
        predicted-vs-actual residuals), the shards' sessions register
        their cache and compile instruments labeled ``shard=<i>``, and
        the cost model exports a static-model residual histogram.
        :meth:`metrics` returns the registry, :meth:`spans` the most
        recent :data:`SPAN_LOG_SIZE` span records.
    retry:
        :class:`~repro.api.resilience.RetryPolicy` for transient
        failures (injected faults, worker crashes): bounded replays,
        each requeued at once to the least-loaded other admitting
        shard when there is one.  Retried successes are bit-identical
        to first-try successes (execution is deterministic).  ``None``
        disables retries; the default allows 3 attempts.
        Request-inherent errors (bad kernel, unknown backend) are
        never retried.
    breaker:
        Zero-argument factory called once per shard for its
        :class:`~repro.api.resilience.CircuitBreaker` (default
        thresholds by default).  Every shard has a breaker, so
        ``None``, ``False`` and ``True`` are a :class:`TypeError`.
        Tripped shards are routed around at admission and by retry
        placement; when *every* breaker is open the service fails open
        (serves anyway) rather than rejecting all traffic.
    faults:
        Optional :class:`repro.faults.FaultPlan` — the deterministic
        chaos schedule the resilience machinery is tested against.
        Injects compile/execute errors, latency, worker crashes, and
        (with ``store=``) store faults and on-disk corruption.  Zero
        overhead when None (the default): one attribute check per
        hook.
    """

    def __init__(
        self,
        shards: int = 2,
        policy: Union[str, SchedulingPolicy] = "round-robin",
        config: ArchConfig = DEFAULT_CONFIG,
        cache_capacity: Optional[int] = None,
        max_queue: int = 128,
        stats_window: int = 65536,
        cost_model: Optional[CostEstimator] = None,
        store: Union[None, str, ArtifactStore] = None,
        trace_dir: Union[None, str, "os.PathLike"] = None,
        metrics: Union[None, bool, MetricsRegistry] = None,
        retry: Optional[RetryPolicy] = RetryPolicy(),
        breaker: Callable[[], CircuitBreaker] = CircuitBreaker,
        faults: Optional["FaultPlan"] = None,  # noqa: F821
    ):
        if isinstance(shards, bool) or not isinstance(shards, Integral) or shards < 1:
            raise ValueError(f"shards must be a shard count (an integer >= 1), not {shards!r}")
        check_count("max_queue", max_queue)
        check_count("stats_window", stats_window)
        if not isinstance(config, ArchConfig):
            raise TypeError(f"config must be an ArchConfig, not {config!r}")
        if cost_model is not None and not isinstance(cost_model, CostEstimator):
            raise TypeError(f"cost_model must be a CostEstimator or None, not {cost_model!r}")
        self.config = config
        self.policy = get_policy(policy)
        self.max_queue = max_queue
        self.cost_model = CostEstimator(config=config) if cost_model is None else cost_model
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy or None, not {type(retry).__name__}"
            )
        self._retry = retry
        if not callable(breaker):
            raise TypeError(
                "every shard has a circuit breaker: breaker must be a zero-argument "
                f"factory returning a CircuitBreaker, not {breaker!r}"
            )
        self._faults = faults
        # One store instance resolved here and handed to every shard:
        # the shard-local LRUs stay private, the shared level is common.
        # Layering: ResilientStore(ChaosStore(real store)) — injected
        # faults strike the real store, the resilient wrapper absorbs
        # them (and real-world store errors) into local-only caching.
        inner_store = make_store(store)
        if inner_store is not None and hasattr(faults, "store_fault"):
            from repro.faults.store import ChaosStore

            inner_store = ChaosStore(inner_store, faults)
        self.store = (
            ResilientStore(inner_store) if inner_store is not None else None
        )
        self.trace_dir = None
        if trace_dir is not None:
            from pathlib import Path

            self.trace_dir = Path(trace_dir)
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        self._metrics = ensure_registry(metrics)
        # Settle queues each span's row on `_settled` (a deque append,
        # no lock); _fold moves the rows into the span log and their
        # legs into per-backend histograms, in batches.
        self._settled: Deque[tuple] = deque()
        self._span_log = SpanLog(SPAN_LOG_SIZE)
        self._fold_lock = threading.Lock()
        self._shards = [
            _Shard(
                index,
                ReasonSession(
                    config=config,
                    cache_capacity=cache_capacity,
                    store=self.store,
                    metrics=self._metrics,
                    metrics_labels={"shard": str(index)},
                    faults=faults,
                ),
                breaker(),
                max_queue,
                deque(maxlen=int(stats_window)),  # a deque's maxlen takes no numpy int
            )
            for index in range(int(shards))
        ]
        self._views = ShardViews(self._shards)
        self._register_metrics()
        self._closed = False
        self._admission_lock = threading.Lock()  # serializes policy.select
        # Admitted-but-unresolved futures, service-wide.  drain() waits
        # on this condition instead of queue.join(): joins hang when a
        # worker dies mid-item (task_done never comes) and don't cover
        # deadline timers or requeued retries — the counter, decremented
        # exactly once per item by whichever actor finishes it, does.
        # The hot path enters the plain lock the condition wraps, which
        # costs no Python-level __enter__ / __exit__.
        self._outstanding_lock = threading.Lock()
        self._drain_cond = threading.Condition(self._outstanding_lock)
        self._outstanding = 0
        self._drainers = 0  # drain() calls waiting: whom a settle wakes
        for shard in self._shards:
            self._start_worker(shard)

    # ------------------------------------------------------------ plumbing

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def trace_path_for(self, fingerprint: str) -> "os.PathLike":
        """Where a ``trace=True`` request with this content fingerprint
        writes (or wrote) its trace under ``trace_dir`` — addressable
        exactly like the artifact store's content keys."""
        if self.trace_dir is None:
            raise ValueError("service was built without trace_dir=")
        from repro.trace.analyze import trace_artifact_path

        return trace_artifact_path(self.trace_dir, fingerprint)

    # ------------------------------------------------------------- metrics

    def metrics(self) -> MetricsRegistry:
        """The live :class:`~repro.metrics.registry.MetricsRegistry`
        behind this service (``service.metrics().snapshot()`` exports
        it; the renderers in :mod:`repro.metrics.render` format it)."""
        return self._metrics

    def spans(self, last: Optional[int] = None) -> List[RequestSpan]:
        """The most recent ``last`` completed request spans (all
        retained by default, at most :data:`SPAN_LOG_SIZE`), oldest
        first."""
        self._fold()
        return self._span_log.snapshot(last)

    def _register_metrics(self) -> None:
        """Service-level instruments and per-shard snapshot callbacks.

        Shard counters (submitted/completed/failed/cancelled, queue
        depth, predicted busy seconds) already exist under the shard
        locks — they are mirrored by callbacks evaluated only at
        snapshot time, so the admission and worker paths pay nothing.
        """
        registry = self._metrics
        # The registry holds the service and its shards weakly: a
        # service keeps its registry, so strong references would make a
        # cycle that outlives close() until a full garbage collection.
        me = weakref.proxy(self)
        # Admission charges `submitted` and a rejection takes it back,
        # so the shards' sum is the admitted count once drained.
        registry.register_callback(
            "reason_service_admitted_total",
            lambda: sum(shard.counters.submitted for shard in me._shards),
            kind="counter",
            help="Requests admitted past the scheduling policy.",
        )
        # Keyed by _reject's reason; a full queue is labelled "overloaded".
        self._rejected = {
            reason: registry.counter(
                "reason_service_rejected_total",
                "Requests rejected at admission, by reason.",
                reason=label,
            )
            for reason, label in (
                ("closed", "closed"),
                ("queue-full", "overloaded"),
            )
        }
        for shard in map(weakref.proxy, self._shards):
            series = [
                (f"reason_shard_{counter.name}_total", "counter", counter.metadata["help"],
                 lambda s=shard, n=counter.name: getattr(s.counters, n))
                for counter in fields(_ShardCounters)
                if "help" in counter.metadata
            ]  # fmt: skip
            series += [
                ("reason_shard_queue_depth", "gauge",
                 "Admitted but not yet terminal (queued or executing).",
                 lambda s=shard: s.view().pending),
                ("reason_shard_busy_seconds", "gauge",
                 "Predicted seconds of admitted-but-unfinished work.",
                 lambda s=shard: s.counters.busy_s),
                ("reason_shard_breaker_state", "gauge",
                 "Circuit state: 0=closed, 1=half-open, 2=open.",
                 lambda s=shard: s.breaker.state_code),
                ("reason_shard_breaker_trips_total", "counter",
                 "Times this shard's breaker tripped open.",
                 lambda s=shard: s.breaker.trips),
            ]  # fmt: skip
            for name, kind, help_text, fn in series:
                registry.register_callback(
                    name, fn, kind=kind, help=help_text, shard=str(shard.index)
                )
        if self.store is not None:
            self.store.attach_metrics(registry)
        if self._faults is not None and hasattr(self._faults, "counts"):
            for site in self._faults.counts():
                registry.register_callback(
                    "reason_faults_injected_total",
                    lambda p=self._faults, s=site: p.injected(s),
                    kind="counter",
                    help="Faults injected by the active plan, by site.",
                    site=site,
                )
        self.cost_model.attach_metrics(registry)
        registry.register_fold(self._fold)

    def _fold(self) -> None:
        """Move the spans settled since the last fold into the span log,
        and bin each leg of the successes into its per-backend histogram
        with one ``observe_many`` (failures and cancellations are logged
        but kept out of the latency distributions).  Runs on every read
        (:meth:`spans`, a registry snapshot) and once per
        :data:`SPAN_LOG_SIZE` settles; under one lock, so a read never
        sees a batch half folded."""
        with self._fold_lock:
            settled = self._settled
            batch = [settled.popleft() for _ in range(len(settled))]
            self._span_log.extend(batch)
            for backend, legs in leg_columns(batch).items():
                for leg, name, help_text, buckets in _SPAN_HISTOGRAMS:
                    histogram = self._metrics.histogram(name, help_text, buckets, backend=backend)
                    histogram.observe_many(legs[leg])

    def __enter__(self) -> "ReasonService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------- admission

    def submit(
        self,
        kernel: object,
        backend: Optional[str] = None,
        queries: int = 1,
        neural_s: float = 0.0,
        timeout: Optional[float] = None,
        deadline_s: Union[None, float, str] = None,
        **option_kwargs,
    ) -> ReasonFuture:
        """Admit one request; returns a future without waiting for a
        queued request to run.

        ``backend=None`` (the default) runs the request on the REASON
        model; naming another registered backend runs it there, on
        whichever shard serves it.  The policy picks the shard; if that
        shard's bounded queue is full, the call blocks until space
        frees (backpressure).  ``timeout`` caps the wait — on expiry the
        request is rejected with :class:`ServiceOverloaded` and no
        state changes.

        A warm hit on an idle shard — the kernel in that shard's local
        cache, its queue empty, its worker waiting and no fault plan
        armed — runs on the calling thread instead, and settles before
        ``submit`` returns: the future is already done, and its
        done-callbacks run on the caller's thread.

        ``deadline_s`` gives the request a wall-clock budget in seconds,
        or a named class from :data:`~repro.api.resilience.DEADLINE_CLASSES`
        (``"interactive"`` | ``"standard"`` | ``"batch"``), measured
        from admission on the clock the request's span starts on.
        Admission does not read it: a request past its budget while
        still queued or executing resolves with
        :class:`~repro.api.resilience.DeadlineExceeded`.
        """
        options = RunOptions(**option_kwargs) if option_kwargs else DEFAULT_OPTIONS
        return self._submit(
            kernel, options, backend, queries, neural_time(neural_s), timeout, deadline_s
        )

    def submit_batch(
        self,
        kernels: Sequence[object],
        backend: Optional[str] = None,
        queries: int = 1,
        neural_s: Union[float, Sequence[float]] = 0.0,
        timeout: Optional[float] = None,
        deadline_s: Union[None, float, str] = None,
        **option_kwargs,
    ) -> List[ReasonFuture]:
        """Admit many requests (options parsed once); one future each.

        All-or-nothing on rejection: if a mid-batch submit fails (e.g.
        :class:`ServiceOverloaded` under backpressure), the futures
        already admitted are cancelled before the exception propagates,
        so no orphaned work keeps burning shard time without a handle.
        Requests a worker already started cannot be cancelled and will
        run to completion, and a request that settled inline (a warm
        hit on an idle shard, see :meth:`submit`) has already run.
        """
        kernels = list(kernels)
        neural_times = per_kernel_neural_s(len(kernels), neural_s)
        options = RunOptions(**option_kwargs) if option_kwargs else DEFAULT_OPTIONS
        futures = []
        try:
            for kernel, neural_time in zip(kernels, neural_times):
                futures.append(self._submit(
                    kernel, options, backend, queries, neural_time, timeout, deadline_s
                ))  # fmt: skip
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return futures

    def _submit(
        self,
        kernel: object,
        options: RunOptions,
        backend: Optional[str],
        queries: int,
        neural_s: float,
        timeout: Optional[float],
        deadline_s: Union[None, float, str],
    ) -> ReasonFuture:
        if self._closed:
            self._reject("closed")
        check_count("queries", queries)
        deadline_s = resolve_deadline(deadline_s)
        adapter = adapter_for(kernel)
        fingerprint = adapter.fingerprint(kernel, options, self.config)
        # trace=True on a service with a trace_dir resolves to a
        # content-addressed file next to the artifact store's keys
        # (tracing never enters the fingerprint, so this stays a cache
        # hit for the untraced twin).  An explicit path passes through
        # untouched.
        if options.trace is True and self.trace_dir is not None:
            options = replace(options, trace=str(self.trace_path_for(fingerprint)))
        # The substrate is the request's alone, so it is priced once.
        resolved = "reason" if backend is None else backend
        prediction = self.cost_model.predict(fingerprint, resolved, queries, adapter.kind)
        request = Request(
            kernel, options, adapter.kind, fingerprint, backend, queries, neural_s,
            {resolved: prediction}, deadline_s,
        )  # fmt: skip
        with self._admission_lock:
            index = self.policy.select(request, self._views)
            if not 0 <= index < len(self._shards):
                raise IndexError(
                    f"policy {self.policy.name!r} chose shard {index} "
                    f"of {len(self._shards)}"
                )
            shard = self._shards[index]
            admitted = shard.breaker.admits()
            if not admitted:
                # Route around a tripped shard.  Fails open: when every
                # shard is tripped the policy's choice stands — serving
                # degraded beats rejecting all traffic.
                alternative = self._alternative_to(shard)
                admitted, shard = alternative is not None, alternative or shard
            future = ReasonFuture(adapter.kind, fingerprint, shard.index, neural_s)
            item = _WorkItem(request, resolved, future, shard, prediction.seconds)
            # Charge the placement while still holding the admission
            # lock: the next policy.select must see this request in the
            # shard's pending count and predicted busy time, or
            # concurrent producers would all pick the same "idle"
            # shard.  A rejection below takes the charge back.  The same
            # section takes the inline claim (see _run_inline) on an
            # admitting, accepting shard with nothing queued or running
            # and no fault plan armed.
            with shard.lock:
                shard.counters.submitted += 1
                shard.counters.busy_s += prediction.seconds
                claimed = admitted and shard.accepting and self._faults is None
                claimed = claimed and not (shard.running or shard.items)
                shard.running = shard.running or claimed
        # From here the item counts for drain(); _settle is the only
        # code that takes it off again, served or rejected.
        with self._outstanding_lock:
            self._outstanding += 1
        # A warm hit on an idle shard settles here; the rest queue, and
        # backpressure may block.
        refused = "" if claimed and self._run_inline(shard, item) else shard.offer(item, timeout)
        if refused:
            self._reject(
                refused,
                item,
                shard.view(),
                f"shard {shard.index} admission queue full "
                f"({self.max_queue} requests) after {timeout}s",
            )
        if deadline_s is not None:
            # Armed only now that the item is committed to a queue; the
            # timer covers queue wait, execution and every retry's
            # requeue alike.  The worker (or an inline run) may already
            # have settled the item, in which case there is nothing to
            # watch.
            with item.lock:
                if item.state is not _SETTLED:
                    item.timer = threading.Timer(
                        max(item.admitted_at + deadline_s - time.perf_counter(), 0.0),
                        self._expire,
                        args=(item,),
                    )
                    item.timer.daemon = True
                    item.timer.start()
        return future

    def _run_inline(self, shard: _Shard, item: _WorkItem) -> bool:
        """Serve a warm hit on an idle shard on the submitting thread,
        through the worker's own execute -> settle path; False leaves
        the item to be queued.  The caller holds the shard's ``running``
        flag, which admission's charge section took with no fault plan
        armed, the shard's breaker admitting, the shard accepting, its
        queue empty and nobody running on it — so it never overtakes a
        queued request.  It runs only on a hit in the shard's local LRU,
        checked now that the flag is held, when no other run can evict.
        A hit is claimed here without the future's own transition: the
        future has not left this thread, so nobody can cancel it, and it
        goes from pending straight to done."""
        hit = item.request.fingerprint in shard.session._cache
        try:
            if hit:
                item.state, item.started_at = _RUNNING, time.perf_counter()
                self._execute(shard, item)
        except BaseException as exc:
            self._settle(item, "error", exc)  # never strand the future
            raise
        finally:
            # The holder drops the flag without the lock; whoever
            # queued or closed since then is seen below and gets its
            # wake-up, and anyone later finds the flag already clear.
            shard.running = False
            if shard.items or not shard.accepting:  # the worker waits for the flag
                with shard.lock:
                    shard.work.notify()
        return hit

    def _reject(
        self,
        reason: str,
        item: Optional[_WorkItem] = None,
        view: Optional[ShardView] = None,
        detail: str = "",
    ) -> None:
        """The one rejection point.  ``reason`` is ``closed`` or
        ``queue-full``: take back the admission charge of a request
        that got as far as having one, count the rejection, and raise —
        :class:`ServiceClosed`, or :class:`ServiceOverloaded` carrying
        the shard's load (``view``) at rejection time."""
        if item is not None:
            self._settle(item, "rejected")
        self._rejected[reason].inc()
        if reason == "closed":
            raise ServiceClosed("cannot submit to a closed ReasonService")
        raise ServiceOverloaded(
            detail,
            shard_index=view.index,
            queue_depth=view.pending,
            backlog_s=view.busy_s,
        )

    def _alternative_to(self, shard: _Shard) -> Optional[_Shard]:
        """The least-loaded admitting shard other than ``shard`` (None
        when there is none): where admission sends a request whose
        chosen shard is tripped, and where a rerouted retry goes."""
        views = [
            other.view()
            for other in self._shards
            if other is not shard and other.breaker.admits()
        ]
        best = min(views, key=lambda v: (v.busy_s, v.pending, v.index), default=None)
        return None if best is None else self._shards[best.index]

    # ------------------------------------------------------ request lifecycle
    #
    # QUEUED -> RUNNING -> SETTLED.  A shard's worker claims a queued
    # item (QUEUED -> RUNNING), or the submitting thread claims a warm
    # hit on an idle shard; a retry puts a RUNNING item back on a queue,
    # and _settle — reached from whoever claimed it (success, failure, a
    # cancelled claim, a shed retry), the deadline timer, the crash
    # supervisor and admission's rejections — is the only way out.

    def _settle(self, item: _WorkItem, outcome: str, payload=None) -> None:
        """The single terminal transition of a request.

        ``outcome`` is ``ok`` (``payload``: the report), ``error`` or
        ``deadline`` (``payload``: the exception), ``cancelled`` (the
        caller cancelled the future while the item was queued) or
        ``rejected`` (admission gave up before the item reached a
        queue; the caller gets the exception raised, not a future).
        Whoever flips the item SETTLED under its lock cancels its
        timer, moves the shard counters, repays the predicted busy
        time, queues the span, resolves the future and takes the item
        off the drain() count; every later caller finds it settled and
        backs off.  The span is queued before the future resolves, so a
        caller woken by the result finds it in :meth:`spans`, and
        when drain() returns every counter is final.
        """
        with item.lock:
            if item.state is _SETTLED:
                return
            item.state = _SETTLED
            if item.timer is not None:
                item.timer.cancel()
            shard = item.shard
            with shard.lock:
                counters = shard.counters
                if outcome == "ok":
                    counters.completed += 1
                    shard.stage_times.append((item.request.neural_s, payload.seconds))
                else:
                    for name, step in _OUTCOME_COUNTERS[outcome].items():
                        setattr(counters, name, getattr(counters, name) + step)
                counters.repay(item.predicted_s)
            if outcome == "ok" and item.attempts > 1:
                # Observable but outside the report's identity: a retried
                # success must stay bit-identical to a first-try success.
                payload.extras.setdefault("attempts", item.attempts)
            if outcome != "rejected":
                try:
                    self._settled.append(self._span_row(item, outcome, payload))
                except Exception:
                    pass  # telemetry loses a span, never a request
            try:
                if outcome == "ok":
                    item.future.set_result(payload)
                elif outcome in ("error", "deadline"):
                    item.future.set_exception(payload)
            except InvalidStateError:
                pass  # cancelled by the caller in the same instant; counters stand
        if outcome == "ok":
            # Price a (kernel, backend) from its first settled report
            # (and the compiled artifact from the shard's cache,
            # stats-neutrally); a priced pair costs one dict probe.
            # After set_result, and shielded: a defective cost model
            # (user-supplied estimator) must never hang a caller or
            # kill the calling worker thread — it only loses its price.
            try:
                fingerprint = item.request.fingerprint
                if not self.cost_model.priced(fingerprint, item.backend):
                    self.cost_model.observe(
                        fingerprint,
                        kind=item.request.kind,
                        backend=item.backend,
                        report=payload,
                        artifact=shard.session.artifact_for(fingerprint),
                    )
            except Exception:
                pass
        with self._outstanding_lock:
            self._outstanding -= 1
            if self._outstanding <= 0 and self._drainers:
                self._drain_cond.notify_all()
        if len(self._settled) >= SPAN_LOG_SIZE:
            self._fold()

    def _span_row(self, item: _WorkItem, outcome: str, payload) -> tuple:
        """The settled request's record as a plain tuple in
        :class:`RequestSpan`'s field order: a named tuple's constructor
        would cost as much again, so the span log makes spans only of
        the rows it is read for.  Only a success has a report; every
        other outcome reads the blank one's zeros."""
        request = item.request
        report = payload if outcome == "ok" else _NO_REPORT
        predicted = request.predicted[item.backend]
        finished_at = time.perf_counter()
        return (
            outcome, request.fingerprint, request.kind, item.backend, item.shard.index,
            request.queries, item.predicted_s, predicted.energy_j,
            f"{type(payload).__name__}: {payload}" if outcome in ("error", "deadline") else "",
            item.attempts, report.cache_hit, report.executed,
            report.seconds, report.energy_j,
            item.admitted_at, item.started_at, finished_at, report.compile_s, report.execute_s,
            # Admission on the wall clock: a label for cross-process
            # correlation, never an input to anything replayed.
            time.time() - (finished_at - item.admitted_at),  # noqa: RPR002
            predicted.source,
        )  # fmt: skip

    def _expire(self, item: _WorkItem) -> None:
        """The request's budget ran out — while queued or executing.
        Called by its armed timer, and by a worker that dequeues it
        late."""
        self._settle(
            item,
            "deadline",
            DeadlineExceeded(
                f"request {item.request.fingerprint[:12]} missed its "
                f"{item.request.deadline_s}s deadline on shard "
                f"{item.shard.index} (attempt {item.attempts})",
                deadline_s=item.request.deadline_s,
            ),
        )

    # -------------------------------------------------------------- workers

    def _start_worker(self, shard: _Shard) -> None:
        restarts = shard.counters.restarts
        shard.thread = threading.Thread(
            target=self._work,
            args=(shard,),
            name=f"reason-shard-{shard.index}" + (f"-r{restarts}" if restarts else ""),
            daemon=True,
        )
        shard.thread.start()

    def _work(self, shard: _Shard) -> None:
        """A shard's worker thread: serve the queue in order until
        close() has cleared ``accepting`` and the queue is empty.

        The worker is *supervised*: any exception that escapes
        per-request handling (a
        :class:`~repro.api.resilience.WorkerCrash` from a fault plan, or
        a genuine bug) is treated as the thread dying — its last act is
        :meth:`_worker_died`, which respawns the worker and retries or
        fails the stranded request, so an admitted future resolves even
        when its worker does not survive.
        """
        while True:
            with shard.lock:
                shard.running = False
                # Nor exit while a caller runs inline: close() joins this
                # thread, so it waits for that run too.
                shard.work.wait_for(
                    lambda: (shard.items or not shard.accepting) and not shard.running
                )
                if not shard.items:
                    return
                item = shard.items.popleft()
                shard.running = True
                shard.space.notify()
            try:
                self._execute(shard, item)
            except BaseException as crash:
                self._worker_died(shard, item, crash)
                return

    def _claim(self, item: _WorkItem) -> bool:
        """Move a dequeued item QUEUED -> RUNNING; False = nothing left
        to do.  A retried item made that transition (and took its
        ``started_at`` stamp) on its first attempt, and an inline hit
        in :meth:`_run_inline`; a queued one may have been cancelled by
        the caller or settled by its deadline timer."""
        with item.lock:
            if item.state is _QUEUED and item.future.set_running_or_notify_cancel():
                item.state = _RUNNING
                item.started_at = time.perf_counter()
            state = item.state
        if state is _QUEUED:
            self._settle(item, "cancelled")
        return state is _RUNNING

    def _execute(self, shard: _Shard, item: _WorkItem) -> None:
        deadline_s = item.request.deadline_s
        if deadline_s is not None and time.perf_counter() - item.admitted_at >= deadline_s:
            # Expired while queued: shed before spending execution on a
            # request whose caller has already timed out.
            self._expire(item)
            return
        if not self._claim(item):
            return
        if self._faults is not None:
            self._faults.crash_fault(shard.index)  # may raise WorkerCrash
        try:
            report = shard.session.run_prepared(
                item.request.kernel,
                item.request.options,
                backend=item.backend,
                queries=item.request.queries,
                fingerprint=item.request.fingerprint,
            )
        except WorkerCrash:
            raise  # worker death, not request failure — see _work
        except BaseException as exc:
            if isinstance(exc, (TransientError, ShardCrashed)):
                # Only infrastructure faults feed the breaker: a storm
                # of user errors (bad kernels, unknown backends) must
                # not take a healthy shard out of rotation.
                shard.breaker.record_failure()
            self._retry_or_fail(item, exc)
        else:
            shard.breaker.record_success()
            self._settle(item, "ok", report)

    def _worker_died(
        self, shard: _Shard, item: _WorkItem, crash: BaseException
    ) -> None:
        """A dying worker's last act: respawn the worker first (so a
        same-shard requeue has someone to serve it), then retry or fail
        the request it died holding.  Requests still queued behind it
        are untouched — the replacement thread drains the same queue."""
        error = ShardCrashed(
            f"shard {shard.index} worker crashed while executing request "
            f"{item.request.fingerprint[:12]} (attempt {item.attempts})",
            shard_index=shard.index,
        )
        error.__cause__ = crash
        try:
            with shard.lock:
                shard.counters.crashes += 1
                shard.counters.restarts += 1
            shard.breaker.record_failure()
            self._start_worker(shard)
            self._retry_or_fail(item, error)
        except BaseException:
            # Supervision must never strand the future: fail it
            # directly as a last resort.
            try:
                self._settle(item, "error", error)
            except BaseException:
                pass

    # --------------------------------------------------------------- retry

    def _retry_or_fail(self, item: _WorkItem, error: BaseException) -> None:
        """Decide a failed attempt's fate: replay it under the retry
        policy, or resolve the future with the (possibly wrapped) error.

        A replay is requeued at once, on the thread whose attempt
        failed — a worker, or a dying worker in :meth:`_worker_died` —
        to the least-loaded other admitting shard, else the same one.
        That thread may never block on admission: a worker waiting on
        its own shard's full queue is a self-deadlock.  So a retry that
        cannot land at once — no free slot, or close() already cleared
        ``accepting`` — fails fast (``offer`` without a timeout)
        instead of hanging the future.
        """
        policy = self._retry
        if policy is None or not policy.retryable(error):
            self._settle(item, "error", error)
            return
        if item.attempts < policy.max_attempts and not self._closed:
            with item.lock:
                if item.state is _SETTLED:
                    return  # the deadline fired mid-attempt: nothing to replay
                source = item.shard
                target = self._alternative_to(source) or source
                # The admission accounting moves with the request, and
                # so does the future's placement (the batch composer
                # reads shard_index to attribute stage times).
                with source.lock:
                    source.counters.retries += 1
                    if target is not source:
                        source.counters.submitted -= 1
                        source.counters.repay(item.predicted_s)
                if target is not source:
                    with target.lock:
                        target.counters.submitted += 1
                        target.counters.busy_s += item.predicted_s
                    item.shard = target
                    item.future.shard_index = target.index
                item.attempts += 1
                refused = target.offer(item)
            if not refused:
                return
            message = (
                f"retry of request {item.request.fingerprint[:12]} shed by "
                f"shard {target.index} ({refused}, attempt {item.attempts})"
            )
        else:
            # A transient error the policy can no longer replay.
            message = (
                f"request {item.request.fingerprint[:12]} failed after "
                f"{item.attempts} attempt(s): {type(error).__name__}: {error}"
            )
        # Surface the budget, chain the real cause.
        wrapped = RetriesExhausted(message, attempts=item.attempts)
        wrapped.__cause__ = error
        self._settle(item, "error", wrapped)

    # ----------------------------------------------------------- execution

    async def run_batch(
        self, kernels: Sequence[object], **kwargs
    ) -> ServiceBatchResult:
        """Admit a batch (:meth:`submit_batch`'s arguments) and await
        every report (asyncio coroutine).

        The returned :class:`ServiceBatchResult` composes each shard's
        completed stage times through its own two-level pipeline and
        reports the sharded makespan next to the one-shard baseline.

        Admission runs in a worker thread: when backpressure makes
        ``submit`` block on a full shard queue, the event loop keeps
        running other tasks instead of stalling.
        """
        futures = await asyncio.to_thread(self.submit_batch, kernels, **kwargs)
        reports = list(
            await asyncio.gather(*(asyncio.wrap_future(f) for f in futures))
        )
        return self._compose_batch(futures, reports)

    def _compose_batch(
        self, futures: Sequence[ReasonFuture], reports: Sequence[ExecutionReport]
    ) -> ServiceBatchResult:
        shard_tasks: List[List] = [[] for _ in self._shards]
        for future, report in zip(futures, reports):
            shard_tasks[future.shard_index].append((future.neural_s, report.seconds))
        composition = compose_shard_makespans(shard_tasks)
        cache_hits = sum(1 for report in reports if report.cache_hit)
        return ServiceBatchResult(
            reports=list(reports),
            shard_indices=[future.shard_index for future in futures],
            composition=composition,
            cache_hits=cache_hits,
            cache_misses=len(reports) - cache_hits,
        )

    # ----------------------------------------------------------- lifecycle

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every admitted request has resolved.

        Covers queued work, in-flight executions, requeued retries and
        armed deadline timers: the outstanding counter reaches zero
        only when every admitted future is terminal, so after drain()
        the stats identity closes with ``pending == 0``.  Unlike a
        queue join, this survives worker crashes — the supervisor's
        terminal bookkeeping decrements the same counter the happy
        path does.  Raises :class:`TimeoutError` if requests are still
        unresolved after ``timeout`` seconds (None waits forever).
        """
        with self._drain_cond:
            self._drainers += 1
            try:
                drained = self._drain_cond.wait_for(lambda: self._outstanding == 0, timeout)
            finally:
                self._drainers -= 1
            if not drained:
                raise TimeoutError(
                    f"{self._outstanding} admitted request(s) still "
                    f"unresolved after {timeout}s"
                )

    def stats(self) -> ServiceStats:
        """Snapshot per-shard counters and the composed makespans.

        Makespans are composed over each shard's retained stage-time
        history (the most recent ``stats_window`` successes), so on a
        long-lived service they describe recent traffic, not all
        traffic ever served.
        """
        snapshots = []
        shard_tasks = []
        for shard in self._shards:
            with shard.lock:
                snapshots.append(replace(shard.counters))
                shard_tasks.append(list(shard.stage_times))
        # A fresh service composes to one zero pipeline per shard.
        composition = compose_shard_makespans(shard_tasks)
        stats = [
            ShardStats(
                index=shard.index,
                # From the same snapshot as the other counters, so the
                # accounting identity holds within one report.
                pending=counters.pending,
                retained=len(times),
                prepare_calls=shard.session.prepare_calls,
                cache=shard.session.cache_stats,
                makespan=makespan,
                breaker=shard.breaker.state,
                **asdict(counters),
            )
            for shard, counters, times, makespan in zip(
                self._shards, snapshots, shard_tasks, composition.per_shard
            )
        ]
        return ServiceStats(
            policy=self.policy.name, shards=stats, composition=composition
        )

    def close(self, wait: bool = True) -> None:
        """Stop admission, let workers finish queued work, join them,
        and fold what has settled, so a shared registry holds it after
        the service is gone."""
        with self._admission_lock:
            if self._closed:
                return
            self._closed = True
        for shard in self._shards:
            # Clearing `accepting` under the shard lock fences admission
            # and retry dispatch alike: what was appended before is
            # served, nothing lands after.  The flag needs no queue
            # slot, so shutdown never waits on a full queue; the wake-up
            # lets an idle worker exit and parked producers see it.
            with shard.lock:
                shard.accepting = False
                shard.work.notify_all()
                shard.space.notify_all()
        if wait:
            for shard in self._shards:
                # A crash racing shutdown may respawn the worker (the
                # replacement drains the rest of the queue); join
                # whichever thread currently serves the shard until no
                # replacement appears.
                while True:
                    thread = shard.thread
                    thread.join()
                    if shard.thread is thread:
                        break
        self._fold()
