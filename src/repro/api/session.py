"""`ReasonSession`: the one front door to the REASON stack.

One object owns the whole flow the paper describes — unify → prune →
regularize → compile → execute — behind two calls::

    from repro import ReasonSession

    session = ReasonSession()
    report = session.run(kernel)                   # any kernel family
    batch = session.run_batch(kernels, queries=8)  # pipelined batch

Kernels dispatch through the adapter registry (CNF, Circuit, HMM, raw
Dag out of the box), execute on any registered backend (``reason``,
``software``, ``gpu``, ``cpu``, ``roofline``), and compiled artifacts
are cached by content hash: structurally identical requests pay the
offline front end — and the accelerator run itself — once and are
reported from the cache thereafter.

For concurrent, sharded serving on top of many sessions, see
:class:`repro.api.service.ReasonService`.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.api.adapters import (
    DEFAULT_OPTIONS,
    RunOptions,
    adapter_for,
    per_kernel_neural_s,
)
from repro.api.backends import _BACKENDS, get_backend
from repro.api.cache import CacheStats, CompileCache
from repro.api.store import ArtifactStore
from repro.api.types import BatchResult, CompiledArtifact, ExecutionReport, check_count
from repro.core.arch.config import ArchConfig, DEFAULT_CONFIG
from repro.core.system.pipeline import TwoLevelPipeline
from repro.metrics.registry import Histogram, MetricsRegistry, ensure_registry


class ReasonSession:
    """A stateful handle over the accelerator stack.

    Parameters
    ----------
    config:
        Architecture configuration shared by every request (an
        :class:`~repro.core.arch.config.ArchConfig`).
    cache_capacity:
        Optional LRU bound on cached artifacts (None = unbounded).
    store:
        Optional shared level behind the local LRU: an
        :class:`~repro.api.store.ArtifactStore` instance or a spec
        string (``"shared"`` / ``"disk:<path>"``).  Sessions handed
        the same store share compiled artifacts — a kernel compiled by
        any of them is a (shared) cache hit for all of them.
    metrics:
        Live telemetry (:mod:`repro.metrics`), always on: a shared
        :class:`~repro.metrics.registry.MetricsRegistry` (how
        :class:`~repro.api.service.ReasonService` aggregates its
        shards), or ``None`` / ``True`` for a private one
        (``session.metrics``).
    metrics_labels:
        Labels stamped on every series this session registers
        (``{"shard": "0"}`` from the service).  Two sessions sharing a
        registry must be distinguished by labels, or registration of
        the second one's callbacks raises.
    verify:
        Statically verify (:mod:`repro.analysis`) every cold compile
        and raise :class:`~repro.analysis.ProgramVerificationError` on
        any error finding.  Off by default; a per-request
        ``run(kernel, verify=...)`` overrides the session setting
        either way.  This is the stack's one verify gate: it runs
        inside the compile-once factory, so an artifact it rejects
        reaches neither the local LRU nor any shared store.  Cold-path
        only — cache hits and the execute path never see it — and
        excluded from the compile fingerprint.
    """

    def __init__(
        self,
        config: ArchConfig = DEFAULT_CONFIG,
        cache_capacity: Optional[int] = None,
        store: Union[None, str, ArtifactStore] = None,
        metrics: Union[None, bool, MetricsRegistry] = None,
        metrics_labels: Optional[Dict[str, str]] = None,
        verify: bool = False,
    ):
        if not isinstance(config, ArchConfig):
            raise TypeError(f"config must be an ArchConfig, not {config!r}")
        if cache_capacity is not None:
            check_count("cache_capacity", cache_capacity)
        self.config = config
        self._cache = CompileCache(capacity=cache_capacity, store=store)
        self._prepare_calls = 0
        self._executions = 0
        # Guards _prepare_calls, _executions and the first write of each
        # _run_seconds entry.
        self._lock = threading.Lock()
        self.metrics = ensure_registry(metrics)
        self._metrics_labels: Dict[str, str] = dict(metrics_labels or {})
        self._verify = verify
        # Per-backend run-seconds histograms, created lazily on first
        # use so only exercised backends appear in the snapshot.
        self._run_seconds: Dict[str, Histogram] = {}
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Register this session's instruments and snapshot callbacks.

        Everything that already has a counter elsewhere (prepare calls,
        executions, cache stats, cache size) is exported via snapshot-time
        callbacks — the hot path pays nothing for them.  The live
        instruments are the compile-seconds histogram, observed once
        per cold compile, and one run-seconds histogram per backend.
        """
        registry, labels = self.metrics, self._metrics_labels
        # Held weakly: the session keeps its registry, so a strong
        # reference would make a cycle that keeps a dropped session and
        # its compile cache alive until a full garbage collection.
        me = weakref.proxy(self)
        self._compile_seconds = registry.histogram(
            "reason_compile_seconds",
            "Offline front-end wall seconds per cold compile.",
            **labels,
        )
        cache = self._cache
        series = [
            ("reason_prepare_calls_total", lambda: me._prepare_calls, "counter",
             "Times the offline front end actually ran."),
            ("reason_executions_total", lambda: me._executions, "counter",
             "Times the accelerator model actually ran."),
            ("reason_cache_artifacts", lambda: len(cache), "gauge",
             "Artifacts currently resident in the local LRU."),
        ]  # fmt: skip
        for field, help_text in (
            ("local_hits", "Compile-cache hits served by the local LRU."),
            ("shared_hits", "Compile-cache hits served by the shared store."),
            ("misses", "Compile-cache misses (cold compiles paid)."),
            ("evictions", "Artifacts evicted from the local LRU."),
            ("promotions", "Store-served artifacts promoted into the LRU."),
        ):
            # Bind the field name now; read the live stats at snapshot time.
            series.append((
                f"reason_cache_{field}_total",
                lambda field=field: getattr(cache.stats, field),
                "counter",
                help_text,
            ))  # fmt: skip
        for name, fn, kind, help_text in series:
            registry.register_callback(name, fn, kind=kind, help=help_text, **labels)

    def _run_histogram(self, backend: str) -> Histogram:
        """The run-seconds histogram of one backend, get-or-create, with
        ``reason_runs_total`` served by its count.  Registered under the
        session lock, so two threads racing the first request on a
        backend register it once."""
        with self._lock:
            histogram = self._run_seconds.get(backend)
            if histogram is None:
                labels = {**self._metrics_labels, "backend": backend}
                histogram = self.metrics.histogram(
                    "reason_run_seconds",
                    "Backend execution wall seconds per request.",
                    **labels,
                )
                self.metrics.register_callback(
                    "reason_runs_total",
                    lambda: histogram.count,
                    kind="counter",
                    help="Requests executed by this session.",
                    **labels,
                )
                self._run_seconds[backend] = histogram
        return histogram

    # ------------------------------------------------------------ plumbing

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of this session's compile cache."""
        return self._cache.stats

    @property
    def prepare_calls(self) -> int:
        """How many times the offline front end actually ran."""
        return self._prepare_calls

    @property
    def executions(self) -> int:
        """How many times the accelerator model actually ran (a warm
        request reuses its artifact's first run instead)."""
        return self._executions

    def artifact_for(self, fingerprint: str) -> Optional[CompiledArtifact]:
        """The cached artifact behind one content-hash fingerprint, or
        None when the kernel was never compiled here.

        Stats-neutral (:meth:`CompileCache.peek`): an answer check
        reads the artifact a request was served from without inflating
        the warm hit rate the session also reports.
        """
        return self._cache.peek(fingerprint)

    # ------------------------------------------------------------- compile

    def compile(self, kernel: object, **option_kwargs) -> CompiledArtifact:
        """Take ``kernel`` through the offline front end, cache-aware.

        Returns the cached artifact on a content-hash hit; otherwise
        runs optimization + compilation (or CDCL solve + trace record
        for logic kernels) and stores the result.
        """
        options = RunOptions(**option_kwargs) if option_kwargs else DEFAULT_OPTIONS
        artifact, _ = self._compile(kernel, options)
        return artifact

    def _compile(
        self, kernel: object, options: RunOptions, key: Optional[str] = None
    ) -> Tuple[CompiledArtifact, bool]:
        """Compile (or fetch) with already-parsed options.

        Returns ``(artifact, cache_hit)`` — the hit flag comes from this
        lookup itself, not from a stats delta, so concurrent callers on
        a shared session can't misattribute each other's hits.  A hit
        may be served by either cache level: the local LRU, or the
        shared store another session (shard, process) compiled into.
        ``key`` accepts a precomputed fingerprint for this (kernel,
        options, config) so serving layers don't hash the kernel twice;
        a warm request then never resolves the kernel's adapter.
        """
        if key is None:
            key = adapter_for(kernel).fingerprint(kernel, options, self.config)
        # A local hit, the warm request's whole lookup, builds no factory.
        artifact = self._cache.get_local(key)
        if artifact is not None:
            return artifact, True
        verify = options.verify if options.verify is not None else self._verify

        def compile_cold() -> CompiledArtifact:
            start = time.perf_counter()
            artifact = adapter_for(kernel).prepare(kernel, options, self.config)
            artifact.compile_s = time.perf_counter() - start
            artifact.key = key
            if verify:
                # Cold path only: hits and the execute path never pay
                # for this, and the lazy import keeps repro.analysis
                # out of sessions that never ask for it.
                from repro.analysis import check_artifact

                check_artifact(artifact, self.config)
            with self._lock:
                self._prepare_calls += 1
            self._compile_seconds.observe(artifact.compile_s)
            return artifact

        # The cache runs the factory at most once per in-flight key —
        # concurrent requests for the same cold kernel (across threads,
        # and across shards when a store is attached) join one compile.
        # The LRU already missed above: it is not probed again.
        return self._cache.get_missing(key, compile_cold)

    # ----------------------------------------------------------------- run

    def run(
        self,
        kernel: object,
        backend: str = "reason",
        queries: int = 1,
        **option_kwargs,
    ) -> ExecutionReport:
        """Compile (or fetch from cache) and execute one kernel.

        ``kernel`` may be a CNF formula, probabilistic circuit, HMM, or
        raw unified Dag — anything with a registered adapter.  Keyword
        options (``optimize``, ``calibration``, ``keep_fraction``,
        ``hmm_observations``) feed the front end and ``verify=``
        overrides the session's verify gate for this request; see
        :class:`repro.api.adapters.RunOptions`.  ``trace=`` opts
        into the binary event trace (:mod:`repro.trace`): pass a path
        to capture the run's event stream to that file (summary in
        ``report.extras['trace']``) or ``True`` to capture in memory
        (``report.extras['trace_data']``, which
        :func:`repro.trace.analyze.timeline` turns into cycle rows).
        Each traced run opens, closes and summarizes a writer of its
        own; any other ``trace`` value is rejected before anything
        compiles.
        """
        options = RunOptions(**option_kwargs) if option_kwargs else DEFAULT_OPTIONS
        return self.run_prepared(kernel, options, backend=backend, queries=queries)

    def run_prepared(
        self,
        kernel: object,
        options: RunOptions,
        backend: str = "reason",
        queries: int = 1,
        fingerprint: Optional[str] = None,
    ) -> ExecutionReport:
        """:meth:`run` with an already-constructed :class:`RunOptions`.

        This is the single compile+execute path: ``run``, ``run_batch``
        and the service shards all funnel through it, so option
        validation happens exactly once per request instead of once per
        entry point.  ``fingerprint`` optionally passes the cache key
        the caller already computed for this (kernel, options) against
        this session's config (the service computes it at admission for
        cache-affinity routing), skipping a second content hash.  Such a
        caller has also checked ``queries``, so it is not checked again.
        """
        if fingerprint is None:
            check_count("queries", queries)
        artifact, cache_hit = self._compile(kernel, options, key=fingerprint)
        # Two clock reads per request whether or not anyone is looking:
        # ~0.1 us against a request of milliseconds, cheaper than keeping
        # an uninstrumented copy of this body in step.
        execute_start = time.perf_counter()
        # The registry read inline; get_backend only to name a missing one.
        report = (_BACKENDS.get(backend) or get_backend(backend)).run(
            artifact, config=self.config, queries=queries, options=options
        )
        report.execute_s = time.perf_counter() - execute_start
        report.cache_hit = cache_hit
        report.compile_s = 0.0 if cache_hit else artifact.compile_s
        if report.executed:
            with self._lock:
                self._executions += 1
        (self._run_seconds.get(backend) or self._run_histogram(backend)).observe(report.execute_s)
        return report

    def run_batch(
        self,
        kernels: Sequence[object],
        backend: str = "reason",
        queries: int = 1,
        neural_s: Union[float, Sequence[float]] = 0.0,
        **option_kwargs,
    ) -> BatchResult:
        """Run many kernels in one call, scheduled through the two-level
        GPU↔REASON pipeline.

        ``neural_s`` gives each task's neural-stage time (scalar
        broadcast or one value per kernel); the batch makespan overlaps
        task N's symbolic stage with task N+1's neural stage exactly as
        :class:`~repro.core.system.pipeline.TwoLevelPipeline` models;
        ``serial_s`` is the same batch without the overlap.
        """
        kernels = list(kernels)
        neural_times = per_kernel_neural_s(len(kernels), neural_s)
        options = RunOptions(**option_kwargs) if option_kwargs else DEFAULT_OPTIONS
        reports = [
            self.run_prepared(kernel, options, backend=backend, queries=queries)
            for kernel in kernels
        ]

        cache_hits = sum(1 for report in reports if report.cache_hit)
        cache_misses = len(reports) - cache_hits
        symbolic_times = [report.seconds for report in reports]
        pipeline = TwoLevelPipeline()
        overlapped = pipeline.run(neural_times, symbolic_times)
        serial = pipeline.run(neural_times, symbolic_times, pipelined=False)
        return BatchResult(
            reports=reports,
            total_s=overlapped.total_s,
            serial_s=serial.total_s,
            neural_s=overlapped.neural_s,
            symbolic_s=overlapped.symbolic_s,
            overlap_saved_s=overlapped.overlap_saved_s,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
        )
