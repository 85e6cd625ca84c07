"""repro: reproduction of "REASON: Accelerating Probabilistic Logical
Reasoning for Scalable Neuro-Symbolic Intelligence" (HPCA 2026).

Package map:

* :mod:`repro.logic` — CNF/SAT (DPLL, CDCL) and FOL
  (unification, clausification, resolution, forward chaining);
* :mod:`repro.pc` — probabilistic circuits (inference, flows, learning);
* :mod:`repro.hmm` — hidden Markov models (forward-backward,
  Baum-Welch, DFA-constrained decoding);
* :mod:`repro.core` — the paper's contribution: unified DAG
  representation with adaptive pruning and two-input regularization,
  the DAG→VLIW compiler, the tree-PE accelerator model, and the
  GPU-integration system layer;
* :mod:`repro.workloads` — the six neuro-symbolic evaluation workloads
  over synthetic datasets;
* :mod:`repro.baselines` — device cost models, roofline, and kernel
  characterization;
* :mod:`repro.profiling` — workload characterization (runtime splits,
  sparsity);
* :mod:`repro.api` — the public front door: :class:`ReasonSession`
  over pluggable kernel adapters and execution backends, with compile
  caching and pipelined batch execution, and :class:`ReasonService`
  for async, sharded serving over many sessions;
* :mod:`repro.costmodel` — predicted per-request latency/energy per
  backend class from compile artifacts, each (kernel, backend) priced
  from its first execution report; charges shard busy time and feeds
  the request spans' residuals;
* :mod:`repro.trace` — opt-in binary event traces of the accelerator's
  modeled execution (versioned varint/delta wire format, streaming
  reader, offline analysis tools and trace-to-trace regression
  diffing);
* :mod:`repro.metrics` — live telemetry over the serving path:
  counters/gauges/batch-folded log-bucket histograms in a
  :class:`MetricsRegistry`, per-request :class:`RequestSpan` records
  (queue-wait/compile/execute/e2e plus predicted-vs-actual residuals),
  Prometheus-text/JSON exposition, and snapshot diffing — always on,
  with no lock per request;
* :mod:`repro.analysis` — static program verification and project
  idiom linting: :func:`verify_program` abstractly interprets compiled
  VLIW streams against six invariant families (def-before-use
  residency, spill/reload pairing, bank capacity, issue order, cycle
  monotonicity, stats consistency) without executing; the opt-in
  gate (``ReasonSession(verify=True)`` or a per-request
  ``verify=True``) runs inside the compile-once factory, so a rejected
  program reaches no cache level or store, and checks a CNF kernel's
  SAT model against every clause it was given;
* :mod:`repro.faults` — deterministic seeded fault injection
  (:class:`FaultPlan`: compile/execute errors, latency, worker
  crashes, store failures and on-disk corruption) exercising the
  serving layer's resilience — supervised shard workers, bounded
  retries, per-shard circuit breakers, and per-request deadlines
  (:mod:`repro.api.resilience`).

``python -m repro`` is the one command line over trace, metrics and
analysis: ``record`` a traced, metered bundle from a service, then
analyze, diff and verify (:mod:`repro.__main__`).

Quickstart::

    from repro import ReasonSession, ReasonService

    session = ReasonSession()
    report = session.run(kernel)  # CNF | Circuit | HMM | Dag

    with ReasonService(shards=4, policy="cache-affinity") as service:
        future = service.submit(kernel, queries=8)
        report = future.result()
"""

__version__ = "1.41.0"

from repro.api import (  # noqa: E402  (public re-exports)
    ArtifactStore,
    Backend,
    BatchResult,
    CircuitBreaker,
    CompiledArtifact,
    DeadlineExceeded,
    DiskStore,
    ExecutionReport,
    ReasonFuture,
    ReasonService,
    ReasonSession,
    RetriesExhausted,
    RetryPolicy,
    RunOptions,
    ServiceBatchResult,
    ShardCrashed,
    SharedStore,
    list_backends,
    list_policies,
    register_adapter,
    register_backend,
    register_policy,
)

# After repro.api: the fault plan builds on the resilience taxonomy.
from repro.faults import FaultInjected, FaultPlan  # noqa: E402
from repro.costmodel import (  # noqa: E402  (public re-exports)
    CostEstimator,
    CostFeatures,
    CostPrediction,
)
from repro.metrics import (  # noqa: E402  (public re-exports)
    MetricsRegistry,
    RequestSpan,
    SpanLog,
    diff_snapshots,
    render_prometheus,
)
from repro.trace import (  # noqa: E402  (public re-exports)
    TraceReader,
    TraceWriter,
    read_trace,
)

__all__ = [
    "__version__",
    "ReasonSession",
    "ReasonService",
    "ReasonFuture",
    "Backend",
    "ExecutionReport",
    "BatchResult",
    "ServiceBatchResult",
    "CompiledArtifact",
    "ArtifactStore",
    "SharedStore",
    "DiskStore",
    "RunOptions",
    "CostEstimator",
    "CostFeatures",
    "CostPrediction",
    "MetricsRegistry",
    "RequestSpan",
    "SpanLog",
    "diff_snapshots",
    "render_prometheus",
    "TraceReader",
    "TraceWriter",
    "read_trace",
    "RetryPolicy",
    "CircuitBreaker",
    "DeadlineExceeded",
    "ShardCrashed",
    "RetriesExhausted",
    "FaultPlan",
    "FaultInjected",
    "list_backends",
    "list_policies",
    "register_adapter",
    "register_backend",
    "register_policy",
]
