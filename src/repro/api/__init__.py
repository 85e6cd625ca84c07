"""Public API of the REASON reproduction: one session, any kernel, any
backend — and a sharded service when one session isn't enough.

* :class:`ReasonSession` — facade over optimize → compile → execute
  with a content-hash compile cache and pipelined batch execution;
* :class:`ReasonService` — async, sharded serving over N sessions:
  bounded admission queues with backpressure, pluggable scheduling
  policies, futures, and pipeline-composed throughput accounting;
* :mod:`adapters` — the kernel-type registry (CNF, Circuit, HMM, Dag);
* :mod:`backends` — the substrate registry (``reason``, ``software``,
  ``gpu``, ``cpu``, ``roofline``) sharing one :class:`ExecutionReport`;
* :mod:`scheduler` — the placement-policy registry (``round-robin``,
  ``least-loaded``, ``cache-affinity``);
* :mod:`cache` — the thread-safe two-level compile cache (local LRU
  over an optional shared store);
* :mod:`store` — content-addressed artifact stores behind the shared
  cache level: in-process :class:`SharedStore` (cross-shard) and
  pickled-file :class:`DiskStore` (cross-process, atomic writes);
* :mod:`resilience` — the fault-tolerance policies the service runs
  under: :class:`RetryPolicy` (bounded deterministic replays),
  :class:`CircuitBreaker` (per-shard trip switch),
  :class:`ResilientStore` (store trouble degrades to local caching),
  and the deadline plumbing (:func:`resolve_deadline`,
  :class:`DeadlineExceeded`).

A service places and reroutes requests on each shard's pending count;
nothing on the request path prices a request on the modeled clock (a
request's modeled cost is its own report; :mod:`repro.costmodel` is an
offline static pricer).
"""

from repro.api.adapters import (
    KernelAdapter,
    RunOptions,
    adapter_for,
    register_adapter,
)
from repro.api.backends import (
    Backend,
    DeviceBackend,
    ReasonBackend,
    RooflineBackend,
    SoftwareBackend,
    get_backend,
    list_backends,
    register_backend,
)
from repro.api.cache import CacheStats, CompileCache, content_key
from repro.api.futures import ReasonFuture, wait_all
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
from repro.api.store import ArtifactStore, DiskStore, SharedStore, make_store
from repro.api.scheduler import (
    CacheAffinityPolicy,
    LeastLoadedPolicy,
    Request,
    RoundRobinPolicy,
    SchedulingPolicy,
    ShardView,
    get_policy,
    list_policies,
    register_policy,
)
from repro.api.service import (
    ReasonService,
    ServiceBatchResult,
    ServiceClosed,
    ServiceOverloaded,
    ServiceStats,
    ShardStats,
)
from repro.api.session import ReasonSession
from repro.api.types import BatchResult, CompiledArtifact, ExecutionReport

__all__ = [
    "ReasonSession",
    "ReasonService",
    "ReasonFuture",
    "wait_all",
    "Backend",
    "ExecutionReport",
    "BatchResult",
    "ServiceBatchResult",
    "ServiceStats",
    "ShardStats",
    "ServiceClosed",
    "ServiceOverloaded",
    "CompiledArtifact",
    "KernelAdapter",
    "RunOptions",
    "adapter_for",
    "register_adapter",
    "ReasonBackend",
    "SoftwareBackend",
    "DeviceBackend",
    "RooflineBackend",
    "get_backend",
    "list_backends",
    "register_backend",
    "SchedulingPolicy",
    "Request",
    "ShardView",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "CacheAffinityPolicy",
    "get_policy",
    "list_policies",
    "register_policy",
    "CompileCache",
    "CacheStats",
    "content_key",
    "ArtifactStore",
    "SharedStore",
    "DiskStore",
    "make_store",
    "RetryPolicy",
    "CircuitBreaker",
    "ResilientStore",
    "DeadlineExceeded",
    "ShardCrashed",
    "RetriesExhausted",
    "TransientError",
    "WorkerCrash",
    "resolve_deadline",
]
