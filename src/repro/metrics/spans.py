"""Per-request spans: one record per request, admission to completion.

A :class:`RequestSpan` follows a request through the serving path —
admitted → queued → compile → execute → complete — and keeps the wall
times of each leg plus the cost model's *predicted vs. actual*
latency/energy residuals.  Aggregates (the latency histograms the
registry holds) answer "how is the service doing"; spans answer "what
happened to *this* request", which is what SLO debugging needs.

The span is also the :class:`~repro.api.adapters.RunOptions`-level
plumbing: ``session.run(kernel, span=span)`` makes the session fill
the compile/execute legs for a standalone request, and the service
attaches one span per admitted request the same way.  Like ``trace=``,
``span=`` is an observation knob — it deliberately never enters the
compile fingerprint, so spanned and plain runs of one kernel share one
cache entry.

Timestamps are ``time.perf_counter()`` values: durations between them
are exact, absolute values are process-relative (``wall_unix`` anchors
the record for cross-process correlation).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional


@dataclass(eq=False)  # identity semantics: spans are unique records
class RequestSpan:
    """Lifecycle record of one request.

    Leg fields are filled progressively: admission sets the identity
    and prediction fields, the session fills ``compile_s`` /
    ``execute_s`` / ``cache_hit`` / ``executed`` while executing, and
    :meth:`complete` (or :meth:`fail`) closes the record.  A span that
    was never completed reports ``status="open"``.
    """

    fingerprint: str = ""
    kind: str = ""
    backend: str = ""
    shard: int = -1
    queries: int = 1
    # Cost-model view at admission.
    predicted_s: float = 0.0
    predicted_energy_j: float = 0.0
    warm: bool = False
    # Outcome.
    status: str = "open"  # open | ok | error | deadline | cancelled
    error: str = ""
    attempts: int = 1  # executions dispatched (>1 = the request retried)
    cache_hit: bool = False
    executed: bool = False  # the accelerator model ran (vs. reused a run)
    actual_s: float = 0.0  # modeled execution seconds (report.seconds)
    actual_energy_j: float = 0.0
    # Wall-clock legs (perf_counter timestamps; durations in seconds).
    admitted_at: float = field(default_factory=time.perf_counter)
    started_at: float = 0.0
    finished_at: float = 0.0
    compile_s: float = 0.0  # front-end wall time (0.0 on a cache hit)
    execute_s: float = 0.0  # backend run wall time
    wall_unix: float = field(default_factory=time.time)

    # ------------------------------------------------------------- marks

    def mark_started(self) -> None:
        """The worker picked the request off its queue."""
        self.started_at = time.perf_counter()

    def complete(self, report=None) -> "RequestSpan":
        """Close the span as successful, folding in the report's
        modeled cost (what the cost model predicted against)."""
        self.finished_at = time.perf_counter()
        self.status = "ok"
        if report is not None:
            self.actual_s = float(report.seconds)
            self.actual_energy_j = float(report.energy_j)
            self.cache_hit = bool(report.cache_hit)
        return self

    def fail(self, error: BaseException) -> "RequestSpan":
        self.finished_at = time.perf_counter()
        # Deadline misses get their own outcome tag: they are the SLO
        # signal, not generic failures.  By-name so this module never
        # imports the serving layer.
        if type(error).__name__ == "DeadlineExceeded":
            self.status = "deadline"
        else:
            self.status = "error"
        self.error = f"{type(error).__name__}: {error}"
        return self

    def cancel(self) -> "RequestSpan":
        self.finished_at = time.perf_counter()
        self.status = "cancelled"
        return self

    # --------------------------------------------------------- durations

    @property
    def queue_wait_s(self) -> float:
        """Admission to worker pickup (0 until the worker starts)."""
        if self.started_at <= 0.0:
            return 0.0
        return max(self.started_at - self.admitted_at, 0.0)

    @property
    def e2e_s(self) -> float:
        """Admission to completion — the caller-visible latency."""
        if self.finished_at <= 0.0:
            return 0.0
        return max(self.finished_at - self.admitted_at, 0.0)

    @property
    def latency_residual(self) -> Optional[float]:
        """``actual / predicted`` modeled seconds (None when the cost
        model had no prediction; 1.0 = the model was exact)."""
        if self.predicted_s <= 0.0 or self.actual_s <= 0.0:
            return None
        return self.actual_s / self.predicted_s

    @property
    def energy_residual(self) -> Optional[float]:
        if self.predicted_energy_j <= 0.0 or self.actual_energy_j <= 0.0:
            return None
        return self.actual_energy_j / self.predicted_energy_j

    # ------------------------------------------------------ serialization

    def to_dict(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "backend": self.backend,
            "shard": self.shard,
            "queries": self.queries,
            "status": self.status,
            "error": self.error,
            "attempts": self.attempts,
            "cache_hit": self.cache_hit,
            "executed": self.executed,
            "warm": self.warm,
            "queue_wait_s": self.queue_wait_s,
            "compile_s": self.compile_s,
            "execute_s": self.execute_s,
            "e2e_s": self.e2e_s,
            "predicted_s": self.predicted_s,
            "actual_s": self.actual_s,
            "latency_residual": self.latency_residual,
            "predicted_energy_j": self.predicted_energy_j,
            "actual_energy_j": self.actual_energy_j,
            "energy_residual": self.energy_residual,
            "wall_unix": self.wall_unix,
        }


class SpanLog:
    """Bounded, thread-safe ring of completed spans.

    The service appends every closed span here; ``maxlen`` bounds
    memory on long-lived services exactly like the stats window.  Reads
    snapshot under the lock, so callers can aggregate while workers
    keep appending.
    """

    def __init__(self, maxlen: int = 4096):
        if maxlen < 1:
            raise ValueError("span log needs room for at least one span")
        self._lock = threading.Lock()
        self._spans: Deque[RequestSpan] = deque(maxlen=maxlen)
        self._total = 0

    def append(self, span: RequestSpan) -> None:
        with self._lock:
            self._spans.append(span)
            self._total += 1

    def snapshot(self, last: Optional[int] = None) -> List[RequestSpan]:
        """The most recent ``last`` spans (all retained by default),
        oldest first."""
        with self._lock:
            spans = list(self._spans)
        if last is not None:
            spans = spans[-last:]
        return spans

    @property
    def total(self) -> int:
        """Spans ever appended (including ones the ring dropped)."""
        with self._lock:
            return self._total

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)
