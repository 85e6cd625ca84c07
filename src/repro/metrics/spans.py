"""Per-request spans: one record per settled request.

A :class:`RequestSpan` is what the serving path knows about one request
once it is over — admitted → queued → compile → execute → settled — the
wall times of each leg plus the cost model's *predicted vs. actual*
latency/energy residuals.  Aggregates (the latency histograms the
registry holds) answer "how is the service doing"; spans answer "what
happened to *this* request", which is what SLO debugging needs.

Nothing fills a span in flight: the service stamps its work item at
admission and at the worker's first claim, the session puts its
``compile_s`` / ``execute_s`` on the :class:`ExecutionReport`, and the
one terminal transition (``ReasonService._settle``) builds the span from
the item, the settle outcome and the report, then logs it before the
future resolves.

Timestamps are ``time.perf_counter()`` values: durations between them
are exact, absolute values are process-relative (``wall_unix`` anchors
the record's admission for cross-process correlation).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional


@dataclass(frozen=True, eq=False)  # identity semantics: spans are unique records
class RequestSpan:
    """Record of one settled request.

    ``status`` is the settle outcome.  The cache / execution / actual /
    ``compile_s`` / ``execute_s`` fields are the request's
    :class:`~repro.api.types.ExecutionReport`'s, so they stay at their
    zero defaults on every outcome but ``ok``.
    """

    status: str  # ok | error | deadline | cancelled
    fingerprint: str = ""
    kind: str = ""
    backend: str = ""
    shard: int = -1  # the shard that settled it (a rerouted retry's last)
    queries: int = 1
    # Cost-model view at admission.
    predicted_s: float = 0.0
    predicted_energy_j: float = 0.0
    # Outcome.
    error: str = ""
    attempts: int = 1  # executions dispatched (>1 = the request retried)
    cache_hit: bool = False
    executed: bool = False  # the accelerator model ran (vs. reused a run)
    actual_s: float = 0.0  # modeled execution seconds (report.seconds)
    actual_energy_j: float = 0.0
    # Wall-clock legs (perf_counter timestamps; durations in seconds).
    admitted_at: float = 0.0
    started_at: float = 0.0  # first worker claim (0.0 = never claimed)
    finished_at: float = 0.0
    compile_s: float = 0.0  # front-end wall time (0.0 on a cache hit)
    execute_s: float = 0.0  # backend run wall time
    wall_unix: float = 0.0  # time.time() at admission
    # Which rung of the cost model priced predicted_s
    # (CostPrediction.source): tells a first sight's static-model
    # residual from a priced kernel's 1.0.
    predicted_source: str = ""

    # --------------------------------------------------------- durations

    @property
    def queue_wait_s(self) -> float:
        """Admission to worker pickup (0 for a request no worker claimed)."""
        if self.started_at <= 0.0:
            return 0.0
        return max(self.started_at - self.admitted_at, 0.0)

    @property
    def e2e_s(self) -> float:
        """Admission to settlement — the caller-visible latency."""
        return max(self.finished_at - self.admitted_at, 0.0)

    @property
    def latency_residual(self) -> Optional[float]:
        """``actual / predicted`` modeled seconds (None unless the
        request succeeded; 1.0 = the model was exact)."""
        if self.predicted_s <= 0.0 or self.actual_s <= 0.0:
            return None
        return self.actual_s / self.predicted_s

    @property
    def energy_residual(self) -> Optional[float]:
        if self.predicted_energy_j <= 0.0 or self.actual_energy_j <= 0.0:
            return None
        return self.actual_energy_j / self.predicted_energy_j


class SpanLog:
    """Bounded, thread-safe ring of completed spans.

    The service appends every settled request's span here; ``maxlen`` bounds
    memory on long-lived services exactly like the stats window.  Reads
    snapshot under the lock, so callers can aggregate while workers
    keep appending.
    """

    def __init__(self, maxlen: int = 4096):
        if maxlen < 1:
            raise ValueError("span log needs room for at least one span")
        self._lock = threading.Lock()
        self._spans: Deque[RequestSpan] = deque(maxlen=maxlen)

    def append(self, span: RequestSpan) -> None:
        with self._lock:
            self._spans.append(span)

    def snapshot(self, last: Optional[int] = None) -> List[RequestSpan]:
        """The most recent ``last`` spans (all retained by default),
        oldest first."""
        with self._lock:
            spans = list(self._spans)
        if last is not None:
            spans = spans[-last:]
        return spans

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)
