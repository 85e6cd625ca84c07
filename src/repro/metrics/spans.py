"""Per-request spans: one record per settled request.

A :class:`RequestSpan` is what the serving path knows about one request
once it is over — admitted → queued → compile → execute → settled — the
wall times of each leg next to the modeled seconds and joules its
report charged.  Aggregates (the latency histograms the
registry holds) answer "how is the service doing"; spans answer "what
happened to *this* request", which is what SLO debugging needs.

Nothing fills a span in flight: the service stamps its work item at
admission and at the worker's first claim, the session puts its
``compile_s`` / ``execute_s`` on the :class:`ExecutionReport`, and the
one terminal transition (``ReasonService._settle``) builds the span from
the item, the settle outcome and the report, then queues it before the
future resolves.  The service moves queued spans into its
:class:`SpanLog` and their legs into its histograms in batches.

Timestamps are ``time.perf_counter()`` values: durations between them
are exact, absolute values are process-relative (``wall_unix`` anchors
the record's admission for cross-process correlation).
"""

from __future__ import annotations

import threading
from collections import deque
from numbers import Integral
from typing import Deque, Dict, Iterable, List, NamedTuple, Optional, Sequence

import numpy as np


class RequestSpan(NamedTuple):
    """Record of one settled request.  A named tuple: the service's
    settle builds the fields as a plain tuple, positionally, and the
    span log hands them back as this type.

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
    # Outcome.
    error: str = ""
    attempts: int = 1  # executions dispatched (>1 = the request retried)
    cache_hit: bool = False
    executed: bool = False  # the accelerator model ran (vs. reused a run)
    actual_s: float = 0.0  # modeled execution seconds (report.seconds)
    actual_energy_j: float = 0.0
    # Wall-clock legs (perf_counter timestamps; durations in seconds).
    admitted_at: float = 0.0
    started_at: float = 0.0  # first claim, by a worker or an inline caller (0.0 = never)
    finished_at: float = 0.0
    compile_s: float = 0.0  # front-end wall time (0.0 on a cache hit)
    execute_s: float = 0.0  # backend run wall time
    wall_unix: float = 0.0  # time.time() at admission

    # --------------------------------------------------------- durations

    @property
    def queue_wait_s(self) -> float:
        """Admission to the first claim (0 for a request nobody claimed)."""
        if self.started_at <= 0.0:
            return 0.0
        return max(self.started_at - self.admitted_at, 0.0)

    @property
    def e2e_s(self) -> float:
        """Admission to settlement — the caller-visible latency."""
        return max(self.finished_at - self.admitted_at, 0.0)


def leg_columns(spans: Sequence[tuple]) -> Dict[str, Dict[str, np.ndarray]]:
    """Per backend, the duration properties of the successful spans
    among ``spans`` (RequestSpans, or plain tuples in its field order),
    one array per property name, each value equal to the property's:
    how the service bins a batch of settled spans without a property
    call per span.  Failures and cancellations are left out."""
    if not spans:
        return {}
    columns = dict(zip(RequestSpan._fields, zip(*spans)))
    admitted, started, finished, execute = (
        np.array(columns[name], dtype=float)
        for name in ("admitted_at", "started_at", "finished_at", "execute_s")
    )
    legs = {
        "queue_wait_s": np.where(started > 0.0, np.maximum(started - admitted, 0.0), 0.0),
        "execute_s": execute,
        "e2e_s": np.maximum(finished - admitted, 0.0),
    }
    # Object arrays: comparing the strings themselves is cheaper than
    # converting them to numpy's fixed-width text.
    backends = np.array(columns["backend"], dtype=object)
    ok = np.array(columns["status"], dtype=object) == "ok"
    return {
        backend: {
            name: values[ok & (backends == backend)]
            for name, values in legs.items()
        }
        for backend in set(backends[ok])
    }


class SpanLog:
    """Bounded, thread-safe ring of completed spans.

    The service adds settled spans here in batches; ``maxlen`` bounds
    memory on long-lived services exactly like the stats window.  Each
    span is kept as the tuple it was given — a :class:`RequestSpan`, or
    a plain tuple in its field order, which is how the service adds
    them without paying a named tuple's constructor per request — and
    read back as a :class:`RequestSpan`.  Reads snapshot under the
    lock, so callers can aggregate while workers keep adding.
    """

    def __init__(self, maxlen: int = 4096):
        if maxlen < 1:
            raise ValueError("span log needs room for at least one span")
        self._lock = threading.Lock()
        self._spans: Deque[tuple] = deque(maxlen=maxlen)

    def extend(self, spans: Iterable[tuple]) -> None:
        with self._lock:
            self._spans.extend(spans)

    def snapshot(self, last: Optional[int] = None) -> List[RequestSpan]:
        """The most recent ``last`` spans (all retained by default),
        oldest first.  ``last`` is a count: ``0`` returns none, and a
        negative, bool or non-integer ``last`` raises ValueError."""
        if last is not None and (
            isinstance(last, bool) or not isinstance(last, Integral) or last < 0
        ):
            raise ValueError(f"last must be None or a count >= 0, not {last!r}")
        with self._lock:
            spans = list(self._spans)
        if last is not None:
            spans = spans[max(len(spans) - last, 0):]
        return [RequestSpan._make(span) for span in spans]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)
