"""Live metrics & telemetry for the REASON serving stack.

The offline story (:mod:`repro.trace`) records what one execution did;
this package reports what a *running service* is doing: a lock-cheap
:class:`MetricsRegistry` of counters, gauges and fixed-log-bucket
histograms (with labels and quantile estimation), per-request
:class:`RequestSpan` records carrying queue-wait / compile / execute /
end-to-end wall times next to the modeled cost each request's report
charged, Prometheus-text and JSON exposition, snapshot diffing for
regression hunting, and ``python -m repro show|watch|diff`` over
snapshot files.

There is one mode, always on: every
:class:`~repro.api.session.ReasonSession` /
:class:`~repro.api.service.ReasonService` owns a private registry, or
shares the one passed as ``metrics=``.  The request path pays a deque
append per observation and per settled span; instruments bin what is
queued in vectorised batches on every read and once enough is waiting.
"""

from repro.metrics.diff import MetricChange, SnapshotDiff, diff_snapshots
from repro.metrics.registry import (
    LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    ensure_registry,
)
from repro.metrics.render import (
    load_snapshot,
    render_json,
    render_pretty,
    render_prometheus,
    save_snapshot,
)
from repro.metrics.spans import RequestSpan, SpanLog

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "RequestSpan",
    "SpanLog",
    "MetricChange",
    "SnapshotDiff",
    "diff_snapshots",
    "render_prometheus",
    "render_json",
    "render_pretty",
    "save_snapshot",
    "load_snapshot",
    "ensure_registry",
    "LATENCY_BUCKETS",
]
