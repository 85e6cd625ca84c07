"""Binary event-trace subsystem: capture, decode, and analyze the
event streams the execution layer otherwise aggregates away.

* :mod:`repro.trace.format` — the versioned varint/delta wire format
  (~2-4 bytes/event; constraints documented there);
* :class:`TraceWriter` — streaming encoder the accelerator's replay
  and program loops emit into (opt-in; zero overhead when detached);
* :class:`TraceReader` — streaming decoder with kind/cycle-window/unit
  filtered queries that never materialize the stream;
* :mod:`repro.trace.analyze` — per-phase cycle breakdowns, bank/PE
  heatmaps, event-cycle histograms, the Fig. 9 cycle
  :func:`~repro.trace.analyze.timeline`, and exact cross-validation of
  a trace against its :class:`~repro.api.types.ExecutionReport`;
* ``python -m repro summary|validate|phases|heatmap|hist|dump|diff``
  — the offline commands over all of the above.

Capture plumbs through the API layer: ``session.run(kernel,
trace="out.trace")`` (any :class:`~repro.api.adapters.RunOptions`
entry point) writes the file and reports a summary in
``report.extras["trace"]``, and ``trace=True`` captures in memory
(``report.extras["trace_data"]``).  Each traced run owns its writer,
and the writer owns its file; ``trace`` takes no other form.  A
:class:`~repro.api.service.ReasonService` built with ``trace_dir=``
stores per-request traces addressed by the same content fingerprint
its artifact store uses.
"""

from repro.trace.format import (
    EVENT_SCHEMA,
    MAGIC,
    VERSION,
    EventKind,
    TraceFormatError,
    TraceRecord,
)
from repro.trace.reader import TraceReader
from repro.trace.writer import TraceSummary, TraceWriter
from repro.trace.analyze import (
    BankHeatmap,
    CycleHistogram,
    PhaseBreakdown,
    ValidationResult,
    bank_heatmap,
    cross_validate,
    cycle_histogram,
    phase_breakdown,
    timeline,
    trace_artifact_path,
)

__all__ = [
    "EventKind",
    "TraceRecord",
    "TraceFormatError",
    "TraceReader",
    "TraceWriter",
    "TraceSummary",
    "BankHeatmap",
    "CycleHistogram",
    "PhaseBreakdown",
    "ValidationResult",
    "bank_heatmap",
    "cross_validate",
    "cycle_histogram",
    "phase_breakdown",
    "timeline",
    "trace_artifact_path",
    "EVENT_SCHEMA",
    "MAGIC",
    "VERSION",
]
