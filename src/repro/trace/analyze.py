"""Offline trace analysis: the questions a counter dump cannot answer.

Every function takes a :class:`~repro.trace.reader.TraceReader` (or
anything accepted by its constructor) and streams — no tool here
materializes the event list, so they run unchanged on traces with
billions of events.

* :func:`phase_breakdown` — where the cycles went, attributed to the
  event kind that advanced the modeled clock (the per-phase cycle
  breakdown the replay's aggregate counters destroy);
* :func:`bank_heatmap` — per-SRAM-bank words read and per-bank memory
  instruction counts (cache/bank pressure at a glance);
* :func:`cycle_histogram` — when events of a kind happen across the
  run (conflict clustering, learn bursts, spill storms);
* :func:`cross_validate` — the integrity bridge back to the execution
  layer: summed trace events must reproduce an
  :class:`~repro.api.types.ExecutionReport`'s counters *exactly*;
* :func:`diff_traces` — regression hunting: align two traces of the
  same kernel event-by-event and report per-kind count deltas,
  per-phase cycle deltas and the first diverging event;
* :func:`timeline` — the Fig. 9 view: one ``(cycle, unit,
  description)`` row per record, for logic and program kernels alike.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.trace.format import (
    INSTRUCTION_KINDS,
    PHASE_NAMES,
    STALL_KINDS,
    EventKind,
)
from repro.trace.reader import TraceReader


def _reader(source) -> TraceReader:
    return source if isinstance(source, TraceReader) else TraceReader(source)


# ------------------------------------------------------------ breakdowns


@dataclass
class PhaseBreakdown:
    """Cycle attribution over one trace.

    ``by_kind`` maps event-kind name -> cycles that elapsed while that
    kind of event advanced the clock; ``by_phase`` splits the same
    cycles by the surrounding PHASE marker (symbolic-replay vs
    program).  Attribution is exact: deltas sum to ``total_cycles``.
    """

    total_cycles: int = 0
    events: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    by_phase: Dict[str, int] = field(default_factory=dict)

    def fraction(self, kind: str) -> float:
        return self.by_kind.get(kind, 0) / self.total_cycles if self.total_cycles else 0.0


class _CycleAttribution:
    """The one attribution rule, fed a record at a time: a PHASE record
    sets the current phase and the clock and charges nothing; any other
    record charges its positive delta since the previous record to its
    kind and to the current phase."""

    __slots__ = ("breakdown", "last_cycle", "phase")

    def __init__(self) -> None:
        self.breakdown = PhaseBreakdown()
        self.last_cycle = 0
        self.phase = "untagged"

    def feed(self, record) -> None:
        breakdown = self.breakdown
        breakdown.events += 1
        if record.kind is EventKind.PHASE:
            self.phase = PHASE_NAMES.get(record.value, f"phase-{record.value}")
            self.last_cycle = record.cycle
            return
        delta = record.cycle - self.last_cycle
        self.last_cycle = record.cycle
        if delta > 0:
            by_kind, by_phase, name = breakdown.by_kind, breakdown.by_phase, record.kind.name
            by_kind[name] = by_kind.get(name, 0) + delta
            by_phase[self.phase] = by_phase.get(self.phase, 0) + delta
            breakdown.total_cycles += delta


def phase_breakdown(source) -> PhaseBreakdown:
    """Attribute every elapsed cycle to the event that spent it.

    A record at cycle ``c`` following a record at cycle ``p < c``
    spent ``c - p`` cycles; those cycles belong to its kind (a
    PROPAGATE that waited out a watch-list walk owns that walk's
    latency).  RUN_END's delta is the run's trailing bookkeeping.
    """
    attribution = _CycleAttribution()
    for record in _reader(source):
        attribution.feed(record)
    return attribution.breakdown


@dataclass
class BankHeatmap:
    """Per-unit traffic: SRAM words per bank, memory ops per bank,
    compute issues per PE."""

    words_by_bank: Dict[int, int] = field(default_factory=dict)
    ops_by_bank: Dict[int, int] = field(default_factory=dict)
    compute_by_pe: Dict[int, int] = field(default_factory=dict)

    def imbalance(self) -> float:
        """Max/mean words ratio across banks (1.0 = perfectly even)."""
        if not self.words_by_bank:
            return 1.0
        values = list(self.words_by_bank.values())
        mean = sum(values) / len(values)
        return max(values) / mean if mean else 1.0


_MEMORY_OP_KINDS = frozenset(
    {EventKind.LOAD, EventKind.STORE, EventKind.SPILL, EventKind.RELOAD}
)


def bank_heatmap(source) -> BankHeatmap:
    """Aggregate bank/PE traffic from BANK_READ, memory-op and COMPUTE
    events (the raw material of a cache/bank heatmap plot)."""
    heat = BankHeatmap()
    words = heat.words_by_bank
    ops = heat.ops_by_bank
    compute = heat.compute_by_pe
    for record in _reader(source):
        kind = record.kind
        if kind is EventKind.BANK_READ:
            words[record.value] = words.get(record.value, 0) + record.extra
        elif kind in _MEMORY_OP_KINDS:
            ops[record.value] = ops.get(record.value, 0) + 1
        elif kind is EventKind.COMPUTE:
            compute[record.value] = compute.get(record.value, 0) + 1
    return heat


@dataclass
class CycleHistogram:
    """Event occurrences bucketed over the run's cycle axis."""

    kind: str
    bucket_cycles: int
    counts: List[int]
    total: int
    last_cycle: int


def cycle_histogram(
    source,
    kind: Union[EventKind, str] = EventKind.CONFLICT,
    buckets: int = 20,
) -> CycleHistogram:
    """Histogram of when ``kind`` events land across the trace's cycle
    range — conflict/learn clustering made visible.  Uses the footer
    for the cycle range, so the stream is read exactly once."""
    if buckets < 1:
        raise ValueError(f"cycle_histogram needs buckets >= 1, got {buckets}")
    reader = _reader(source)
    wanted = EventKind[kind] if isinstance(kind, str) else EventKind(kind)
    last_cycle = max(reader.summary().last_cycle, 1)
    bucket_cycles = max((last_cycle + buckets - 1) // buckets, 1)
    counts = [0] * buckets
    total = 0
    for record in reader.events(kinds=(wanted,)):
        index = min(record.cycle // bucket_cycles, buckets - 1)
        counts[index] += 1
        total += 1
    return CycleHistogram(
        kind=wanted.name,
        bucket_cycles=bucket_cycles,
        counts=counts,
        total=total,
        last_cycle=last_cycle,
    )


# ------------------------------------------------------- cross-validation


@dataclass
class CheckResult:
    name: str
    trace_value: int
    report_value: int

    @property
    def ok(self) -> bool:
        return self.trace_value == self.report_value


@dataclass
class ValidationResult:
    """Outcome of :func:`cross_validate`: every counter the trace can
    reconstruct, next to the report's value."""

    checks: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)


def cross_validate(source, report) -> ValidationResult:
    """Check that summed trace events reproduce ``report``'s counters.

    ``report`` is an :class:`~repro.api.types.ExecutionReport` (duck-
    typed: ``cycles``, ``queries`` and ``extras`` are read).  For
    symbolic (CDCL replay) traces the decision/implication/conflict
    totals and the cycle count must match exactly; for program traces
    the instruction and stall totals and the cycle count must.  The
    trace records one replay; the report scales by ``queries``, so
    cycles compare as ``max(trace_cycles, 1) * queries``.
    """
    counts: Dict[EventKind, int] = {}
    run_end_cycle = 0
    for record in _reader(source):
        counts[record.kind] = counts.get(record.kind, 0) + 1
        if record.kind is EventKind.RUN_END:
            run_end_cycle = record.cycle
    result = ValidationResult()
    extras = getattr(report, "extras", {}) or {}
    queries = max(getattr(report, "queries", 1), 1)

    def check(name: str, trace_value: int, report_value) -> None:
        if report_value is not None:
            result.checks.append(CheckResult(name, trace_value, int(report_value)))

    check("decisions", counts.get(EventKind.DECIDE, 0), extras.get("decisions"))
    check("implications", counts.get(EventKind.PROPAGATE, 0), extras.get("implications"))
    check("conflicts", counts.get(EventKind.CONFLICT, 0), extras.get("conflicts"))
    instructions = sum(counts.get(kind, 0) for kind in INSTRUCTION_KINDS)
    stalls = sum(counts.get(kind, 0) for kind in STALL_KINDS)
    check("instructions", instructions, extras.get("instructions"))
    check("stalls", stalls, extras.get("stalls"))
    cycles = getattr(report, "cycles", None)
    if cycles is not None:
        check("cycles", max(run_end_cycle, 1) * queries, cycles)
    return result


# ----------------------------------------------------- regression diffing


@dataclass
class TraceDelta:
    """One aggregate that moved between two traces."""

    name: str  # event-kind name (count deltas) or phase name (cycles)
    before: int
    after: int

    @property
    def delta(self) -> int:
        return self.after - self.before


@dataclass
class TraceDivergence:
    """The first event ordinal where the two streams disagree.

    ``before`` / ``after`` are human-readable record descriptions;
    ``None`` on a side means that trace ended before the ordinal.
    """

    index: int
    before: Optional[str]
    after: Optional[str]


@dataclass
class TraceDiff:
    """Outcome of :func:`diff_traces` over traces A (before) and B
    (after).  ``identical`` means the streams matched record for
    record; everything else localizes the regression: which kinds
    changed count, which phases gained/lost cycles, and the exact
    event where the executions first took different paths.
    """

    events: Tuple[int, int]
    cycles: Tuple[int, int]
    kind_deltas: List[TraceDelta] = field(default_factory=list)
    phase_deltas: List[TraceDelta] = field(default_factory=list)
    divergence: Optional[TraceDivergence] = None

    @property
    def identical(self) -> bool:
        return self.divergence is None

    def describe(self) -> List[str]:
        lines: List[str] = []
        if self.events[0] != self.events[1]:
            lines.append(f"events: {self.events[0]} -> {self.events[1]}")
        if self.cycles[0] != self.cycles[1]:
            lines.append(f"cycles: {self.cycles[0]} -> {self.cycles[1]}")
        for delta in self.kind_deltas:
            lines.append(
                f"count {delta.name}: {delta.before} -> {delta.after} "
                f"({delta.delta:+d})"
            )
        for delta in self.phase_deltas:
            lines.append(
                f"cycles[{delta.name}]: {delta.before} -> {delta.after} "
                f"({delta.delta:+d})"
            )
        if self.divergence is not None:
            lines.append(f"first divergence at event #{self.divergence.index}:")
            lines.append(f"  A: {self.divergence.before or '<end of trace>'}")
            lines.append(f"  B: {self.divergence.after or '<end of trace>'}")
        return lines


def describe_record(record) -> str:
    """One record's kind and operands (their meaning per kind is
    documented on :class:`~repro.trace.format.EventKind`)."""
    return f"{record.kind.name} value={record.value} extra={record.extra}"


def _at_cycle(record) -> str:
    return f"cycle={record.cycle} {describe_record(record)}"


def diff_traces(before, after) -> TraceDiff:
    """Align two traces event-by-event and report what changed.

    Both streams are read exactly once, in lockstep — memory stays
    O(#kinds + #phases) however long the traces are.  The modeled
    pipeline is deterministic, so two runs of the *same* kernel on the
    same code produce byte-identical event streams; any divergence is
    a behavior change, and the first diverging event pins where the
    executions split (the cheapest place to start a bisect).
    """
    from itertools import zip_longest

    sides = (_CycleAttribution(), _CycleAttribution())
    counts: Tuple[Dict[str, int], Dict[str, int]] = ({}, {})
    divergence: Optional[TraceDivergence] = None
    for index, records in enumerate(zip_longest(_reader(before), _reader(after))):
        for side, side_counts, record in zip(sides, counts, records):
            if record is not None:
                side.feed(record)
                name = record.kind.name
                side_counts[name] = side_counts.get(name, 0) + 1
        rec_a, rec_b = records
        if divergence is None:
            if rec_a is None or rec_b is None or (
                (rec_a.cycle, rec_a.kind, rec_a.value, rec_a.extra)
                != (rec_b.cycle, rec_b.kind, rec_b.value, rec_b.extra)
            ):
                divergence = TraceDivergence(
                    index=index,
                    before=None if rec_a is None else _at_cycle(rec_a),
                    after=None if rec_b is None else _at_cycle(rec_b),
                )
    side_a, side_b = sides
    return TraceDiff(
        events=(side_a.breakdown.events, side_b.breakdown.events),
        cycles=(side_a.last_cycle, side_b.last_cycle),
        kind_deltas=_deltas(*counts),
        phase_deltas=_deltas(side_a.breakdown.by_phase, side_b.breakdown.by_phase),
        divergence=divergence,
    )


def _deltas(before: Dict[str, int], after: Dict[str, int]) -> List[TraceDelta]:
    """Every name whose value differs between the two maps (a missing
    name is 0), in name order."""
    return [
        TraceDelta(name, before.get(name, 0), after.get(name, 0))
        for name in sorted(set(before) | set(after))
        if before.get(name, 0) != after.get(name, 0)
    ]


# ------------------------------------------------------------- timeline

#: The pipeline unit (Fig. 9's rows) an event kind occupies; kinds not
#: listed — conflict, learn, backjump, restart, NOP, phase markers —
#: belong to the scalar control path.
_UNITS: Dict[EventKind, str] = {
    EventKind.DECIDE: "broadcast",
    EventKind.PROPAGATE: "reduction",
    EventKind.WATCH_UPDATE: "wl",
    EventKind.BANK_READ: "sram",
    EventKind.DMA_FETCH: "dma",
    EventKind.COMPUTE: "pe",
    EventKind.PE_BLOCK: "pe",
    **dict.fromkeys(_MEMORY_OP_KINDS, "regfile"),
}


def timeline(source) -> Iterator[Tuple[int, str, str]]:
    """The run as Fig. 9 draws it: one ``(cycle, unit, description)``
    row per record, streamed in trace order.  Works on any trace — a
    CDCL replay shows decisions broadcasting, implications returning
    through the reduction tree, watch-list walks, DMA fetches and
    conflict flushes; a VLIW program shows its issue stream."""
    for record in _reader(source):
        yield record.cycle, _UNITS.get(record.kind, "control"), describe_record(record)


def trace_artifact_path(
    directory: Union[str, os.PathLike], fingerprint: str
) -> "os.PathLike":
    """The canonical on-disk location for one request's trace artifact,
    addressed by the same content fingerprint the compile cache and
    :class:`~repro.api.store.ArtifactStore` use — a trace sits next to
    the artifact it was captured from."""
    from pathlib import Path

    from repro.api.store import safe_store_key

    return Path(directory) / f"{safe_store_key(fingerprint)}.trace"
