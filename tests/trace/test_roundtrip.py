"""Encode/decode identity on randomized streams + query API behavior."""

import random

import pytest

from repro.trace.format import EVENT_SCHEMA, EventKind, TraceRecord
from repro.trace.reader import TraceReader
from repro.trace.writer import TraceWriter


def random_stream(rng, events):
    """A randomized but well-formed event stream: monotone-ish cycles
    (occasional phase resets exercise negative deltas), kind-appropriate
    operands covering one-byte and multi-byte varints."""
    kinds = [k for k in EventKind if k is not EventKind.EOS]
    records = []
    cycle = 0
    for _ in range(events):
        kind = rng.choice(kinds)
        if rng.random() < 0.05:
            cycle = rng.randrange(0, 10)  # phase reset: negative delta
        else:
            cycle += rng.choice((0, 0, 1, 2, 3, 6, 7, 50, 100_000))
        nfields, signed = EVENT_SCHEMA[kind]
        value = 0
        extra = 0
        if nfields:
            if signed:
                value = rng.randrange(-5000, 5001)
            else:
                value = rng.choice((0, 1, 7, 200, 70_000))
            if nfields == 2:
                extra = rng.choice((0, 3, 128, 99_999))
        records.append(TraceRecord(kind, cycle, value, extra))
    return records


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_randomized_encode_decode_identity(seed):
    rng = random.Random(seed)
    records = random_stream(rng, rng.randrange(1, 400))
    writer = TraceWriter()
    for record in records:
        writer.emit(record.kind, record.cycle, record.value, record.extra)
    summary = writer.close()
    decoded = list(TraceReader(writer.getvalue()))
    assert decoded == records
    assert summary.events == len(records)
    assert summary.last_cycle == records[-1].cycle
    # The footer agrees with a full decode.
    TraceReader(writer.getvalue()).validate()


def test_empty_stream_round_trips():
    writer = TraceWriter()
    summary = writer.close()
    assert summary.events == 0
    assert list(TraceReader(writer.getvalue())) == []
    assert TraceReader(writer.getvalue()).validate().events == 0


def test_file_and_memory_sinks_produce_identical_bytes(tmp_path):
    records = random_stream(random.Random(7), 200)
    mem = TraceWriter()
    disk = TraceWriter(tmp_path / "t.trace")
    for record in records:
        mem.emit(record.kind, record.cycle, record.value, record.extra)
        disk.emit(record.kind, record.cycle, record.value, record.extra)
    mem.close()
    disk.close()
    assert (tmp_path / "t.trace").read_bytes() == mem.getvalue()
    assert list(TraceReader(tmp_path / "t.trace")) == records


def test_cycle_none_repeats_previous_cycle():
    writer = TraceWriter()
    writer.emit(EventKind.DECIDE, 42, 1)
    writer.emit(EventKind.LEARN, None, 3)  # annotate at cycle 42
    writer.emit(EventKind.RESTART, 50)
    writer.close()
    cycles = [r.cycle for r in TraceReader(writer.getvalue())]
    assert cycles == [42, 42, 50]


def test_mixed_stream_stays_under_bytes_per_event_budget():
    # The format's headline constraint: a realistic mixed stream
    # averages well under 6 bytes/event.
    rng = random.Random(11)
    writer = TraceWriter()
    cycle = 0
    for _ in range(5000):
        cycle += rng.choice((0, 1, 1, 2, 3))
        kind = rng.choice(
            (EventKind.PROPAGATE, EventKind.BANK_READ, EventKind.WATCH_UPDATE)
        )
        if kind is EventKind.PROPAGATE:
            writer.emit(kind, cycle, rng.randrange(-300, 300))
        else:
            writer.emit(kind, cycle, rng.randrange(0, 16), rng.randrange(0, 40))
    summary = writer.close()
    assert summary.bytes_per_event <= 6.0


class TestQueries:
    @pytest.fixture(scope="class")
    def trace(self):
        writer = TraceWriter()
        for index in range(100):
            writer.emit(EventKind.PROPAGATE, index * 10, index)
            writer.emit(EventKind.BANK_READ, index * 10, index % 4, 2)
            if index % 10 == 0:
                writer.emit(EventKind.CONFLICT, index * 10 + 5, index)
        writer.close()
        return writer.getvalue()

    def test_kind_filter_matches_full_decode(self, trace):
        reader = TraceReader(trace)
        fast = list(reader.events(kinds=(EventKind.CONFLICT,)))
        slow = [r for r in TraceReader(trace) if r.kind is EventKind.CONFLICT]
        assert fast == slow
        assert len(fast) == 10

    def test_kind_filter_accepts_names(self, trace):
        by_name = list(TraceReader(trace).events(kinds=("CONFLICT",)))
        by_member = list(TraceReader(trace).events(kinds=(EventKind.CONFLICT,)))
        assert by_name == by_member

    def test_cycle_window_is_inclusive(self, trace):
        window = list(TraceReader(trace).events(start_cycle=100, end_cycle=200))
        assert window
        assert all(100 <= r.cycle <= 200 for r in window)
        full = [r for r in TraceReader(trace) if 100 <= r.cycle <= 200]
        assert window == full

    def test_filters_compose(self, trace):
        out = list(
            TraceReader(trace).events(kinds=("BANK_READ",), start_cycle=500, end_cycle=700)
        )
        expected = [
            r
            for r in TraceReader(trace)
            if r.kind is EventKind.BANK_READ and 500 <= r.cycle <= 700
        ]
        assert out
        assert out == expected

    def test_reader_is_restartable(self, trace):
        reader = TraceReader(trace)
        first = list(reader)
        second = list(reader)
        assert first == second

    def test_summary_reads_footer_only(self, trace):
        summary = TraceReader(trace).summary()
        assert summary.events == len(list(TraceReader(trace)))
        assert summary.counts["PROPAGATE"] == 100
        assert summary.last_cycle == max(r.cycle for r in TraceReader(trace))


def test_solver_trace_encoding_round_trips():
    from repro import ReasonSession
    from repro.logic.cdcl import CDCLSolver
    from repro.logic.generators import random_ksat

    formula = random_ksat(30, 120, seed=5)
    report = ReasonSession().run(formula, trace=True)
    records = list(TraceReader(report.extras["trace_data"]))
    assert len(records) == report.extras["trace"]["events"]
    solver = CDCLSolver(record_trace=True)
    solver.solve(formula)
    # Every solver event maps 1:1 and in order onto its algorithm event.
    algorithm = {
        EventKind.PROPAGATE: "imply",
        EventKind.DECIDE: "decide",
        EventKind.CONFLICT: "conflict",
        EventKind.LEARN: "learn",
        EventKind.BACKJUMP: "backjump",
        EventKind.RESTART: "restart",
    }
    assert [algorithm[r.kind] for r in records if r.kind in algorithm] == [
        event.kind for event in solver.trace
    ]
    decisions = [r for r in records if r.kind is EventKind.DECIDE]
    assert [r.value for r in decisions] == [
        e.literal for e in solver.trace if e.kind == "decide"
    ]
