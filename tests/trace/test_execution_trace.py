"""Execution-layer tracing: bit-identity when off, exact counter
reproduction when on, and the API/service plumbing."""

import collections
import sys
import threading

import pytest

from repro.api.resilience import RetryPolicy
from repro.api.session import ReasonSession
from repro.api.service import ReasonService
from repro.core.arch.accelerator import ReasonAccelerator
from repro.core.compiler.program import InstructionKind
from repro.core.dag import default_leaf_inputs
from repro.logic.generators import pigeonhole, random_ksat
from repro.pc.learn import random_circuit
from repro.trace import (
    BankHeatmap,
    EventKind,
    TraceReader,
    TraceWriter,
    bank_heatmap,
    cross_validate,
    cycle_histogram,
    phase_breakdown,
)

from tests.chaos import FaultPlan


class TestTracingIsObservationOnly:
    """Attaching a writer must not perturb the modeled execution."""

    def test_symbolic_replay_reports_identical(self):
        formula = random_ksat(40, 160, seed=3)
        plain = ReasonAccelerator()
        trace_plain, _ = plain.run_symbolic(formula)

        traced = ReasonAccelerator()
        writer = TraceWriter()
        traced.attach_trace(writer)
        trace_on, _ = traced.run_symbolic(formula)
        writer.close()

        assert trace_on.cycles == trace_plain.cycles
        assert trace_on.decisions == trace_plain.decisions
        assert trace_on.implications == trace_plain.implications
        assert trace_on.conflicts == trace_plain.conflicts
        assert traced.energy.total_energy_j() == plain.energy.total_energy_j()
        assert sum(writer.counts().values()) > 0

    def test_program_reports_identical(self, overflow_schedule, tiny_regfile):
        program, _ = overflow_schedule
        inputs = default_leaf_inputs(program.dag)
        plain = ReasonAccelerator(tiny_regfile).run_program(program, inputs)

        traced_acc = ReasonAccelerator(tiny_regfile)
        writer = TraceWriter()
        traced_acc.attach_trace(writer)
        traced = traced_acc.run_program(program, inputs)
        writer.close()

        assert traced.cycles == plain.cycles
        assert traced.result == plain.result
        assert traced.energy_j == plain.energy_j
        assert traced.instructions == plain.instructions
        assert traced.stalls == plain.stalls


class TestCrossValidation:
    """Summed trace events must reproduce ExecutionReport counters
    exactly — the integrity bridge of the whole subsystem.  The same
    replayed and executed streams are held to the format's density
    budget: the varint + cycle-delta layout has to pay off on real
    kernels, not only on a synthetic mix."""

    @pytest.mark.parametrize(
        "kernel",
        [random_ksat(40, 160, seed=3), pigeonhole(4)],
        ids=["ksat", "pigeonhole"],
    )
    def test_symbolic_kernels(self, kernel):
        report = ReasonSession().run(kernel, trace=True)
        data = report.extras["trace_data"]
        assert TraceReader(data).validate().bytes_per_event <= 6.0
        assert cross_validate(data, report).ok

    def test_circuit_kernel(self):
        circuit = random_circuit(8, depth=3, sum_children=3, seed=3)
        report = ReasonSession().run(circuit, trace=True)
        data = report.extras["trace_data"]
        assert TraceReader(data).validate().bytes_per_event <= 6.0
        assert cross_validate(data, report).ok

    def test_spill_heavy_kernel(self, overflow_schedule, tiny_regfile):
        # The register-starved kernel the scheduler suite pins
        # (spills=71, reloads=47): every one of those memory events
        # must appear in the trace individually and re-sum to the
        # report's instruction and stall totals.
        program, stats = overflow_schedule
        accelerator = ReasonAccelerator(tiny_regfile)
        writer = TraceWriter()
        accelerator.attach_trace(writer)
        hw = accelerator.run_program(program, default_leaf_inputs(program.dag))
        writer.close()
        data = writer.getvalue()

        counts = TraceReader(data).validate().counts
        assert counts["SPILL"] == stats.schedule.spills == 71
        assert counts["RELOAD"] == stats.schedule.reloads == 47
        assert counts["LOAD"] == stats.schedule.loads == 182
        assert counts["NOP"] == stats.schedule.nops == 18

        class _Report:
            cycles = hw.cycles
            queries = 1
            extras = {"instructions": hw.instructions, "stalls": hw.stalls}

        assert cross_validate(data, _Report()).ok

    def test_queries_scale_cycles(self):
        kernel = random_ksat(30, 120, seed=1)
        report = ReasonSession().run(kernel, queries=5, trace=True)
        data = report.extras["trace_data"]
        assert TraceReader(data).validate().bytes_per_event <= 6.0
        assert cross_validate(data, report).ok

    def test_mismatch_is_detected(self):
        # Negative control: a wrong report must fail, not pass vacuously.
        kernel = random_ksat(30, 120, seed=1)
        report = ReasonSession().run(kernel, trace=True)
        report.extras["decisions"] += 1
        result = cross_validate(report.extras["trace_data"], report)
        assert not result.ok
        assert [c.name for c in result.checks if not c.ok] == ["decisions"]


class TestTraceContents:
    def test_learn_events_follow_conflicts(self):
        formula = pigeonhole(4)  # UNSAT: plenty of conflicts and learns
        report = ReasonSession().run(formula, trace=True)
        records = list(TraceReader(report.extras["trace_data"]))
        conflicts = [r for r in records if r.kind is EventKind.CONFLICT]
        learns = [r for r in records if r.kind is EventKind.LEARN]
        assert conflicts
        assert learns
        for learn in learns:
            assert learn.value >= 1  # learned clause size

    def test_phase_markers_tag_the_stream(self):
        kernel = random_ksat(30, 120, seed=1)
        report = ReasonSession().run(kernel, trace=True)
        breakdown = phase_breakdown(report.extras["trace_data"])
        assert list(breakdown.by_phase) == ["symbolic-replay"]
        assert breakdown.total_cycles > 0

    def test_phase_fractions_partition_the_run(self):
        report = ReasonSession().run(pigeonhole(4), trace=True)
        breakdown = phase_breakdown(report.extras["trace_data"])
        assert sum(breakdown.by_kind.values()) == breakdown.total_cycles > 0
        assert sum(map(breakdown.fraction, breakdown.by_kind)) == pytest.approx(1.0)
        assert breakdown.fraction("SPILL") == 0.0

    def test_bank_heatmap_words_equal_the_replays_sram_reads(self):
        accelerator = ReasonAccelerator()
        writer = TraceWriter()
        accelerator.attach_trace(writer)
        accelerator.run_symbolic(random_ksat(40, 160, seed=3))
        writer.close()
        heat = bank_heatmap(writer.getvalue())
        assert sum(heat.words_by_bank.values()) == accelerator.energy.sram_access > 0
        assert heat.ops_by_bank == heat.compute_by_pe == {}
        assert heat.imbalance() >= 1.0

    def test_bank_heatmap_counts_every_memory_op_and_compute(
        self, overflow_schedule, tiny_regfile
    ):
        program, stats = overflow_schedule
        accelerator = ReasonAccelerator(tiny_regfile)
        writer = TraceWriter()
        accelerator.attach_trace(writer)
        accelerator.run_program(program, default_leaf_inputs(program.dag))
        writer.close()
        heat = bank_heatmap(writer.getvalue())
        kinds = collections.Counter(i.kind for i in program.instructions)
        memory_ops = sum(
            kinds[kind]
            for kind in (InstructionKind.LOAD, InstructionKind.STORE,
                         InstructionKind.SPILL, InstructionKind.RELOAD)
        )  # fmt: skip
        assert sum(heat.ops_by_bank.values()) == memory_ops
        assert set(heat.ops_by_bank) <= set(range(tiny_regfile.num_banks))
        assert sum(heat.compute_by_pe.values()) == kinds[InstructionKind.COMPUTE] == stats.num_blocks
        assert set(heat.compute_by_pe) <= set(range(tiny_regfile.num_pes))

    def test_heatmap_imbalance_is_max_over_mean_words(self):
        assert BankHeatmap().imbalance() == 1.0
        assert BankHeatmap(words_by_bank={0: 3, 1: 1}).imbalance() == 1.5

    def test_cycle_histogram_places_every_conflict(self):
        report = ReasonSession().run(pigeonhole(4), trace=True)
        data = report.extras["trace_data"]
        histogram = cycle_histogram(data, "CONFLICT", buckets=7)
        assert histogram.kind == "CONFLICT"
        assert len(histogram.counts) == 7
        assert sum(histogram.counts) == histogram.total == report.extras["conflicts"] > 0
        assert histogram.bucket_cycles * 7 >= histogram.last_cycle
        for buckets in (0, -2):  # once clamped to one bucket
            with pytest.raises(ValueError, match="buckets"):
                cycle_histogram(data, EventKind.CONFLICT, buckets=buckets)

    def test_pe_block_events_for_programs(self):
        circuit = random_circuit(8, depth=3, sum_children=3, seed=3)
        report = ReasonSession().run(circuit, trace=True)
        records = list(TraceReader(report.extras["trace_data"]))
        computes = sum(1 for r in records if r.kind is EventKind.COMPUTE)
        pe_blocks = sum(1 for r in records if r.kind is EventKind.PE_BLOCK)
        assert computes == pe_blocks > 0


class TestApiPlumbing:
    def test_file_capture_and_summary(self, tmp_path):
        path = tmp_path / "run.trace"
        report = ReasonSession().run(
            random_ksat(30, 120, seed=2), trace=str(path)
        )
        info = report.extras["trace"]
        assert info["path"] == str(path)
        assert path.stat().st_size == info["bytes"]
        assert info["bytes_per_event"] <= 6.0
        assert "trace_data" not in report.extras
        assert cross_validate(path, report).ok

    def test_trace_does_not_split_the_compile_cache(self):
        session = ReasonSession()
        kernel = random_ksat(20, 80, seed=4)
        first = session.run(kernel)
        traced = session.run(kernel, trace=True)
        assert not first.cache_hit
        assert traced.cache_hit  # tracing is not a compile knob
        assert cross_validate(traced.extras["trace_data"], traced).ok

    def test_service_trace_dir_content_addressing(self, tmp_path):
        kernel = random_ksat(30, 120, seed=6)
        with ReasonService(shards=2, trace_dir=tmp_path / "traces") as service:
            future = service.submit(kernel, trace=True)
            report = future.result()
            path = service.trace_path_for(future.fingerprint)
        assert str(path) == report.extras["trace"]["path"]
        assert path.exists()
        assert cross_validate(path, report).ok

    def test_same_kernel_traces_never_expose_a_partial_file(self, tmp_path):
        # Every traced request of one kernel maps to one content-addressed
        # path.  Once a future has resolved, a client may read that path at
        # any time — also while the next request of the kernel is being
        # traced — and must find a complete trace, never a truncated one.
        kernel = pigeonhole(5)
        with ReasonService(
            shards=2, policy="round-robin", trace_dir=tmp_path / "traces"
        ) as service:
            future = service.submit(kernel, trace=True)
            events = future.result().extras["trace"]["events"]
            path = service.trace_path_for(future.fingerprint)
            failures = []

            def keep_tracing():
                try:
                    for _ in range(40):
                        service.submit(kernel, trace=True).result()
                except Exception as error:
                    failures.append(error)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                tracer = threading.Thread(target=keep_tracing)
                tracer.start()
                observations = 0
                while tracer.is_alive():
                    assert TraceReader(path.read_bytes()).validate().events == events
                    observations += 1
                tracer.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
        assert not tracer.is_alive() and not failures
        assert observations > 0
        assert [entry.name for entry in path.parent.iterdir()] == [path.name]

    def test_a_run_that_raises_leaves_no_temp_file(self, tmp_path, monkeypatch):
        # The accelerator dies mid-replay, after events were emitted: the
        # backend owns the path writer and must take its temp file away.
        path = tmp_path / "run.trace"
        replay = ReasonAccelerator.run_symbolic_trace
        calls = []

        def dies_once(self, *args, **kwargs):
            calls.append(self)
            if len(calls) == 1:
                self.trace.emit(EventKind.DECIDE, 1, 3)
                raise RuntimeError("model fell over")
            return replay(self, *args, **kwargs)

        monkeypatch.setattr(ReasonAccelerator, "run_symbolic_trace", dies_once)
        session = ReasonSession()
        kernel = random_ksat(20, 80, seed=8)
        with pytest.raises(RuntimeError, match="fell over"):
            session.run(kernel, trace=str(path))
        assert list(tmp_path.iterdir()) == []
        report = session.run(kernel, trace=str(path))
        assert [entry.name for entry in tmp_path.iterdir()] == ["run.trace"]
        assert cross_validate(path, report).ok

    def test_retried_execute_fault_leaves_only_whole_traces(self, tmp_path, chaos):
        # An injected execute fault fires before the backend opens its
        # writer; after the retry the directory holds whole traces only.
        plan = chaos(FaultPlan(seed=1, execute_error_rate=1.0, max_injections=1))
        with ReasonService(
            shards=1, trace_dir=tmp_path / "traces", retry=RetryPolicy(max_attempts=3)
        ) as service:
            future = service.submit(random_ksat(20, 80, seed=9), trace=True)
            report = future.result(timeout=30)
            path = service.trace_path_for(future.fingerprint)
        assert plan.injected("execute") == 1
        assert [entry.name for entry in path.parent.iterdir()] == [path.name]
        assert cross_validate(path, report).ok

    def test_service_without_trace_dir_keeps_memory_capture(self):
        kernel = random_ksat(20, 80, seed=7)
        with ReasonService(shards=1) as service:
            report = service.submit(kernel, trace=True).result()
            with pytest.raises(ValueError, match="trace_dir"):
                service.trace_path_for("abc")
        assert cross_validate(report.extras["trace_data"], report).ok
