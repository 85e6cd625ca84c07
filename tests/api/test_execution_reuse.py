"""Execute once per artifact: a warm ``reason`` request is a report over
the run its artifact already carries, equal field for field to a fresh
execution — and every request that must still execute does."""

import pickle
import sys
import threading
from dataclasses import asdict, replace

import pytest

from repro import ReasonService, ReasonSession
from repro.api.backends import ReasonBackend
from repro.api.store import DiskStore
from repro.core.arch.config import DEFAULT_CONFIG
from repro.trace import TraceReader, cross_validate, timeline

from tests.corpus import KINDS, small, small_kernels

#: How a report was delivered, not what it says.
DELIVERY = ("cache_hit", "executed", "compile_s", "execute_s")




def content(report):
    """Every field of the report but the delivery circumstances."""
    fields = asdict(report)
    for name in DELIVERY:
        del fields[name]
    return fields


@pytest.mark.parametrize("queries", [1, 8])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_warm_reports_equal_a_fresh_execution(kind, queries):
    kernel, options = small(kind)
    fresh = ReasonSession().run(kernel, queries=queries, **options)
    session = ReasonSession()
    first, second, third = (
        session.run(kernel, queries=queries, **options) for _ in range(3)
    )
    assert fresh.executed and first.executed
    assert not second.executed and not third.executed
    assert session.executions == 1
    for report in (first, second, third):
        assert content(report) == content(fresh)
        assert report.identity() == fresh.identity()


def test_queries_only_scale_the_stored_run():
    # One execution at queries=1 serves a later queries=8 request.
    kernel, options = small("cnf")
    session = ReasonSession()
    session.run(kernel, **options)
    warm = session.run(kernel, queries=8, **options)
    fresh = ReasonSession().run(kernel, queries=8, **options)
    assert not warm.executed
    assert content(warm) == content(fresh)


class TestObservedRunsStillExecute:
    """``trace=`` (and the timeline read from it) after a summarised run."""

    @pytest.fixture()
    def warmed(self):
        kernel, options = small("cnf")
        session = ReasonSession()
        plain = session.run(kernel, **options)
        assert not session.run(kernel, **options).executed
        return session, kernel, plain

    def test_memory_trace(self, warmed):
        session, kernel, plain = warmed
        traced = session.run(kernel, trace=True)
        assert traced.executed and traced.cache_hit
        assert traced.identity() == plain.identity()
        assert cross_validate(traced.extras["trace_data"], traced).ok

    def test_file_trace(self, warmed, tmp_path):
        session, kernel, plain = warmed
        path = tmp_path / "warm.trace"
        traced = session.run(kernel, trace=str(path))
        assert traced.executed
        assert traced.identity() == plain.identity()
        assert path.stat().st_size == traced.extras["trace"]["bytes"]
        assert cross_validate(path, traced).ok

    def test_memory_trace_matches_a_cold_run(self, warmed):
        session, kernel, plain = warmed
        cold = ReasonSession().run(kernel, trace=True)
        traced = session.run(kernel, trace=True)
        assert traced.executed
        assert traced.identity() == plain.identity()
        assert list(TraceReader(traced.extras["trace_data"])) == list(
            TraceReader(cold.extras["trace_data"])
        )

    def test_record_events(self, warmed):
        session, kernel, plain = warmed
        cold = ReasonSession().run(kernel, trace=True)
        observed = session.run(kernel, trace=True)
        assert observed.executed
        assert observed.identity() == plain.identity()
        events = list(timeline(observed.extras["trace_data"]))
        assert events
        assert events == list(timeline(cold.extras["trace_data"]))
        # ... and the plain request after it is still a report only.
        after = session.run(kernel)
        assert not after.executed and "trace_data" not in after.extras

    def test_program_kernel_trace(self):
        kernel, options = small("circuit")
        session = ReasonSession()
        plain = session.run(kernel, **options)
        traced = session.run(kernel, trace=True, **options)
        assert traced.executed
        assert traced.identity() == plain.identity()
        assert cross_validate(traced.extras["trace_data"], traced).ok


@pytest.mark.parametrize("kind", ["cnf", "circuit"])
def test_other_config_executes(kind):
    kernel, options = small(kind)
    other = replace(DEFAULT_CONFIG, frequency_hz=250e6, dram_latency_cycles=40)
    session = ReasonSession()
    session.run(kernel, **options)
    artifact = session.compile(kernel, **options)
    assert artifact.execution.config == DEFAULT_CONFIG
    backend = ReasonBackend()
    report = backend.run(artifact, other, queries=8)
    expected = ReasonSession(config=other).run(kernel, queries=8, **options)
    assert report.executed
    # (Clock and DRAM latency are read by the model, not by the compiler.)
    assert content(report) == content(expected)
    assert report.seconds == report.cycles * other.cycle_time_s
    # Back under the first config: the same report as before the detour.
    assert content(backend.run(artifact, DEFAULT_CONFIG)) == content(
        ReasonSession().run(kernel, **options)
    )


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_an_equal_config_built_apart_is_a_report(kind):
    """A config equal to the stored summary's but built separately is
    not the same object, so equality decides: a report over the run
    the artifact carries, and the stored summary stays."""
    kernel, options = small(kind)
    session = ReasonSession()
    first = session.run(kernel, queries=8, **options)
    artifact = session.compile(kernel, **options)
    stored = artifact.execution
    twin = replace(DEFAULT_CONFIG)
    assert twin == DEFAULT_CONFIG and twin is not DEFAULT_CONFIG
    report = ReasonBackend().run(artifact, twin, queries=8)
    assert not report.executed
    assert report.identity() == first.identity()
    assert artifact.execution is stored


def test_two_first_executions_of_one_artifact_agree(monkeypatch):
    """Both threads find no summary and both execute (held together
    inside the model run): each returns the reference report."""
    kernel, options = small("cnf")
    reference = content(ReasonSession().run(kernel, queries=8, **options))
    artifact = ReasonSession().compile(kernel, **options)
    both_inside = threading.Barrier(2)
    execute = ReasonBackend._execute

    def rendezvous_then_execute(self, *args):
        both_inside.wait(timeout=30)
        return execute(self, *args)

    monkeypatch.setattr(ReasonBackend, "_execute", rendezvous_then_execute)
    reports = []
    workers = [
        threading.Thread(
            target=lambda: reports.append(ReasonBackend().run(artifact, queries=8))
        )
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    assert not any(worker.is_alive() for worker in workers)
    assert [report.executed for report in reports] == [True, True]
    assert [content(report) for report in reports] == [reference, reference]
    assert content(ReasonBackend().run(artifact, queries=8)) == reference


def test_contended_session_counts_every_execution():
    """More threads than cores first-execute shared artifacts through
    one session: every report is the reference one, and the execution
    counter loses no update (it equals the reports flagged executed)."""
    threads = 8
    requests = {kind: small(kind) for kind in KINDS}  # one kernel per kind, shared
    references = {
        kind: content(ReasonSession().run(kernel, queries=8, **options))
        for kind, (kernel, options) in requests.items()
    }
    session = ReasonSession()
    for kernel, options in requests.values():
        session.compile(kernel, **options)  # compiled, never executed
    barrier = threading.Barrier(threads)
    reports, errors = [], []

    def client():
        try:
            barrier.wait(timeout=30)
            for kind in KINDS:  # the same order: every first run is contended
                kernel, options = requests[kind]
                reports.append((kind, session.run(kernel, queries=8, **options)))
        except Exception as error:  # surfaced by the assert below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=client) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors
    assert len(reports) == threads * len(KINDS)
    for kind, report in reports:
        assert content(report) == references[kind]
    executed = sum(1 for _, report in reports if report.executed)
    assert len(KINDS) <= executed == session.executions


class TestDiskRoundTrip:
    def test_summary_is_dropped_from_pickled_state(self, tmp_path):
        kernel, options = small("circuit")
        session = ReasonSession()
        artifact = session.compile(kernel, **options)
        before = len(pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL))
        session.run(kernel, **options)
        assert artifact.execution is not None
        pickled = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        # Not even the field's name: the summary costs no stored byte.
        assert len(pickled) == before and b"execution" not in pickled
        store = DiskStore(tmp_path)
        store.put("k", artifact)
        assert store.get("k").execution is None
        assert artifact.execution is not None  # pickling left the live one alone

    def test_second_process_executes_once_more(self, tmp_path):
        kernel, options = small("hmm")
        reference = ReasonSession(store=f"disk:{tmp_path}").run(kernel, **options)
        restarted = ReasonSession(store=f"disk:{tmp_path}")
        first = restarted.run(kernel, **options)
        second = restarted.run(kernel, **options)
        assert first.cache_hit and first.executed
        assert second.cache_hit and not second.executed
        assert content(first) == content(second) == content(reference)


class TestWhichRequestsExecuted:
    def test_span_and_counter(self):
        kernel, options = small("cnf")
        with ReasonService(shards=1, metrics=True) as service:
            for _ in range(3):
                service.submit(kernel, **options).result()
            spans = service.spans()
            assert [span.executed for span in spans] == [True, False, False]
            service.submit(kernel, trace=True).result()
            assert service._shards[0].session.executions == 2
            metrics = service.metrics().snapshot()["metrics"]
        assert metrics["reason_executions_total"]["series"]["shard=0"] == 2
        assert metrics["reason_prepare_calls_total"]["series"]["shard=0"] == 1

    def test_other_backends_never_run_the_model(self):
        kernel, options = small("cnf")
        session = ReasonSession()
        for backend in ("software", "gpu", "roofline"):
            assert not session.run(kernel, backend=backend, **options).executed
        assert session.executions == 0

    def test_shared_store_shares_the_run_across_shards(self):
        kernel, options = small("circuit")
        with ReasonService(shards=2, policy="round-robin", store="shared") as service:
            reports = [
                service.submit(kernel, queries=8, **options).result() for _ in range(6)
            ]
            served = {shard.completed for shard in service.stats().shards}
        assert served == {3}  # both shards served the kernel ...
        assert sum(report.executed for report in reports) == 1  # ... from one run
        assert len({report.identity() for report in reports}) == 1


class TestPremise:
    def test_a_kernel_costs_the_same_per_query_on_every_request(self):
        """``ReasonBackend.run`` is a pure function of ``(artifact,
        config)``: per query, every report of a (fingerprint, backend) —
        cold, warm, traced, at any ``queries`` — costs what its first
        one did.

        If this fails, a report has started to depend on something
        besides the compiled artifact and the backend.  Revisit ROADMAP
        "Parked": with per-request run-time inputs, a warm report is a
        function of the input too.
        """
        pool = small_kernels()
        # Two rounds at queries=1 put each kernel's first report on
        # both substrates (alternating by turn, rotated by one); then mixed.
        rounds = [1, 1, 3, 8, 1, 50]
        settled = []
        with ReasonService(shards=2) as service:
            for turn, queries in enumerate(rounds):
                futures = [
                    service.submit(
                        pool[(i + turn) % len(pool)],
                        backend=("reason", "gpu")[i % 2],
                        queries=queries,
                    )
                    for i in range(len(pool))
                ]
                settled += [(future, future.result(timeout=60)) for future in futures]
                service.drain()
            traced = service.submit(pool[0], backend="reason", trace=True)
            settled.append((traced, traced.result(timeout=60)))
        assert settled[-1][1].executed and "trace_data" in settled[-1][1].extras
        first = {}
        for future, report in settled:
            first.setdefault((future.fingerprint, report.backend), report)
        assert len(first) == 2 * len(pool)
        assert all(report.queries == 1 for report in first.values())
        for future, report in settled:
            base = first[future.fingerprint, report.backend]
            # (x * q) / q is x to an ulp, and to the bit at q == 1.
            rel = 0.0 if report.queries == 1 else 1e-15
            assert report.seconds / report.queries == pytest.approx(base.seconds, rel=rel, abs=0.0)
            assert report.energy_j / report.queries == pytest.approx(
                base.energy_j, rel=rel, abs=0.0
            )
