"""The stage-by-stage drive must stay the same computation as
``ReasonSession.run``; when the front end changes shape this fails and
``bench/staged.py`` has to follow."""

import random

import pytest

from repro import ReasonSession
from repro.api.cache import CompileCache

from bench import kernels
from bench.staged import StagedPipeline
from bench.tracing import Tracer

FAMILIES = {
    "cnf-unsat": lambda rng: kernels.graph_php_request(rng, 4, 3),
    "cnf-sat": lambda rng: kernels.light_logic(rng, 1, tiny=True),
    "circuit-pruned": lambda rng: kernels.circuit_request(rng, 6, 16, depth=2),
    "circuit-plain": lambda rng: kernels.circuit_request(rng, 6, 0, depth=2),
    "hmm-pruned": lambda rng: kernels.hmm_request(rng, 4, 4, 6, calibrated=True),
    "hmm-plain": lambda rng: kernels.hmm_request(rng, 4, 4, 6, calibrated=False),
    "hmm-default": lambda rng: kernels.small_request(rng, 2),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_staged_report_is_identical_to_session_run(family):
    request = FAMILIES[family](random.Random(family))
    twin = FAMILIES[family](random.Random(family))  # equal kernel, separate object
    request.queries = twin.queries = 3
    tracer = Tracer()
    staged = StagedPipeline(tracer, CompileCache(capacity=None))
    session = ReasonSession()
    for expect_hit in (False, True):
        report = session.run(request.kernel, queries=request.queries, **request.options)
        staged_report = staged.run(twin, request_id=0)
        assert staged_report.identity() == report.identity()
        assert staged_report.cache_hit is expect_hit
    names = {span.name for span in tracer.spans}
    assert {"api.adapters.fingerprint", "api.cache.lookup_miss", "api.cache.lookup_hit",
            "api.backends.run"} <= names
    if family.startswith("cnf"):
        assert "logic.solve" in names and "core.arch.replay" in names
    else:
        assert {"core.compiler.schedule", "core.arch.run_program"} <= names


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    with tracer.span("outer", 1) as outer:
        with tracer.span("inner", 1) as inner:
            pass
    self_seconds = tracer.self_seconds()
    assert tracer.spans[1].parent == 0 and tracer.spans[0].parent is None
    assert self_seconds["outer"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start)
    )
    assert self_seconds["inner"] == pytest.approx(inner.end - inner.start)
