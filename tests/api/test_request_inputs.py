"""A request's ``queries``, neural-stage times, HMM symbols and
``trace`` target, and the constructors' counts, config and cost model,
are checked where they enter, the same way at every entry point."""

import math
import re
import threading

import numpy as np
import pytest

from repro.api import ReasonService, ReasonSession
from repro.api.resilience import resolve_deadline
from repro.core.dag import optimize
from repro.costmodel import CostEstimator
from repro.hmm.inference import log_likelihood
from repro.hmm.model import HMM
from repro.logic.generators import random_ksat
from repro.trace import TraceWriter

NOT_POSITIVE_INTEGERS = {
    "float": 2.5,
    "integral float": 2.0,
    "bool": True,
    "zero": 0,
    "negative": -3,
    "string": "4",
}


@pytest.mark.parametrize(
    "queries", NOT_POSITIVE_INTEGERS.values(), ids=list(NOT_POSITIVE_INTEGERS)
)
def test_queries_must_be_a_positive_integer(queries):
    hmm = HMM.random(4, 3, seed=1)
    message = f"queries must be a positive integer, not {queries!r}"
    with pytest.raises(ValueError, match=message):
        ReasonSession().run(hmm, queries=queries)
    with pytest.raises(ValueError, match=message):
        ReasonSession().run_batch([hmm], queries=queries)
    with ReasonService(shards=1) as service:
        with pytest.raises(ValueError, match=message):
            service.submit(hmm, queries=queries)
        assert service.stats().submitted == 0


def test_numpy_integer_queries_are_accepted():
    hmm = HMM.random(4, 3, seed=1)
    session = ReasonSession()
    report = session.run(hmm, queries=np.int64(3))
    assert report.cycles == session.run(hmm, queries=3).cycles


BAD_NEURAL_S = {
    "negative": (-1.0, ValueError),
    "nan": (math.nan, ValueError),
    "inf": (math.inf, ValueError),
    # Only a real number is a time: a bool is not 1.0 s, a str is not
    # parsed (nor, for a whole batch, walked character by character).
    "bool": (True, TypeError),
    "numpy bool": (np.True_, TypeError),
    "0-d bool array": (np.array(True), TypeError),
    "string": ("0.5", TypeError),
    "bytes": (b"1.5", TypeError),
    "none": (None, TypeError),
    "complex": (1j, TypeError),
}


@pytest.mark.parametrize("bad, error", BAD_NEURAL_S.values(), ids=list(BAD_NEURAL_S))
def test_neural_s_must_be_finite_and_not_negative(bad, error):
    hmm = HMM.random(4, 3, seed=1)
    with pytest.raises(error, match=r"neural_s\[1\] is"):
        ReasonSession().run_batch([hmm, hmm], neural_s=[0.5, bad])
    with pytest.raises(error, match=r"neural_s\[0\] is"):
        ReasonSession().run_batch([hmm, hmm], neural_s=bad)
    with ReasonService(shards=1) as service:
        with pytest.raises(error, match=r"neural_s\[0\] is"):
            service.submit(hmm, neural_s=bad)
        with pytest.raises(error, match=r"neural_s\[0\] is"):
            service.submit_batch([hmm, hmm], neural_s=bad)
        with pytest.raises(error, match=r"neural_s\[1\] is"):
            service.submit_batch([hmm, hmm], neural_s=[0.0, bad])
        assert service.stats().submitted == 0


def test_hmm_observations_are_checked_not_wrapped():
    hmm = HMM.random(3, 3, seed=2)
    session = ReasonSession()
    with pytest.raises(ValueError, match=r"observation 0 is symbol 5, outside .* 0\.\.2"):
        session.run(hmm, hmm_observations=[5, 1])
    with pytest.raises(ValueError, match=r"observation 1 is symbol -1"):
        session.run(hmm, hmm_observations=[2, -1])
    session.run(hmm, hmm_observations=[2, 1])
    assert len(session._cache) == 1


@pytest.mark.parametrize("symbol", [-1, 5])
def test_calibration_symbols_are_checked(symbol):
    hmm = HMM.random(3, 3, seed=2)
    calibration = [[0, symbol, 1], [1, 2, 0]]
    message = rf"observation 1 is symbol {symbol}, outside this HMM's symbols 0\.\.2"
    with pytest.raises(ValueError, match=message):
        ReasonSession().run(hmm, calibration=calibration)
    with pytest.raises(ValueError, match=message):
        optimize(hmm, calibration=calibration)
    with pytest.raises(ValueError, match=message):
        log_likelihood(hmm, calibration[0])


def test_a_logic_kernel_ignores_keep_fraction():
    # keep_fraction is a probabilistic-pruning option: a CNF's exact
    # pruning neither reads nor checks it.
    assert optimize(random_ksat(6, 18, seed=1), keep_fraction=1.5).dag is not None


def shard_counters(service):
    return [
        (s.submitted, s.completed, s.failed, s.cancelled, s.pending, s.expired)
        for s in service.stats().shards
    ]


@pytest.mark.parametrize(
    "deadline_s",
    [math.nan, math.inf, 1e300, threading.TIMEOUT_MAX * 2, 0.0, -1.0],
    ids=["nan", "inf", "huge", "past-timeout-max", "zero", "negative"],
)
def test_deadline_must_be_positive_and_armable(deadline_s):
    """A NaN deadline used to fail every request as "missed its nan
    deadline"; an infinite or huge one was admitted and killed the
    armed timer thread with an OverflowError."""
    hmm = HMM.random(4, 3, seed=1)
    message = "deadline_s must be positive and at most"
    with ReasonService(shards=2) as service:
        service.submit(hmm).result(timeout=60)
        service.drain(timeout=60)
        before = shard_counters(service)
        with pytest.raises(ValueError, match=message):
            service.submit(hmm, deadline_s=deadline_s)
        with pytest.raises(ValueError, match=message):
            service.submit_batch([hmm, hmm], deadline_s=deadline_s)
        assert shard_counters(service) == before


@pytest.mark.parametrize("deadline_s", ["interactive", "1.5", b"1.5"])
def test_text_is_not_a_deadline(deadline_s):
    """A deadline is seconds: a name or a numeral in text is refused
    before anything is admitted (``float(b"1.5")`` used to accept
    bytes)."""
    hmm = HMM.random(4, 3, seed=1)
    with ReasonService(shards=2) as service:
        service.submit(hmm).result(timeout=60)
        service.drain(timeout=60)
        before = shard_counters(service)
        with pytest.raises(TypeError, match="deadline_s must be seconds"):
            service.submit(hmm, deadline_s=deadline_s)
        with pytest.raises(TypeError, match="deadline_s must be seconds"):
            service.submit_batch([hmm, hmm], deadline_s=deadline_s)
        assert shard_counters(service) == before


def test_the_longest_armable_deadline_is_served():
    hmm = HMM.random(4, 3, seed=1)
    with ReasonService(shards=1) as service:
        report = service.submit(hmm, deadline_s=threading.TIMEOUT_MAX).result(timeout=60)
        service.drain(timeout=60)
        assert report.identity() == ReasonSession().run(hmm).identity()
        assert service.stats().expired == 0


@pytest.mark.parametrize("shards", [True, False, 1.5, 2.0, np.float64(2.0)])
def test_shard_count_must_be_an_integer(shards):
    with pytest.raises(ValueError, match=f"shards must be a shard count .*not {re.escape(repr(shards))}"):
        ReasonService(shards=shards)


def test_numpy_integer_shard_count_is_accepted():
    with ReasonService(shards=np.int64(3)) as service:
        assert service.num_shards == 3
        assert service.submit(HMM.random(4, 3, seed=1)).result(timeout=60).queries == 1


@pytest.mark.parametrize("breaker", [None, False, True])
def test_every_shard_has_a_breaker(breaker):
    with pytest.raises(TypeError, match="every shard has a circuit breaker"):
        ReasonService(shards=1, breaker=breaker)


def test_stats_window_is_bounded():
    with pytest.raises(ValueError, match="stats_window must be a positive integer, not None"):
        ReasonService(shards=1, stats_window=None)


def test_a_bool_is_not_a_deadline():
    """``True`` used to become a one-second deadline."""
    with pytest.raises(ValueError, match="deadline_s must be seconds, not True"):
        resolve_deadline(True)
    with ReasonService(shards=1) as service:
        with pytest.raises(ValueError, match="not False"):
            service.submit(HMM.random(4, 3, seed=1), deadline_s=False)
        assert service.stats().submitted == 0


@pytest.mark.parametrize("argument", ["max_queue", "cache_capacity", "stats_window"])
@pytest.mark.parametrize(
    "value", NOT_POSITIVE_INTEGERS.values(), ids=list(NOT_POSITIVE_INTEGERS)
)
def test_service_counts_must_be_positive_integers(argument, value):
    message = f"{argument} must be a positive integer, not {re.escape(repr(value))}"
    with pytest.raises(ValueError, match=message):
        ReasonService(shards=1, **{argument: value})
    if argument == "cache_capacity":
        with pytest.raises(ValueError, match=message):
            ReasonSession(cache_capacity=value)


def test_numpy_integer_service_counts_are_accepted():
    hmm = HMM.random(4, 3, seed=1)
    counts = {"max_queue": np.int64(2), "cache_capacity": np.int32(1), "stats_window": np.int64(3)}
    with ReasonService(shards=1, **counts) as service:
        for _ in range(4):
            service.submit(hmm).result(timeout=60)
        service.drain(timeout=60)
        (shard,) = service.stats().shards
        assert (shard.completed, shard.retained) == (4, 3)
    assert ReasonSession(cache_capacity=np.int64(2)).run(hmm).cycles > 0


@pytest.mark.parametrize(
    "trace",
    [1, 0, 2.5, b"x.trace", "", TraceWriter()],
    ids=["int", "zero", "float", "bytes", "empty", "writer"],
)
def test_a_bad_trace_fails_before_anything_compiles(trace):
    """A non-path ``trace`` used to fail with an AttributeError after
    the model had run, and ``""`` left a temp file behind."""
    formula = random_ksat(6, 18, seed=0)
    message = "trace must be None, a bool or a"
    session = ReasonSession()
    with pytest.raises((TypeError, ValueError), match=message):
        session.run(formula, trace=trace)
    with pytest.raises((TypeError, ValueError), match=message):
        session.run_batch([formula], trace=trace)
    assert session.prepare_calls == 0
    with ReasonService(shards=1) as service:
        with pytest.raises((TypeError, ValueError), match=message):
            service.submit(formula, trace=trace)
        assert service.stats().submitted == 0


@pytest.mark.parametrize(
    "field, value",
    [
        ("calibration", "abc"),
        ("calibration", b"\x00\x01"),
        ("calibration", bytearray(b"\x00\x01")),
        ("calibration", {0: 1}),
        ("hmm_observations", "01"),
    ],
    ids=["str", "bytes", "bytearray", "mapping", "observations-str"],
)
def test_a_malformed_option_container_fails_before_anything_compiles(field, value):
    """A str or a mapping where a sequence of records belongs used to be
    keyed, admitted and queued, then fail deep in the front end."""
    kernel = HMM.random(4, 3, seed=2)
    message = f"{field} must be a sequence of"
    session = ReasonSession()
    with pytest.raises(TypeError, match=message):
        session.run(kernel, **{field: value})
    with pytest.raises(TypeError, match=message):
        session.run_batch([kernel], **{field: value})
    assert session.prepare_calls == 0
    with ReasonService(shards=1) as service:
        with pytest.raises(TypeError, match=message):
            service.submit(kernel, **{field: value})
        assert service.stats().submitted == 0


def test_a_directory_trace_target_leaves_nothing_behind(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        ReasonSession().run(random_ksat(6, 18, seed=0), trace=str(target))
    assert [entry.name for entry in tmp_path.iterdir()] == ["taken"]
    assert not any(target.iterdir())


@pytest.mark.parametrize("config", ["x", None, {}], ids=["str", "none", "dict"])
def test_config_must_be_an_arch_config(config):
    """A bad config used to construct, then fail the first request."""
    with pytest.raises(TypeError, match="config must be an ArchConfig"):
        ReasonSession(config=config)
    with pytest.raises(TypeError, match="config must be an ArchConfig"):
        ReasonService(shards=1, config=config)


@pytest.mark.parametrize(
    "cost_model",
    [CostEstimator(), None, 0, False, "x", {}],
    ids=["estimator", "none", "zero", "false", "str", "dict"],
)
def test_a_service_takes_no_cost_model(cost_model):
    """Nothing on the request path prices a request, so there is no
    estimator to hand a service, not even ``None``."""
    with pytest.raises(TypeError, match="cost_model"):
        ReasonService(shards=1, cost_model=cost_model)
