"""A request's ``queries``, neural-stage times and HMM symbols are
checked where they enter, the same way at every entry point."""

import math

import numpy as np
import pytest

from repro.api import ReasonService, ReasonSession
from repro.core.dag import optimize
from repro.hmm.inference import log_likelihood
from repro.hmm.model import HMM
from repro.logic.generators import random_ksat

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


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
def test_neural_s_must_be_finite_and_not_negative(bad):
    hmm = HMM.random(4, 3, seed=1)
    with pytest.raises(ValueError, match=r"neural_s\[1\] is"):
        ReasonSession().run_batch([hmm, hmm], neural_s=[0.5, bad])
    with pytest.raises(ValueError, match=r"neural_s\[0\] is"):
        ReasonSession().run_batch([hmm, hmm], neural_s=bad)
    with ReasonService(shards=1) as service:
        with pytest.raises(ValueError, match=r"neural_s\[0\] is"):
            service.submit(hmm, neural_s=bad)
        with pytest.raises(ValueError, match=r"neural_s\[1\] is"):
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
