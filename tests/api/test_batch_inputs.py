"""Batch entry points broadcast any 0-d real ``neural_s`` to every kernel."""

import numpy as np
import pytest

from repro.api import ReasonService, ReasonSession
from repro.logic.generators import random_ksat

SCALARS = {
    "float32": np.float32(0.5),
    "int64": np.int64(1),
    "0-d array": np.array(0.25),
}


def kernels():
    return [random_ksat(6, 14, seed=seed) for seed in range(3)]


@pytest.mark.parametrize("scalar", SCALARS.values(), ids=list(SCALARS))
def test_session_run_batch_broadcasts_a_numpy_scalar(scalar):
    batch = ReasonSession().run_batch(kernels(), neural_s=scalar)
    assert len(batch.reports) == 3
    assert batch.neural_s == pytest.approx(3 * float(scalar))


@pytest.mark.parametrize("scalar", SCALARS.values(), ids=list(SCALARS))
def test_service_submit_batch_broadcasts_a_numpy_scalar(scalar):
    with ReasonService(shards=2) as service:
        futures = service.submit_batch(kernels(), neural_s=scalar)
        assert [future.neural_s for future in futures] == [float(scalar)] * 3
        assert all(type(future.neural_s) is float for future in futures)
        for future in futures:
            future.result(timeout=60)


def test_a_sequence_still_gives_one_value_per_kernel():
    times = np.array([0.1, 0.2, 0.3])
    with ReasonService(shards=2) as service:
        futures = service.submit_batch(kernels(), neural_s=times)
        assert [future.neural_s for future in futures] == times.tolist()
        for future in futures:
            future.result(timeout=60)
    with pytest.raises(ValueError, match="one neural_s per kernel"):
        ReasonSession().run_batch(kernels(), neural_s=[0.1, 0.2])


BAD_NEURAL_S = {
    "text scalar": ("fast", TypeError, "neural_s[0] is 'fast' (str): it must be a real number"),
    "negative scalar": (-0.5, ValueError, "neural_s[0] is -0.5: it must be finite and >= 0"),
    "None item": (
        [0.1, None, 0.3], TypeError, "neural_s[1] is None (NoneType): it must be a real number"
    ),
    "NaN item": ([0.1, 0.2, np.nan], ValueError, "neural_s[2] is nan: it must be finite and >= 0"),
}


@pytest.mark.parametrize("bad", BAD_NEURAL_S.values(), ids=list(BAD_NEURAL_S))
def test_a_bad_neural_s_is_named_by_its_index(bad):
    """A scalar is reported as ``neural_s[0]``, a sequence item by its
    own index, and both before any kernel runs or is admitted."""
    neural_s, error, message = bad
    session = ReasonSession()
    with pytest.raises(error) as excinfo:
        session.run_batch(kernels(), neural_s=neural_s)
    assert str(excinfo.value) == message and session.executions == 0
    with ReasonService(shards=1) as service:
        with pytest.raises(error) as excinfo:
            service.submit_batch(kernels(), neural_s=neural_s)
        assert str(excinfo.value) == message and service.stats().submitted == 0


def test_a_scalar_is_checked_once_per_batch(monkeypatch):
    from repro.api import adapters

    seen = []
    check = adapters.neural_time
    monkeypatch.setattr(adapters, "neural_time", lambda *args: seen.append(args) or check(*args))
    assert adapters.per_kernel_neural_s(64, 0.0) == [0.0] * 64
    assert seen == [(0.0,)]
    seen.clear()
    assert adapters.per_kernel_neural_s(0, "fast") == []  # an empty batch checks nothing
    assert seen == []
