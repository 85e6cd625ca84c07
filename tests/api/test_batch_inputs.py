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
