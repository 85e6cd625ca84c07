"""The price quote: a priced (fingerprint, backend) pair keeps its
``queries=1`` prediction in its price entry, so a settled warm request
reads one object and builds none.  Every answer must equal the full
ladder's, written out below as the reference."""

from types import SimpleNamespace

import pytest

from repro.api.types import ExecutionReport
from repro.baselines.device import KernelClass, KernelProfile
from repro.costmodel import CostEstimator, features as cost_features
from repro.costmodel.estimator import DEFAULT_S
from repro.costmodel.features import CostPrediction


def ladder(estimator, fingerprint, backend, queries=1, kind=None):
    """The full ladder, rung by rung: the pair's price, else static model
    × class ratio, else class prior, else the cold-start constant."""
    queries = max(int(queries), 1)
    features = estimator._features.get(fingerprint)
    kind = kind or (features.kind if features is not None else "")
    price = estimator._prices.get((fingerprint, backend))
    energy_j = 0.0
    if price is not None:
        seconds, energy_j, source = price[0], price[1], "calibrated"
    else:
        raw = estimator.raw_seconds(features, backend) if features is not None else None
        if raw is not None:
            seconds = raw * estimator._class_ratio.get((kind, backend), 1.0)
            source = "features"
            device = estimator._device_for(backend)
            if device is not None:
                energy_j = device.kernel_energy_j(features.profile)
        else:
            seconds = estimator._class_seconds.get((kind, backend))
            source = "class-prior"
            if seconds is None:
                seconds, source = DEFAULT_S, "default"
    return CostPrediction(backend, seconds * queries, energy_j * queries, queries, source)


def artifact(cycles):
    profile = KernelProfile(KernelClass.MARGINAL, flops=2e4, bytes_accessed=8e4)
    return SimpleNamespace(
        kind="dag", profile=profile, compile_stats=SimpleNamespace(cycles=cycles), solver=None
    )


def report(seconds, energy_j, backend="reason", queries=1):
    return ExecutionReport(
        backend=backend,
        kernel="dag",
        result=1.0,
        cycles=0,
        seconds=seconds,
        energy_j=energy_j,
        queries=queries,
    )


class Exploding(dict):
    """A ``_features`` table a settled warm prediction must not read."""

    def get(self, *args):
        raise AssertionError("a priced quote read the features table")


@pytest.mark.parametrize("backend", ["reason", "gpu", "software"])
@pytest.mark.parametrize("queries", [1, 8])
def test_quote_equals_the_ladders_calibrated_answer(backend, queries):
    estimator = CostEstimator()
    # Priced from a report of 3 queries: per-query (s, J) is a division,
    # so the quote must hold the divided values, not the report's.
    estimator.observe("fa", "dag", backend, report(3.3e-4, 7.7e-9, backend, 3), artifact(900))
    expected = ladder(estimator, "fa", backend, queries, kind="dag")
    assert expected.source == "calibrated"
    assert estimator.predict("fa", backend, queries) == expected
    assert estimator.predict("fa", backend, queries, kind="dag") == expected


def test_a_settled_quote_is_one_object_and_reads_no_features():
    estimator = CostEstimator()
    estimator.observe("fa", "dag", "reason", report(2e-4, 3e-9), artifact(700))
    quote = estimator.predict("fa", "reason")
    estimator._features = Exploding(estimator._features)
    assert estimator.predict("fa", "reason") is quote
    assert estimator.predict("fa", "reason", 1, "dag") is quote
    assert quote == CostPrediction("reason", 2e-4, 3e-9, 1, "calibrated")


@pytest.mark.parametrize("queries", [1, 8])
def test_unpriced_rungs_equal_the_ladder(queries):
    estimator = CostEstimator()
    estimator.record_artifact("fb", artifact(1200))
    estimator.observe("fa", "dag", "reason", report(5e-4, 1e-9), artifact(800))
    estimator.observe("fa", "dag", "software", report(6e-4, 0.0, "software"))
    for fingerprint, backend, kind, source in [
        ("fb", "reason", None, "features"),  # × the dag class ratio
        ("fb", "gpu", None, "features"),  # with the device's energy
        ("fc", "software", "dag", "class-prior"),
        ("fc", "reason", "cnf", "default"),
    ]:
        expected = ladder(estimator, fingerprint, backend, queries, kind)
        assert expected.source == source
        assert estimator.predict(fingerprint, backend, queries, kind) == expected


def test_an_evicted_pair_falls_down_the_ladder_until_repriced(monkeypatch):
    monkeypatch.setattr(cost_features, "MAX_TRACKED_FINGERPRINTS", 2)
    estimator = CostEstimator()
    for name in ("f0", "f1", "f2"):
        estimator.observe(name, "dag", "reason", report(1e-4, 1e-9), artifact(1000))
    # f0's price and its quote went out together: nothing still answers
    # "calibrated" for it.
    assert ("f0", "reason") not in estimator._prices
    for queries in (1, 8):
        fallback = estimator.predict("f0", "reason", queries, kind="dag")
        assert fallback.source != "calibrated"
        assert fallback == ladder(estimator, "f0", "reason", queries, kind="dag")
    estimator.observe("f0", "dag", "reason", report(4e-4, 2e-9), artifact(1000))
    repriced = estimator.predict("f0", "reason")
    assert repriced == CostPrediction("reason", 4e-4, 2e-9, 1, "calibrated")
    assert repriced == ladder(estimator, "f0", "reason")
    assert ("f1", "reason") not in estimator._prices
