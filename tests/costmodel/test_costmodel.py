"""Cost-model subsystem: features, static predictions, pricing."""

import sys
import threading
from types import SimpleNamespace

import pytest

from repro import ReasonSession
from repro.api.adapters import RunOptions, adapter_for
from repro.api.backends import DeviceBackend
from repro.api.types import ExecutionReport
from repro.baselines.device import KernelClass, KernelProfile, RTX_A6000
from repro.core.arch.config import DEFAULT_CONFIG
from repro.costmodel import CostEstimator, features as cost_features
from repro.costmodel.estimator import ALPHA, DEFAULT_S
from repro.logic.generators import random_ksat
from repro.pc.learn import random_circuit


def compiled(kernel, session=None):
    session = session or ReasonSession()
    options = RunOptions()
    adapter = adapter_for(kernel)
    fingerprint = adapter.fingerprint(kernel, options, session.config)
    artifact = session.compile(kernel)
    return session, fingerprint, artifact


def fake_artifact(schedule_cycles=1000):
    """Duck-typed artifact: exactly what CostFeatures.from_artifact reads."""
    profile = KernelProfile(KernelClass.MARGINAL, flops=2e4, bytes_accessed=8e4)
    stats = SimpleNamespace(cycles=schedule_cycles)
    return SimpleNamespace(kind="dag", profile=profile, compile_stats=stats, solver=None)


def report(seconds, queries=1, energy_j=0.0, compile_s=0.0, backend="reason"):
    return ExecutionReport(
        backend=backend,
        kernel="dag",
        result=1.0,
        cycles=0,
        seconds=seconds,
        energy_j=energy_j,
        queries=queries,
        compile_s=compile_s,
    )


class TestCostFeatures:
    def test_logic_kernel_features(self):
        _, _, artifact = compiled(random_ksat(14, 45, seed=0))
        features = cost_features.CostFeatures.from_artifact(artifact)
        assert features.kind == "cnf"
        assert features.profile is artifact.profile
        assert features.profile.kernel_class is KernelClass.LOGIC
        assert features.trace_ops > 0  # recorded CDCL work
        assert features.schedule_cycles == 0  # no VLIW schedule for logic

    def test_dag_kernel_features(self):
        _, _, artifact = compiled(random_circuit(4, depth=2, seed=1))
        features = cost_features.CostFeatures.from_artifact(artifact)
        assert features.kind == "circuit"
        assert features.schedule_cycles > 0
        assert features.trace_ops == 0
        assert features.schedule_cycles == artifact.compile_stats.cycles
        assert features.profile is artifact.profile

    def test_artifact_without_profile_reads_as_a_unit_logic_kernel(self):
        artifact = SimpleNamespace(
            kind="cnf",
            profile=None,
            compile_stats=None,
            solver=SimpleNamespace(stats=SimpleNamespace(clause_fetches=17)),
        )
        features = cost_features.CostFeatures.from_artifact(artifact)
        assert features == cost_features.CostFeatures(
            kind="cnf",
            profile=KernelProfile(KernelClass.LOGIC, flops=1.0, bytes_accessed=4.0, launches=1),
            schedule_cycles=0,
            trace_ops=17,
        )


class TestRemember:
    def test_returns_the_value_and_evicts_the_oldest_insert(self, monkeypatch):
        monkeypatch.setattr(cost_features, "MAX_TRACKED_FINGERPRINTS", 2)
        memo = {}
        assert cost_features.remember(memo, "a", 1) == 1
        cost_features.remember(memo, "b", 2)
        cost_features.remember(memo, "a", 3)  # re-insert: keeps "a" oldest
        cost_features.remember(memo, "c", 4)
        assert memo == {"b": 2, "c": 4}


class TestStaticPrediction:
    def test_device_prediction_matches_device_backend_exactly(self):
        """The static model *is* the analytic device backend's model."""
        session, fingerprint, artifact = compiled(random_circuit(4, depth=2, seed=3))
        estimator = CostEstimator()
        estimator.record_artifact(fingerprint, artifact)
        executed = DeviceBackend(RTX_A6000, name="gpu").run(artifact, queries=7)
        predicted = estimator.predict(fingerprint, "gpu", queries=7)
        assert predicted.seconds == pytest.approx(executed.seconds, rel=1e-12)
        assert predicted.energy_j == pytest.approx(executed.energy_j, rel=1e-12)
        assert predicted.source == "features"

    def test_reason_prediction_scales_with_schedule_cycles(self):
        estimator = CostEstimator()
        estimator.record_artifact("f1", fake_artifact(schedule_cycles=1000))
        one = estimator.predict("f1", "reason")
        assert one.seconds == pytest.approx(1000 * DEFAULT_CONFIG.cycle_time_s)
        assert estimator.predict("f1", "reason", queries=6).seconds == pytest.approx(
            6 * one.seconds
        )

    def test_a_name_no_backend_serves_has_no_static_model(self):
        """Only a registered device backend prices from a device model:
        a catalog device name nothing serves falls to the class prior
        and then to the cold-start default."""
        estimator = CostEstimator()
        estimator.record_artifact("f1", fake_artifact())
        prediction = estimator.predict("f1", "V100", queries=2)
        assert (prediction.source, prediction.seconds) == ("default", 2 * DEFAULT_S)

    def test_unknown_fingerprint_falls_back_to_default(self):
        estimator = CostEstimator()
        prediction = estimator.predict("never-seen", "reason", queries=3)
        assert prediction.seconds == pytest.approx(3 * DEFAULT_S)
        assert prediction.source == "default"

    def test_class_prior_fills_unmodeled_backends(self):
        """`software` has no static model: the (kind, backend) EWMA
        learned from one fingerprint prices another of the same kind."""
        estimator = CostEstimator()
        estimator.observe("fa", "cnf", "software", report(0.02, queries=2))
        prediction = estimator.predict("fb", "software", kind="cnf", queries=4)
        assert prediction.source == "class-prior"
        assert prediction.seconds == pytest.approx(0.04)  # 0.01/query x 4


class TestCalibration:
    def test_class_ratio_converges_over_distinct_fingerprints(self):
        """Seed the (kind, backend) ratio with one outlier kernel, then
        price distinct kernels at the true ratio: the prediction for a
        kernel the model has never seen must improve on every one."""
        estimator = CostEstimator()
        for name in ("outlier", "unseen", *(f"f{i}" for i in range(6))):
            estimator.record_artifact(name, fake_artifact(schedule_cycles=1000))
        raw = estimator.predict("unseen", "reason").seconds
        true_s = 3.0 * raw
        estimator.observe("outlier", "dag", "reason", report(10.0 * raw))
        errors = []
        for i in range(6):
            errors.append(abs(estimator.predict("unseen", "reason").seconds - true_s))
            estimator.observe(f"f{i}", "dag", "reason", report(true_s))
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 0.05 * errors[0]
        assert estimator.predict("unseen", "reason").source == "features"

    def test_second_observation_of_a_priced_pair_changes_nothing(self):
        """A (kernel, backend) is priced at its first settle and never
        averaged: a repeat, even a different one, moves neither its
        price nor what its class learned from it."""
        estimator = CostEstimator()
        estimator.record_artifact("f1", fake_artifact(schedule_cycles=1000))
        estimator.record_artifact("f2", fake_artifact(schedule_cycles=1000))
        estimator.observe("f1", "dag", "reason", report(4e-3, energy_j=1e-6, compile_s=0.5))
        priced = estimator.predict("f1", "reason", queries=3)
        unseen = estimator.predict("f2", "reason", queries=3)
        estimator.observe("f1", "dag", "reason", report(9e-3, energy_j=7e-6, compile_s=2.0))
        assert estimator.predict("f1", "reason", queries=3) == priced
        assert estimator.predict("f2", "reason", queries=3) == unseen
        assert priced.source == "calibrated"
        assert priced.seconds == 3 * 4e-3
        # The other backend of the same kernel is its own pair.
        assert estimator.predict("f1", "gpu").source == "features"

    def test_round_trip_on_real_kernel_is_exact_after_one_observation(self):
        session, fingerprint, artifact = compiled(random_ksat(14, 45, seed=4))
        observed = session.run(random_ksat(14, 45, seed=4), queries=5)
        estimator = CostEstimator(config=session.config)
        estimator.observe(fingerprint, "cnf", "reason", observed, artifact=artifact)
        predicted = estimator.predict(fingerprint, "reason", queries=5)
        assert predicted.seconds == pytest.approx(observed.seconds, rel=1e-9)
        assert predicted.energy_j == pytest.approx(observed.energy_j, rel=1e-9)

    def test_energy_learned_from_reports(self):
        estimator = CostEstimator()
        estimator.observe(
            "f1", "cnf", "reason", report(1e-3, energy_j=2e-4, compile_s=0.5)
        )
        prediction = estimator.predict("f1", "reason", kind="cnf", queries=2)
        assert prediction.energy_j == pytest.approx(4e-4)

    def test_own_price_beats_class_ratio_beats_static_model(self):
        estimator = CostEstimator()
        for name in ("fa", "fb", "fc"):
            estimator.record_artifact(name, fake_artifact(schedule_cycles=1000))
        raw = estimator.predict("fc", "reason").seconds
        estimator.observe("fa", "cnf", "reason", report(2.0 * raw))
        estimator.observe("fb", "cnf", "reason", report(8.0 * raw))
        # A priced kernel is priced from its own settle, to the bit.
        assert estimator.predict("fa", "reason", kind="cnf").seconds == 2.0 * raw
        assert estimator.predict("fb", "reason", kind="cnf").seconds == 8.0 * raw
        assert estimator.predict("fb", "reason", kind="cnf").source == "calibrated"
        # Unseen fingerprint of the same kind: static model x the class
        # EWMA (2 then 8 at gain 0.5).
        unseen = estimator.predict("fc", "reason", kind="cnf")
        assert unseen.seconds == pytest.approx(5.0 * raw)
        assert unseen.source == "features"
        # Unseen kind entirely: the static model alone.
        assert estimator.predict("fc", "reason", kind="hmm").seconds == raw

    def test_estimator_lifecycle(self):
        estimator = CostEstimator()
        assert not estimator.priced("fa", "reason")
        estimator.observe("fa", "cnf", "reason", report(1.0))
        assert estimator.priced("fa", "reason")
        assert not estimator.priced("fa", "gpu")
        assert list(estimator._prices) == [("fa", "reason")]
        assert estimator.predict("fb", "reason", kind="cnf").source == "class-prior"
        # "Reset" is a fresh estimator: it knows no price and no class.
        fresh = CostEstimator()
        assert not fresh.priced("fa", "reason")
        assert fresh.predict("fb", "reason", kind="cnf").source == "default"


class TestBoundedMemos:
    def test_per_fingerprint_tables_are_fifo_bounded(self, monkeypatch):
        # A service that sees a stream of distinct kernels keeps the
        # newest MAX_TRACKED_FINGERPRINTS of them, in every table.
        monkeypatch.setattr(cost_features, "MAX_TRACKED_FINGERPRINTS", 4)
        estimator = CostEstimator()
        for i in range(10):
            estimator.observe(
                f"fp{i}", "dag", "reason", report(1e-3, energy_j=1e-9), artifact=fake_artifact()
            )
        newest = [f"fp{i}" for i in range(6, 10)]
        assert list(estimator._features) == newest
        assert [fp for fp, _ in estimator._prices] == newest
        # A kept kernel is still priced from its own settle, an evicted
        # one from what its class learned — until its next settle
        # prices it again.
        assert estimator.predict("fp9", "reason").source == "calibrated"
        assert estimator.predict("fp0", "reason", kind="dag").source == "class-prior"
        estimator.observe("fp0", "dag", "reason", report(2e-3), artifact=fake_artifact())
        repriced = estimator.predict("fp0", "reason")
        assert (repriced.source, repriced.seconds) == ("calibrated", 2e-3)
        assert len(estimator._prices) == 4


class TestRace:
    def test_racing_first_settles_price_the_pair_once(self):
        estimator = CostEstimator()
        for name in ("seed", "hot"):
            estimator.record_artifact(name, fake_artifact(schedule_cycles=1000))
        estimator.observe("seed", "dag", "reason", report(1e-3, compile_s=0.25))
        settle = report(4e-3, queries=2, energy_j=6e-6, compile_s=0.75)
        barrier = threading.Barrier(12)
        failures = []

        def run(body):
            try:
                barrier.wait(timeout=30)
                body()
            except Exception as error:  # reported by the assertion below
                failures.append(error)

        def observe():
            estimator.observe("hot", "dag", "reason", settle, artifact=fake_artifact())

        def predict():
            for _ in range(300):
                prediction = estimator.predict("hot", "reason", queries=2)
                assert prediction.source in ("features", "calibrated")
                if prediction.source == "calibrated":
                    assert (prediction.seconds, prediction.energy_j) == (4e-3, 6e-6)

        threads = [
            threading.Thread(target=run, args=(body,))
            for body in [observe] * 6 + [predict] * 6
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not failures and not any(thread.is_alive() for thread in threads)
        assert estimator._prices["hot", "reason"] == (2e-3, 3e-6)
        # Six racing settles, one sample in each class table.
        assert estimator._class_seconds["dag", "reason"] == 1e-3 + ALPHA * (2e-3 - 1e-3)
        assert estimator.predict("hot", "reason").source == "calibrated"
