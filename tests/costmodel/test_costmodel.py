"""Cost-model subsystem: features and the static pricer's two rungs."""

from types import SimpleNamespace

import pytest

from repro import ReasonSession
from repro.api.adapters import RunOptions, adapter_for
from repro.api.backends import DeviceBackend, get_backend
from repro.baselines.device import KernelClass, KernelProfile, RTX_A6000
from repro.core.arch.config import DEFAULT_CONFIG
from repro.costmodel import CostEstimator, features as cost_features
from repro.costmodel.estimator import DEFAULT_S
from repro.logic.generators import random_ksat
from repro.pc.learn import random_circuit

from tests.corpus import KINDS, small


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
        executed = DeviceBackend(RTX_A6000, name="gpu").run(artifact)
        predicted = estimator.predict(fingerprint, "gpu")
        assert predicted.seconds == pytest.approx(executed.seconds, rel=1e-12)
        assert predicted.energy_j == pytest.approx(executed.energy_j, rel=1e-12)
        assert predicted.source == "features"

    @pytest.mark.parametrize("cycles", [1, 1000, 65536])
    def test_reason_prediction_scales_with_schedule_cycles(self, cycles):
        estimator = CostEstimator()
        estimator.record_artifact("f1", fake_artifact(schedule_cycles=cycles))
        one = estimator.predict("f1", "reason")
        assert one.seconds == pytest.approx(cycles * DEFAULT_CONFIG.cycle_time_s)
        assert one.source == "features"

    def test_kind_changes_no_price(self):
        """``kind`` is accepted and read by nothing: the recorded
        features carry their kernel's kind."""
        estimator = CostEstimator()
        estimator.record_artifact("f1", fake_artifact())
        for backend in ("reason", "gpu", "software"):
            plain = estimator.predict("f1", backend)
            assert estimator.predict("f1", backend, kind="cnf") == plain
            assert estimator.predict("f1", backend, kind="hmm") == plain

    def test_a_name_no_backend_serves_has_no_static_model(self):
        """Only a registered device backend prices from a device model:
        a catalog device name nothing serves falls to the cold-start
        default."""
        estimator = CostEstimator()
        estimator.record_artifact("f1", fake_artifact())
        prediction = estimator.predict("f1", "V100")
        assert (prediction.source, prediction.seconds) == ("default", DEFAULT_S)

    def test_unknown_fingerprint_falls_back_to_default(self):
        estimator = CostEstimator()
        prediction = estimator.predict("never-seen", "reason")
        assert prediction.seconds == DEFAULT_S
        assert prediction.source == "default"

    def test_a_backend_without_a_static_model_reads_the_default(self):
        """`software` has no static model, so a recorded kernel on it is
        priced at the cold-start constant, whatever its kind."""
        estimator = CostEstimator()
        estimator.record_artifact("fa", fake_artifact())
        prediction = estimator.predict("fa", "software", kind="cnf")
        assert (prediction.source, prediction.seconds, prediction.energy_j) == (
            "default", DEFAULT_S, 0.0
        )


class TestCompiledKernelPrices:
    """The static price of each kind of compiled kernel on each
    registered backend, against what that backend charges for it."""

    @pytest.mark.parametrize("backend", ["reason", "software", "gpu", "cpu", "roofline"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_static_price_of_a_compiled_kernel(self, kind, backend):
        kernel, _ = small(kind)
        artifact = ReasonSession().compile(kernel)
        estimator = CostEstimator()
        features = estimator.record_artifact("k", artifact)
        predicted = estimator.predict("k", backend)
        charged = get_backend(backend).run(artifact)
        if backend == "software":
            # No static model: the cold-start constant.
            assert (predicted.source, predicted.seconds, predicted.energy_j) == (
                "default", DEFAULT_S, 0.0
            )
        elif backend == "reason":
            # Schedule cycles for a DAG kernel, recorded clause fetches
            # for a logic kernel: never more than a run charges.
            if kind == "cnf":
                assert features.trace_ops == artifact.solver.stats.clause_fetches > 0
                cycles = features.trace_ops
            else:
                assert features.schedule_cycles == artifact.compile_stats.cycles > 0
                cycles = features.schedule_cycles
            assert predicted.source == "features"
            assert predicted.seconds == cycles * DEFAULT_CONFIG.cycle_time_s
            assert 0.0 < predicted.seconds <= charged.seconds
        else:
            # An analytic device backend charges exactly its roofline time.
            assert predicted.source == "features"
            assert predicted.seconds == pytest.approx(charged.seconds, rel=1e-12)
            assert predicted.energy_j == pytest.approx(charged.energy_j, rel=1e-12)


class TestBoundedMemos:
    def test_per_fingerprint_tables_are_fifo_bounded(self, monkeypatch):
        # A stream of distinct kernels keeps the newest
        # MAX_TRACKED_FINGERPRINTS of them; an evicted one reads the
        # cold-start default until it is recorded again.
        monkeypatch.setattr(cost_features, "MAX_TRACKED_FINGERPRINTS", 4)
        estimator = CostEstimator()
        for i in range(10):
            estimator.record_artifact(f"fp{i}", fake_artifact())
        assert list(estimator._features) == [f"fp{i}" for i in range(6, 10)]
        assert estimator.predict("fp9", "reason").source == "features"
        assert estimator.predict("fp0", "reason").source == "default"
        estimator.record_artifact("fp0", fake_artifact())
        assert estimator.predict("fp0", "reason").source == "features"
        assert list(estimator._features) == ["fp7", "fp8", "fp9", "fp0"]
