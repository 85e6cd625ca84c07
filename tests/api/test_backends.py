"""Backend registry and cross-substrate parity: every kernel family runs
on every registered backend through one ExecutionReport, and the
accelerator model agrees with the software reference answers."""

import math

import pytest

from repro.api import (
    ExecutionReport,
    ReasonSession,
    get_backend,
    list_backends,
    register_backend,
)
from repro.api import backends
from repro.api.backends import Backend, ReasonBackend
from repro.hmm.inference import log_likelihood as hmm_ll
from repro.hmm.model import HMM
from repro.logic.generators import pigeonhole, random_ksat, redundant_sat
from repro.pc.inference import likelihood
from repro.pc.learn import random_circuit, sample_dataset

from tests.corpus import KINDS, small


REQUIRED_BACKENDS = ["reason", "software", "gpu", "cpu", "roofline"]


class AnswerBackend(Backend):
    """Answers one constant and counts the runs it served."""

    name = "test-answer"

    def __init__(self, answer):
        self.answer = answer
        self.runs = 0

    def run(self, artifact, config=None, queries=1, options=None):
        self.runs += 1
        return ExecutionReport(
            backend=self.name, kernel=artifact.kind, result=self.answer, cycles=1, seconds=1e-6
        )


@pytest.fixture
def answer_name(monkeypatch):
    """``test-answer``, registered for this test only:
    ``test_every_registered_backend_agrees`` runs every registered
    backend, so one left in the registry would fail it."""
    monkeypatch.setitem(backends._BACKENDS, AnswerBackend.name, AnswerBackend(0.0))
    return AnswerBackend.name


class TestRegistry:
    def test_at_least_four_backends_registered(self):
        names = list_backends()
        assert len(names) >= 4
        for required in REQUIRED_BACKENDS:
            assert required in names

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("quantum")
        session = ReasonSession()
        with pytest.raises(KeyError):
            session.run(random_ksat(6, 18, seed=0), backend="quantum")

    @pytest.mark.parametrize("name", REQUIRED_BACKENDS)
    def test_the_registry_holds_one_instance(self, name):
        assert get_backend(name) is get_backend(name)

    def test_every_session_runs_the_registered_instance(self, answer_name):
        shared = AnswerBackend(1.0)
        register_backend(answer_name, shared)
        formula = random_ksat(6, 18, seed=0)
        for session in (ReasonSession(), ReasonSession()):
            assert session.run(formula, backend=answer_name).result == 1.0
        assert shared.runs == 2

    def test_a_reregistration_reaches_a_session_that_ran_the_name(self, answer_name):
        session, formula = ReasonSession(), random_ksat(6, 18, seed=0)
        register_backend(answer_name, AnswerBackend(1.0))
        assert session.run(formula, backend=answer_name).result == 1.0
        register_backend(answer_name, AnswerBackend(2.0))
        assert session.run(formula, backend=answer_name).result == 2.0

    @pytest.mark.parametrize(
        "factory",
        [lambda: AnswerBackend(1.0), AnswerBackend, ReasonBackend, None],
        ids=["lambda", "class", "builtin-class", "none"],
    )
    def test_register_backend_takes_an_instance(self, answer_name, factory):
        registered = get_backend(answer_name)
        with pytest.raises(TypeError, match="not a factory"):
            register_backend(answer_name, factory)
        assert get_backend(answer_name) is registered


class TestEveryKernelOnEveryBackend:
    @pytest.fixture(scope="class")
    def session(self):
        return ReasonSession()

    @pytest.mark.parametrize("backend", REQUIRED_BACKENDS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_common_report_shape(self, session, backend, kind):
        kernel, kwargs = small(kind)
        report = session.run(kernel, backend=backend, **kwargs)
        assert isinstance(report, ExecutionReport)
        assert report.backend == backend
        assert report.kernel == kind
        assert report.seconds > 0.0
        assert report.queries == 1

    def test_reason_reports_cycles_and_energy(self, session):
        kernel, kwargs = small("cnf")
        report = session.run(kernel, backend="reason", **kwargs)
        assert report.cycles > 0 and report.energy_j > 0 and report.power_w > 0

    def test_roofline_diagnoses_memory_bound(self, session):
        kernel, kwargs = small("cnf")
        report = session.run(kernel, backend="roofline", **kwargs)
        # Symbolic kernels sit far left of the ridge point (paper Fig. 3d).
        assert report.extras["memory_bound"] is True
        assert report.extras["operational_intensity"] < 1.0


    @pytest.mark.parametrize("kind", KINDS)
    def test_roofline_charges_the_gpu_device_cost(self, session, kind):
        # Roofline is the profiling GPU's device cost plus its roofline
        # placement: the same seconds, energy and power as "gpu".
        kernel, kwargs = small(kind)
        roofline = session.run(kernel, backend="roofline", **kwargs)
        gpu = session.run(kernel, backend="gpu", **kwargs)
        assert roofline.energy_j > 0 and roofline.power_w > 0
        assert (roofline.seconds, roofline.energy_j, roofline.power_w) == (
            gpu.seconds, gpu.energy_j, gpu.power_w
        )
        assert roofline.extras["device"] == gpu.extras["device"]


class TestFunctionalParity:
    """software and reason are independent executors of the same kernel;
    their functional answers must agree."""

    def test_sat_verdict_agrees_on_satisfiable(self):
        session = ReasonSession()
        for seed in range(3):
            formula, _ = redundant_sat(25, 95, seed=seed)
            hardware = session.run(formula, backend="reason")
            software = session.run(formula, backend="software")
            assert hardware.result == software.result == 1.0

    def test_sat_verdict_agrees_on_unsatisfiable(self):
        session = ReasonSession()
        formula = pigeonhole(3)
        hardware = session.run(formula, backend="reason")
        software = session.run(formula, backend="software")
        assert hardware.result == software.result == 0.0

    def test_pc_marginal_matches_reference(self):
        session = ReasonSession()
        circuit = random_circuit(6, depth=3, seed=5)
        hardware = session.run(circuit, backend="reason")
        software = session.run(circuit, backend="software")
        assert hardware.result == pytest.approx(software.result)
        assert hardware.result == pytest.approx(likelihood(circuit, {}))

    def test_pc_marginal_parity_survives_pruning(self):
        session = ReasonSession()
        circuit = random_circuit(6, depth=2, seed=6)
        calibration = sample_dataset(circuit, 20, seed=7)
        hardware = session.run(circuit, backend="reason", calibration=calibration)
        software = session.run(circuit, backend="software", calibration=calibration)
        assert hardware.result == pytest.approx(software.result)

    def test_hmm_likelihood_matches_forward_algorithm(self):
        session = ReasonSession()
        hmm = HMM.random(4, 5, seed=8)
        observations = [0, 3, 1, 4, 2]
        hardware = session.run(hmm, backend="reason", hmm_observations=observations)
        software = session.run(hmm, backend="software", hmm_observations=observations)
        assert hardware.result == pytest.approx(software.result)
        assert math.log(hardware.result) == pytest.approx(hmm_ll(hmm, observations))

    def test_every_registered_backend_agrees(self):
        # Exactly the built-ins: a test backend left in the registry
        # would be run here too (and, if it blocks, stall the suite).
        assert sorted(REQUIRED_BACKENDS) == list_backends()
        for formula, answer in ((random_ksat(10, 30, seed=9), 1.0), (pigeonhole(3), 0.0)):
            session = ReasonSession()
            reports = {name: session.run(formula, backend=name) for name in list_backends()}
            functional = {n: r.result for n, r in reports.items() if r.result is not None}
            assert functional and set(functional.values()) == {answer}
