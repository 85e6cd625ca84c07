"""Generators are functions of the seed; the oracle objects to wrong
answers."""

import dataclasses
import random

import pytest

from repro import ReasonSession
from repro.core.arch.config import DEFAULT_CONFIG

from bench import kernels, oracle
from bench.workloads import WORKLOADS, answer_checker, fingerprint_of


def fingerprints(requests):
    return [fingerprint_of(request, DEFAULT_CONFIG) for request in requests]


def first_pass(name, seed):
    """The request list of a workload's first tiny pass, without
    starting the program under test."""
    workload = WORKLOADS[name]
    if name.startswith("cold-"):
        return workload.requests(seed, 0, True)
    if name == "warm-replay":
        return workload.requests(seed, True)
    if name == "service-steady":
        return kernels.paper_task_requests(seed, kernels.TINY_MIX)
    return workload.pool(seed, True, DEFAULT_CONFIG)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_kernels_other_seed_other_kernels(name):
    assert fingerprints(first_pass(name, 3)) == fingerprints(first_pass(name, 3))
    assert set(fingerprints(first_pass(name, 3))) != set(fingerprints(first_pass(name, 4)))


def test_cold_passes_never_repeat_a_kernel():
    workload = WORKLOADS["cold-logic"]
    seen = fingerprints(workload.requests(0, 0, True)) + fingerprints(
        workload.requests(0, 1, True)
    )
    assert len(set(seen)) == len(seen)


def test_relabel_keeps_the_shape_and_changes_the_fingerprint():
    request = kernels.light_logic(random.Random(1), 0, tiny=True)  # pigeonhole(3)
    twin = kernels.KernelRequest("twin", kernels.relabel(request.kernel, random.Random(2)))
    assert twin.kernel.num_vars == request.kernel.num_vars
    assert len(twin.kernel.clauses) == len(request.kernel.clauses)
    assert fingerprints([twin]) != fingerprints([request])


def test_graph_pigeonhole_is_unsatisfiable():
    session = ReasonSession()
    for seed in range(3):
        formula = kernels.graph_pigeonhole(4, 3, random.Random(seed))
        assert session.run(formula).result == 0.0


@pytest.mark.parametrize("name", ["cold-logic", "cold-prob"])
def test_oracle_accepts_right_answers_and_objects_to_wrong_ones(name):
    session = ReasonSession()
    verify = answer_checker(session)
    for request in WORKLOADS[name].requests(5, 0, True):
        report = session.run(request.kernel, queries=request.queries, **request.options)
        assert verify(request, report) is None
        if report.kernel == "cnf":
            wrong = dataclasses.replace(report, result=1.0 - report.result)
        else:
            wrong = dataclasses.replace(report, result=report.result * (1.0 + 1e-6))
        assert verify(request, wrong) is not None


def test_oracle_checks_sat_models_against_the_original_formula():
    request = kernels.light_logic(random.Random(7), 1, tiny=True)  # planted, SAT
    session = ReasonSession()
    report = session.run(request.kernel)
    artifact = session.artifact_for(fingerprint_of(request, session.config))
    assert oracle.check_answer(request, report, artifact) is None
    model = dict(artifact.extras["assignment"])
    broken = dataclasses.replace(
        artifact, extras={**artifact.extras, "assignment": {v: not b for v, b in model.items()}}
    )
    assert "does not satisfy" in oracle.check_answer(request, report, broken)


def test_identity_check_names_the_request():
    request = kernels.light_logic(random.Random(7), 0, tiny=True)
    report = ReasonSession().run(request.kernel)
    assert oracle.check_identity(request, report, report.identity()) is None
    assert request.name in oracle.check_identity(request, report, ("other",))
