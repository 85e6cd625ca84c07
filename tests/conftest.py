"""Shared fixtures for the test tree.

The schedule of the corpus's spill-heavy ``overflow`` kernel is
compiled here once because several suites pin it, two of them:
``tests/core/test_schedule_spill.py`` (scheduler spill/reload golden
counts) and ``tests/trace/test_execution_trace.py`` (trace-vs-report
cross-validation on a memory-pressure-dominated program).  One fixture
keeps the compiled schedule literally identical in both places, so the pinned counts can never drift apart.
"""

import pytest

from repro.core.compiler import compile_dag

from tests import chaos as chaos_drill, corpus


@pytest.fixture(scope="session")
def tiny_regfile():
    """The register-starved config the overflow kernel compiles under."""
    return corpus.TINY_REGFILE


@pytest.fixture(scope="session")
def overflow_schedule():
    """(program, stats) for the canonical spill-heavy kernel compiled
    against :data:`~tests.corpus.TINY_REGFILE` (the scheduler suite
    pins spills=71, reloads=47, loads=182 on this pair)."""
    return compile_dag(corpus.build("overflow")[0], corpus.TINY_REGFILE)


@pytest.fixture
def chaos(monkeypatch):
    """Arms a :class:`~tests.chaos.FaultPlan` for this test only:
    ``chaos(plan)`` wraps every registered backend and adapter in it
    (``monkeypatch.setitem``, as the ``gate`` fixture registers its
    backend) and returns the plan.  A store fault needs the plan's
    :class:`~tests.chaos.ChaosStore` passed as ``store=``."""
    return lambda plan: chaos_drill.arm(monkeypatch, plan)
