"""Static analysis for the repro stack: program verifier + idiom lint.

Two halves, one package:

* :mod:`repro.analysis.verifier` — an abstract interpreter over the
  compiler's :class:`~repro.core.compiler.program.Program` that checks
  the schedule invariants (residency, spill/reload pairing, capacity,
  issue order, cycle accounting, stats consistency) without executing.
* :mod:`repro.analysis.lint` — AST lint rules for the hand-rolled
  project idioms ruff cannot see (zero-overhead-when-off hooks,
  deterministic time/randomness, lock discipline, the exception
  taxonomy).

``python -m repro verify|lint`` is the command-line face;
:func:`check_artifact` is the gate
:class:`~repro.api.session.ReasonSession` runs on a cold compile under
``verify=True``; and
:mod:`repro.analysis.mutations` is the catalog of planted schedule
bugs used to mutation-test the verifier itself.
"""

from repro.analysis.verifier import (
    ERROR,
    INVARIANTS,
    WARNING,
    Finding,
    ProgramVerificationError,
    VerifyReport,
    check_artifact,
    expected_energy_events,
    verify_artifact,
    verify_execution,
    verify_program,
)

__all__ = [
    "ERROR",
    "INVARIANTS",
    "WARNING",
    "Finding",
    "ProgramVerificationError",
    "VerifyReport",
    "check_artifact",
    "expected_energy_events",
    "verify_artifact",
    "verify_execution",
    "verify_program",
]
