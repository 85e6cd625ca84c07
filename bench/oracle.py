"""Independent correctness oracle, run outside every timed window.

A request is correct when the answer in its :class:`ExecutionReport`
agrees with something that did not come from the code path that
produced it:

* SAT: the solver's model, evaluated against the *original* CNF (the
  solver saw the pruned one);
* UNSAT: known by construction (pigeonhole families), or confirmed by
  the independent :class:`repro.logic.dpll.DPLLSolver` — generators
  only leave the verdict open on kernels small enough for it;
* circuits and HMMs: the reference inference routines on the artifact's
  (possibly pruned) model, relative tolerance 1e-9;
* any repeat or service run of a kernel: ``identity()`` equal to the
  first ``ReasonSession.run`` of that kernel.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.api.types import CompiledArtifact, ExecutionReport
from repro.hmm.inference import log_likelihood as hmm_log_likelihood
from repro.logic.dpll import DPLLSolver
from repro.pc.inference import likelihood

from bench.kernels import KernelRequest

REL_TOL = 1e-9


def check_answer(
    request: KernelRequest, report: ExecutionReport, artifact: Optional[CompiledArtifact]
) -> Optional[str]:
    """None when the report's answer is right, else one line saying
    what is wrong.  ``artifact`` is the compiled artifact the session
    served the request from."""
    if artifact is None:
        return f"{request.name}: no compiled artifact to check against"
    if report.kernel == "cnf":
        return _check_cnf(request, report, artifact)
    if report.kernel == "circuit":
        expected = likelihood(artifact.model, {})
    elif report.kernel == "hmm":
        expected = math.exp(
            hmm_log_likelihood(artifact.model, artifact.extras["observations"])
        )
    else:
        return f"{request.name}: no oracle for kernel kind {report.kernel!r}"
    if report.result is None or not math.isclose(
        report.result, expected, rel_tol=REL_TOL, abs_tol=0.0
    ):
        return f"{request.name}: result {report.result!r} != reference {expected!r}"
    return None


def _check_cnf(
    request: KernelRequest, report: ExecutionReport, artifact: CompiledArtifact
) -> Optional[str]:
    formula = request.kernel
    if report.result == 1.0:
        if request.satisfiable is False:
            return f"{request.name}: SAT verdict on a formula UNSAT by construction"
        model = artifact.extras.get("assignment") or {}
        # Variables the pruned formula no longer mentions are free.
        total = {v: model.get(v, False) for v in range(1, formula.num_vars + 1)}
        if not formula.is_satisfied_by(total):
            return f"{request.name}: SAT model does not satisfy the original CNF"
        return None
    if report.result != 0.0:
        return f"{request.name}: verdict {report.result!r} is neither SAT nor UNSAT"
    if request.satisfiable is True:
        return f"{request.name}: UNSAT verdict on a formula with a planted model"
    if request.satisfiable is None and DPLLSolver().solve(formula) is not None:
        return f"{request.name}: UNSAT verdict but DPLL found a model"
    return None


def check_identity(
    request: KernelRequest, report: ExecutionReport, reference: tuple
) -> Optional[str]:
    """A replayed or service-routed report must be bit-identical to the
    reference session's report for the same kernel and options."""
    if report.identity() != reference:
        return f"{request.name}: identity {report.identity()!r} != reference {reference!r}"
    return None
