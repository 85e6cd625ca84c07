"""Cost-model subsystem: predicted-time scheduling across substrates.

Queue-depth heuristics treat every request as equal work; mixed
neuro-symbolic traffic is anything but (a 110-clause SAT replay and a
3-state HMM differ by orders of magnitude).  This package builds the
explicit per-resource cost model the serving layer routes on:

* :class:`CostFeatures` — what the compiler front end knows about one
  kernel (schedule cycles, CDCL trace ops, roofline profile);
* :class:`CostEstimator` — predicted per-request latency and energy for
  each backend class (analytic device rooflines, REASON cycle counts);
* :class:`Calibrator` — online EWMA residuals keyed by kernel
  fingerprint that tighten predictions from observed execution reports.

:class:`~repro.api.service.ReasonService` owns an estimator, feeds it
every completed request, and hands its predictions to the time-aware
policies (``predicted-makespan``, ``cost-aware``) in
:mod:`repro.api.scheduler`.
"""

from repro.costmodel.calibrator import CalibrationStats, Calibrator
from repro.costmodel.estimator import CostEstimator
from repro.costmodel.features import CostFeatures, CostPrediction

__all__ = [
    "CalibrationStats",
    "Calibrator",
    "CostEstimator",
    "CostFeatures",
    "CostPrediction",
]
