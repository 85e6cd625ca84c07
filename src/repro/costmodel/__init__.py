"""Cost-model subsystem: predicted per-request cost across substrates.

Queue depth treats every request as equal work; mixed neuro-symbolic
traffic is anything but (a 110-clause SAT replay and a 3-state HMM
differ by orders of magnitude).  This package builds the explicit
per-resource cost model the serving layer accounts in:

* :class:`CostFeatures` — what the compiler front end knows about one
  kernel (schedule cycles, CDCL trace ops, roofline profile);
* :class:`CostEstimator` — predicted per-request latency and energy for
  each backend class: a ``(fingerprint, backend)`` that has settled
  once is priced from that run, anything else from the static model
  (analytic device rooflines, REASON cycle counts) and what its
  ``(kind, backend)`` class has cost so far;
* :class:`CostPrediction` — one such answer, and which rung gave it.

:class:`~repro.api.service.ReasonService` owns an estimator and feeds
it each pair's first completed request.  Its predictions charge each
shard's busy time and give every request span its predicted-vs-actual
residuals.
"""

from repro.costmodel.estimator import CostEstimator
from repro.costmodel.features import CostFeatures, CostPrediction

__all__ = [
    "CostEstimator",
    "CostFeatures",
    "CostPrediction",
]
