"""Cost-model subsystem: the offline static price of a compiled kernel
on each backend class.

Queue depth treats every request as equal work; mixed neuro-symbolic
traffic is anything but (a 110-clause SAT replay and a 3-state HMM
differ by orders of magnitude).  This package prices a kernel from what
the compiler front end knows, before it runs:

* :class:`CostFeatures` — what the compiler front end knows about one
  kernel (schedule cycles, CDCL trace ops, roofline profile);
* :class:`CostEstimator` — static per-request latency and energy for
  each backend class (analytic device rooflines, REASON cycle counts),
  or a cold-start constant where no static model applies;
* :class:`CostPrediction` — one such answer, and which rung gave it.

The serving layer does not call it: a served request's modeled cost is
its own :class:`~repro.api.types.ExecutionReport`, and
:class:`~repro.api.service.ReasonService` places requests on pending
counts.
"""

from repro.costmodel.estimator import CostEstimator
from repro.costmodel.features import CostFeatures, CostPrediction

__all__ = [
    "CostEstimator",
    "CostFeatures",
    "CostPrediction",
]
