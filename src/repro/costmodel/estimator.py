"""`CostEstimator`: the offline static pricer of a kernel per backend.

Nothing on the serving path calls it: a request's modeled cost is its
own :class:`ExecutionReport`.  The estimator prices a compiled kernel
*before* it runs, from its :class:`~repro.costmodel.features.CostFeatures`
alone, on two rungs:

* ``features`` — the static model: for analytic device backends
  (``gpu`` / ``cpu`` / ``roofline`` / any
  :class:`~repro.api.backends.DeviceBackend`) the roofline-derated
  :meth:`DeviceModel.kernel_time_s`, which is *exactly* what those
  backends charge; for ``reason`` schedule cycles (DAG kernels) or
  recorded CDCL clause fetches (logic kernels) times the cycle time;
* ``default`` — a cold-start constant, for a kernel never recorded or a
  backend without a static model (e.g. the ``software`` reference).

The ``reason`` rung reads the schedule's length, so it sits below what
a run charges by the gap between the schedule's finish and the cycles
``run_program`` charges — a fact of the accelerator model, not of this
pricer.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.baselines.device import DeviceModel
from repro.core.arch.config import ArchConfig, DEFAULT_CONFIG
from repro.costmodel.features import CostFeatures, CostPrediction, remember

#: Cold-start seconds of a query when a kernel has no static model — a
#: loose constant: no reported or replayed number depends on it.
DEFAULT_S = 1e-4


class CostEstimator:
    """Static per-query latency and energy per backend class.

    ``config`` is the architecture configuration (it sets the REASON
    cycle time).  ``_features`` is a FIFO-bounded memo of each recorded
    kernel's features.  The device model behind a backend name is read
    off the registered backend instance, so the estimator keeps no copy
    of the registry.
    """

    def __init__(self, config: ArchConfig = DEFAULT_CONFIG):
        self.config = config
        self._features: Dict[str, CostFeatures] = {}

    # ------------------------------------------------------------ features

    def record_artifact(self, fingerprint: str, artifact) -> CostFeatures:
        """Extract and store features for one compiled artifact."""
        return remember(
            self._features, fingerprint, CostFeatures.from_artifact(artifact)
        )

    def _device_for(self, backend: str) -> Optional[DeviceModel]:
        """The device model of the backend registered under ``backend``
        (``gpu`` → the RTX A6000 the gpu backend wraps), or None for a
        backend without one or a name no backend is registered under.
        Lazy import: the costmodel package stays a leaf (importable
        before :mod:`repro.api` finishes initializing)."""
        from repro.api.backends import get_backend

        try:
            return getattr(get_backend(backend), "device", None)
        except KeyError:
            return None

    # ----------------------------------------------------------- predict

    def predict(
        self, fingerprint: str, backend: str, kind: Optional[str] = None
    ) -> CostPrediction:
        """Static cost of one query of one recorded kernel on one
        backend: the static model over its features, else the
        cold-start default; see :class:`CostPrediction.source`.
        ``kind`` is accepted for callers that pass it and read by
        nothing: the recorded features carry their kernel's kind.
        """
        features = self._features.get(fingerprint)
        seconds, energy_j, source = DEFAULT_S, 0.0, "default"
        if features is not None:
            device = self._device_for(backend)
            cycles = features.schedule_cycles or features.trace_ops
            if device is not None:
                seconds = device.kernel_time_s(features.profile)
                energy_j = device.kernel_energy_j(features.profile)
                source = "features"
            elif backend == "reason" and cycles > 0:
                seconds, source = cycles * self.config.cycle_time_s, "features"
        return CostPrediction(backend, seconds, energy_j, source)
