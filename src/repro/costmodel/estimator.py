"""`CostEstimator`: predicted per-request cost for every backend class.

The static model prices a compiled kernel on each substrate from its
:class:`~repro.costmodel.features.CostFeatures`:

* analytic device backends (``gpu`` / ``cpu`` / ``roofline`` / any
  :class:`~repro.api.backends.DeviceBackend`) — the roofline-derated
  :meth:`DeviceModel.kernel_time_s` over the kernel's work profile,
  which is *exactly* what those backends charge at execution time;
* ``reason`` — schedule cycles (DAG kernels) or recorded CDCL
  clause fetches (logic kernels) times the configured cycle time;
* everything else (e.g. the ``software`` reference) — no static model;
  the class prior learned by the calibrator fills in.

An online :class:`~repro.costmodel.calibrator.Calibrator` refines all
of it from observed :class:`ExecutionReport`\\ s — EWMA residuals keyed
by kernel fingerprint, falling back to (kind, backend) class priors —
so predictions tighten as traffic flows.  The serving layer
(:class:`~repro.api.service.ReasonService`) feeds observations
automatically and hands predictions to the time-aware scheduling
policies.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.baselines.device import DeviceModel, device_named
from repro.core.arch.config import ArchConfig, DEFAULT_CONFIG
from repro.costmodel.calibrator import Calibrator
from repro.costmodel.features import CostFeatures, CostPrediction, remember


class CostEstimator:
    """Predicts per-request latency and energy per backend class.

    Parameters
    ----------
    config:
        Architecture configuration (sets the REASON cycle time).
    calibrator:
        Online residual store (a fresh one by default).
    default_s:
        Cold-start per-query latency guess when neither features nor a
        class prior exist — only placement order depends on it, never
        reported makespans, so a loose constant is fine.
    """

    def __init__(
        self,
        config: ArchConfig = DEFAULT_CONFIG,
        calibrator: Optional[Calibrator] = None,
        default_s: float = 1e-4,
    ):
        self.config = config
        self.calibrator = calibrator or Calibrator()
        self.default_s = default_s
        self._lock = threading.Lock()
        self._features: Dict[str, CostFeatures] = {}
        self._devices: Dict[str, Optional[DeviceModel]] = {}

    # ------------------------------------------------------------ features

    def record_artifact(self, fingerprint: str, artifact) -> CostFeatures:
        """Extract and store features for one compiled artifact."""
        features = CostFeatures.from_artifact(artifact)
        with self._lock:
            remember(self._features, fingerprint, features)
        return features

    def features_for(self, fingerprint: str) -> Optional[CostFeatures]:
        with self._lock:
            return self._features.get(fingerprint)

    def _device_for(self, backend: str) -> Optional[DeviceModel]:
        """Resolve the device model behind an analytic backend name.

        Registered backends win (``gpu`` → the RTX A6000 the gpu
        backend wraps); names that aren't backends fall back to the
        device catalog (:func:`~repro.baselines.device.device_named`),
        so ``predict(fp, "V100")`` prices a substrate nothing serves
        yet.  Lazy import: the costmodel package stays a leaf
        (importable before :mod:`repro.api` finishes initializing)."""
        with self._lock:
            if backend in self._devices:
                return self._devices[backend]
        from repro.api.backends import get_backend

        try:
            device = getattr(get_backend(backend), "device", None)
        except KeyError:
            try:
                device = device_named(backend)
            except KeyError:
                device = None
        with self._lock:
            self._devices[backend] = device
        return device

    # ------------------------------------------------------- static model

    def raw_seconds(self, features: CostFeatures, backend: str) -> Optional[float]:
        """Uncalibrated per-query latency, or None when the backend
        class has no static model for these features."""
        device = self._device_for(backend)
        if device is not None:
            return device.kernel_time_s(features.profile)
        if backend == "reason":
            cycles = features.schedule_cycles or features.trace_ops
            if cycles > 0:
                return cycles * self.config.cycle_time_s
        return None

    def raw_energy(self, features: CostFeatures, backend: str) -> Optional[float]:
        device = self._device_for(backend)
        if device is not None:
            return device.kernel_energy_j(features.profile)
        return None

    # ----------------------------------------------------------- predict

    def predict(
        self,
        fingerprint: str,
        backend: str,
        queries: int = 1,
        kind: Optional[str] = None,
        warm: bool = False,
    ) -> CostPrediction:
        """Best available per-request cost for one (kernel, backend).

        Falls through static-model × fingerprint residual → class
        prior → cold-start default; see :class:`CostPrediction.source`.

        ``warm=True`` declares the compiled artifact already available
        to whoever serves the request (e.g. resident in a service's
        shared :class:`~repro.api.store.ArtifactStore`), so the
        returned ``compile_s`` is zero: a shared hit is not a cold
        compile, and placement policies must not charge it as one.
        """
        queries = max(int(queries), 1)
        features = self.features_for(fingerprint)
        kind = kind or (features.kind if features is not None else "")
        raw = self.raw_seconds(features, backend) if features is not None else None
        if raw is not None:
            residual = self.calibrator.residual(fingerprint, kind, backend)
            calibrated = self.calibrator.has_fingerprint(fingerprint, backend)
            seconds = raw * residual * queries
            source = "calibrated" if calibrated else "features"
        else:
            prior = self.calibrator.class_seconds(kind, backend)
            if prior is not None:
                seconds, source = prior * queries, "class-prior"
            else:
                seconds, source = self.default_s * queries, "default"
        energy_per_query = self.calibrator.energy(fingerprint, backend)
        if energy_per_query is None and features is not None:
            energy_per_query = self.raw_energy(features, backend)
        if warm:
            compile_s = 0.0
        else:
            compile_s = features.compile_s if features is not None else None
            if not compile_s:
                compile_s = self.calibrator.compile_seconds(kind)
        return CostPrediction(
            backend=backend,
            seconds=seconds,
            energy_j=(energy_per_query or 0.0) * queries,
            compile_s=compile_s or 0.0,
            queries=queries,
            source=source,
        )

    # ----------------------------------------------------------- observe

    def observe(
        self,
        fingerprint: str,
        kind: str,
        backend: str,
        report,
        artifact=None,
    ) -> None:
        """Fold one executed request back into the model.

        ``report`` is the request's :class:`ExecutionReport`;
        ``artifact`` (when the caller still holds it, e.g. from the
        shard's compile cache) supplies the static features.  Features
        are extracted once per fingerprint: the content hash pins the
        artifact, so a hot kernel's repeats never re-walk its model.
        """
        if artifact is not None and self.features_for(fingerprint) is None:
            self.record_artifact(fingerprint, artifact)
        queries = max(int(report.queries), 1)
        observed_s = report.seconds / queries
        features = self.features_for(fingerprint)
        raw = self.raw_seconds(features, backend) if features is not None else None
        self.calibrator.observe(
            fingerprint,
            kind,
            backend,
            observed_s=observed_s,
            raw_s=raw,
            energy_j=report.energy_j / queries if report.energy_j else None,
            compile_s=report.compile_s if report.compile_s else None,
        )
