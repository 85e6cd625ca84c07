"""Online calibration: EWMA residuals keyed by kernel fingerprint.

The static cost model is exact for the analytic device backends (they
*are* the model) but only proportional for substrates with real
execution dynamics — the REASON trace replay, the software reference.
The :class:`Calibrator` closes that gap online: every observed
:class:`~repro.api.types.ExecutionReport` updates an exponentially
weighted moving average of the residual ratio ``observed / predicted``
keyed by ``(fingerprint, backend)``, with a class-level
``(kind, backend)`` fallback for fingerprints never seen before.
Energy and compile time, which some static models cannot produce at
all, are tracked as absolute per-query EWMAs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.costmodel.features import remember

Key = Tuple[str, str]  # (fingerprint, backend) or (kind, backend)


@dataclass
class CalibrationStats:
    """Point-in-time counters for introspection and tests."""

    observations: int = 0
    fingerprints: int = 0
    classes: int = 0


class _Ewma:
    """One exponentially weighted moving average (None until seeded)."""

    __slots__ = ("alpha", "value")

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.value: Optional[float] = None

    def update(self, sample: float) -> float:
        if self.value is None:
            self.value = sample
        else:
            self.value += self.alpha * (sample - self.value)
        return self.value


class Calibrator:
    """EWMA residual store refining static predictions from reports.

    ``alpha`` is the EWMA gain: 1.0 trusts only the latest observation,
    small values smooth over noisy substrates.  The defaults converge
    geometrically on deterministic models (each update cuts the
    residual error by ``alpha``), which is what the monotone-improvement
    tests assert.
    """

    def __init__(self, alpha: float = 0.5, metrics=None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._lock = threading.Lock()
        self._ratio: Dict[Key, _Ewma] = {}  # per-fingerprint residual ratio
        self._class_ratio: Dict[Key, _Ewma] = {}  # per-kind residual ratio
        self._class_seconds: Dict[Key, _Ewma] = {}  # absolute s/query prior
        self._energy: Dict[Key, _Ewma] = {}  # absolute J/query
        self._compile: Dict[str, _Ewma] = {}  # kind → compile seconds
        self._observations = 0
        self._metrics = None
        self._residual_hists: Dict[Key, object] = {}
        if metrics is not None:
            self.attach_metrics(metrics)

    def attach_metrics(self, registry) -> None:
        """Export residual-ratio histograms to a live-metrics registry
        (:mod:`repro.metrics`): every observed ``observed / raw``
        ratio lands in ``reason_costmodel_residual_ratio{backend,kind}``
        so a snapshot shows *how wrong the static model is* per kernel
        class, not just the EWMA it converged to.  Zero overhead until
        attached; the service attaches its registry at construction."""
        from repro.metrics.registry import ensure_registry

        self._metrics = ensure_registry(registry)

    def _residual_hist(self, kind: str, backend: str):
        hist = self._residual_hists.get((kind, backend))
        if hist is None:
            from repro.metrics.registry import RATIO_BUCKETS

            hist = self._metrics.histogram(
                "reason_costmodel_residual_ratio",
                "Observed/raw-predicted seconds per observation "
                "(1.0 = the static model was exact).",
                buckets=RATIO_BUCKETS,
                backend=backend,
                kind=kind,
            )
            self._residual_hists[(kind, backend)] = hist
        return hist

    # ------------------------------------------------------------ observe

    def _tracked(self, table: Dict[Key, _Ewma], key: Key) -> _Ewma:
        """The EWMA of one per-fingerprint table (FIFO-bounded; the
        per-class tables are bounded by the kinds and backends)."""
        ewma = table.get(key)
        if ewma is None:
            ewma = remember(table, key, _Ewma(self.alpha))
        return ewma

    def observe(
        self,
        fingerprint: str,
        kind: str,
        backend: str,
        observed_s: float,
        raw_s: Optional[float] = None,
        energy_j: Optional[float] = None,
        compile_s: Optional[float] = None,
    ) -> None:
        """Fold one observed per-query cost into the running averages.

        ``raw_s`` is the *uncalibrated* static prediction for the same
        request; when it is positive the ratio EWMAs learn, otherwise
        only the absolute class prior does.
        """
        ratio = None
        with self._lock:
            self._observations += 1
            key = (fingerprint, backend)
            class_key = (kind, backend)
            if raw_s is not None and raw_s > 0.0 and observed_s >= 0.0:
                ratio = observed_s / raw_s
                self._tracked(self._ratio, key).update(ratio)
                self._class_ratio.setdefault(class_key, _Ewma(self.alpha)).update(ratio)
            if observed_s >= 0.0:
                self._class_seconds.setdefault(class_key, _Ewma(self.alpha)).update(
                    observed_s
                )
            if energy_j is not None and energy_j >= 0.0:
                self._tracked(self._energy, key).update(energy_j)
            if compile_s is not None and compile_s > 0.0:
                self._compile.setdefault(kind, _Ewma(self.alpha)).update(compile_s)
        # Outside the EWMA lock: the histogram has its own, and the
        # registry lookup (first observation per class) must not nest.
        if ratio is not None and self._metrics is not None:
            self._residual_hist(kind, backend).observe(ratio)

    # ------------------------------------------------------------ queries

    def residual(self, fingerprint: str, kind: str, backend: str) -> float:
        """Multiplicative correction for one (fingerprint, backend):
        the fingerprint's own EWMA, else the kind-level EWMA, else 1."""
        with self._lock:
            ewma = self._ratio.get((fingerprint, backend))
            if ewma is not None and ewma.value is not None:
                return ewma.value
            ewma = self._class_ratio.get((kind, backend))
            if ewma is not None and ewma.value is not None:
                return ewma.value
        return 1.0

    def has_fingerprint(self, fingerprint: str, backend: str) -> bool:
        with self._lock:
            return (fingerprint, backend) in self._ratio

    def class_seconds(self, kind: str, backend: str) -> Optional[float]:
        """Absolute per-query prior for a kind the model can't price."""
        with self._lock:
            ewma = self._class_seconds.get((kind, backend))
            return ewma.value if ewma is not None else None

    def energy(self, fingerprint: str, backend: str) -> Optional[float]:
        with self._lock:
            ewma = self._energy.get((fingerprint, backend))
            return ewma.value if ewma is not None else None

    def compile_seconds(self, kind: str) -> Optional[float]:
        with self._lock:
            ewma = self._compile.get(kind)
            return ewma.value if ewma is not None else None

    # ---------------------------------------------------------- lifecycle

    @property
    def stats(self) -> CalibrationStats:
        with self._lock:
            return CalibrationStats(
                observations=self._observations,
                fingerprints=len(self._ratio),
                classes=len(self._class_seconds),
            )

    def reset(self) -> None:
        with self._lock:
            self._ratio.clear()
            self._class_ratio.clear()
            self._class_seconds.clear()
            self._energy.clear()
            self._compile.clear()
            self._observations = 0
