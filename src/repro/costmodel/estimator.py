"""`CostEstimator`: predicted per-request cost for every backend class.

What a kernel costs on a backend is a constant of the pair — the
``reason`` backend reports from one stored execution summary, the
analytic device backends *are* their static model — so the estimator
prices a ``(fingerprint, backend)`` **once**: its first settled
:class:`ExecutionReport` writes ``(seconds per query, joules per
query)`` into a price table, and every later prediction is that entry
times ``queries``.  Nothing is averaged per kernel.

A pair not yet priced falls through a ladder, most specific first:

* the static model over the kernel's
  :class:`~repro.costmodel.features.CostFeatures` × the ``(kind,
  backend)`` class ratio — for analytic device backends (``gpu`` /
  ``cpu`` / ``roofline`` / any
  :class:`~repro.api.backends.DeviceBackend`) the roofline-derated
  :meth:`DeviceModel.kernel_time_s`, which is *exactly* what those
  backends charge; for ``reason`` schedule cycles (DAG kernels) or
  recorded CDCL clause fetches (logic kernels) times the cycle time;
* the class's seconds-per-query prior, for backends without a static
  model (e.g. the ``software`` reference);
* a cold-start constant.

The class ratio and the class prior average over *different* kernels,
so they are EWMAs — fed by first settles only, one sample per priced
pair, so a hot kernel does not outvote the rest of its class.  The
serving layer (:class:`~repro.api.service.ReasonService`) feeds first
settles automatically; its predictions charge shard busy time and
give the request spans their residuals.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from repro.baselines.device import DeviceModel
from repro.core.arch.config import ArchConfig, DEFAULT_CONFIG
from repro.costmodel.features import CostFeatures, CostPrediction, remember
from repro.metrics.registry import RATIO_BUCKETS, MetricsRegistry

#: EWMA gain of the class tables: each new kernel of a class moves its
#: prior halfway to what that kernel cost.
ALPHA = 0.5

#: Cold-start seconds per query when neither features nor a class prior
#: exist — only placement order depends on it, never a reported
#: makespan, so a loose constant is fine.
DEFAULT_S = 1e-4

Key = Tuple[str, str]  # (fingerprint, backend) or (kind, backend)


class _Price(tuple):
    """A priced pair's table entry: ``(seconds, joules)`` per query, plus
    ``quote``, the pair's prediction at ``queries=1``.  The quote is
    built once, at the settle that prices the pair, so a settled warm
    request reads it instead of building one, and a FIFO eviction drops
    the price and its quote together."""

    quote: CostPrediction


def _fold(table: dict, key, sample: float) -> None:
    """One EWMA step of ``table[key]`` (seeded by its first sample)."""
    mean = table.get(key)
    table[key] = sample if mean is None else mean + ALPHA * (sample - mean)


class CostEstimator:
    """Predicts per-request latency and energy per backend class.

    ``config`` is the architecture configuration (it sets the REASON
    cycle time).  ``_features`` and ``_prices`` are GIL-atomic dict
    memos read without a lock; the one lock guards the
    read-modify-write of the class EWMAs at a pair's first settle.  The
    device model behind a backend name is read off the registered
    backend instance, so the estimator keeps no copy of the registry.
    """

    def __init__(self, config: ArchConfig = DEFAULT_CONFIG):
        self.config = config
        self._lock = threading.Lock()
        self._features: Dict[str, CostFeatures] = {}
        self._prices: Dict[Key, _Price] = {}  # (s, J) per query, and its quote
        self._class_ratio: Dict[Key, float] = {}  # observed / static seconds
        self._class_seconds: Dict[Key, float] = {}  # seconds per query
        self._metrics = MetricsRegistry()

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        """Export ``reason_costmodel_residual_ratio{backend,kind}`` to a
        live-metrics registry (:mod:`repro.metrics`) instead of the
        estimator's private one: ``observed / static`` seconds, one
        sample per priced pair, so a snapshot shows *how wrong the
        static model is* per kernel of a class, not just the EWMA it
        feeds.  The service attaches its registry at construction."""
        self._metrics = registry

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

    # ------------------------------------------------------- static model

    def raw_seconds(self, features: CostFeatures, backend: str) -> Optional[float]:
        """Static per-query latency, or None when the backend class has
        no static model for these features."""
        device = self._device_for(backend)
        if device is not None:
            return device.kernel_time_s(features.profile)
        if backend == "reason":
            cycles = features.schedule_cycles or features.trace_ops
            if cycles > 0:
                return cycles * self.config.cycle_time_s
        return None

    # ----------------------------------------------------------- predict

    def priced(self, fingerprint: str, backend: str) -> bool:
        """Whether the pair has settled once: the one dict probe a
        settled warm request's settle costs the model."""
        return (fingerprint, backend) in self._prices

    def predict(
        self,
        fingerprint: str,
        backend: str,
        queries: int = 1,
        kind: Optional[str] = None,
    ) -> CostPrediction:
        """Best available per-request cost for one (kernel, backend):
        the pair's own price, else static model × class ratio → class
        prior → cold-start default; see :class:`CostPrediction.source`.
        A priced pair at ``queries=1`` is its stored quote: one dict
        probe, and nothing read or built besides.
        """
        price = self._prices.get((fingerprint, backend))
        if price is not None and queries == 1:
            return price.quote
        queries = max(int(queries), 1)
        if price is not None:
            seconds, energy_j, source = price[0], price[1], "calibrated"
        else:
            features = self._features.get(fingerprint)
            kind = kind or (features.kind if features is not None else "")
            energy_j = 0.0
            raw = self.raw_seconds(features, backend) if features is not None else None
            if raw is not None:
                seconds = raw * self._class_ratio.get((kind, backend), 1.0)
                source = "features"
                device = self._device_for(backend)
                if device is not None:
                    energy_j = device.kernel_energy_j(features.profile)
            else:
                seconds = self._class_seconds.get((kind, backend))
                source = "class-prior"
                if seconds is None:
                    seconds, source = DEFAULT_S, "default"
        return CostPrediction(
            backend=backend,
            seconds=seconds * queries,
            energy_j=energy_j * queries,
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
        """Price one (kernel, backend) from its first settled request.

        ``report`` is the request's :class:`ExecutionReport`;
        ``artifact`` (when the caller still holds it, e.g. from the
        shard's compile cache) supplies the static features, extracted
        once per fingerprint.  A pair already priced returns at once —
        its cost is a constant, there is nothing to learn from a
        repeat; a pair the FIFO bound evicted is priced again here.
        The class tables take their one sample per pair in the same
        step, under the lock, so racing first settles count once.
        """
        key = (fingerprint, backend)
        if key in self._prices:
            return
        features = self._features.get(fingerprint)
        if features is None and artifact is not None:
            features = self.record_artifact(fingerprint, artifact)
        queries = max(int(report.queries), 1)
        seconds = report.seconds / queries
        raw = self.raw_seconds(features, backend) if features is not None else None
        ratio = None
        if raw is not None and raw > 0.0 and seconds >= 0.0:
            ratio = seconds / raw
        class_key = (kind, backend)
        with self._lock:
            if key in self._prices:
                return
            if ratio is not None:
                _fold(self._class_ratio, class_key, ratio)
            if seconds >= 0.0:
                _fold(self._class_seconds, class_key, seconds)
            price = _Price((seconds, report.energy_j / queries))
            price.quote = CostPrediction(backend, seconds, price[1], 1, "calibrated")
            remember(self._prices, key, price)
        # Outside the lock: the registry lookup must not nest.
        if ratio is not None:
            self._metrics.histogram(
                "reason_costmodel_residual_ratio",
                "Observed/static-model seconds of each priced (kernel, "
                "backend) (1.0 = the static model was exact).",
                buckets=RATIO_BUCKETS,
                backend=backend,
                kind=kind,
            ).observe(ratio)
