"""Lock-cheap metrics primitives and the service-wide registry.

Three series kinds cover everything the serving stack needs to
report:

* :class:`Counter` — monotonically increasing totals (requests
  admitted, cache hits, bytes written);
* gauges — point-in-time levels that go both ways (queue depth,
  predicted busy seconds), served by snapshot-time callbacks (below);
* :class:`Histogram` — fixed *logarithmic* buckets with quantile
  estimation, sized for latency-style data whose interesting range
  spans many orders of magnitude.  Log buckets keep the instrument
  allocation-free and O(1) per observation — no reservoir, no
  rebalancing — at the price of bounded relative quantile error (one
  bucket ratio, ~2x at the default base; tighten with more buckets).

Every instrument may carry **labels** (``backend="gpu"``,
``shard="2"``): instruments sharing a name form a family whose
children are keyed by their canonical label string.  Label sets and
instrument kinds are enforced per name — registering ``foo`` as both a
counter and a gauge, or with different label keys, raises.

Design rules the serving integration depends on:

* **Hot paths never touch the registry.**  ``registry.counter(...)``
  is get-or-create under the registry lock; callers hold the returned
  instrument and call ``inc()`` / ``observe()`` directly, which takes
  only that instrument's own lock (uncontended in the common case —
  "lock-cheap", and exact under contention, which the thread-hammer
  tests assert).
* **Zero overhead when off.**  Nothing in this module is consulted
  unless a caller was constructed with a registry; the serving stack
  follows the trace subsystem's idiom
  (``emit = None if registry is None else instrument.inc``).
* **Snapshot-time callbacks.**  State that already exists elsewhere
  (cache hit counters, queue depths, store sizes) is exported by
  registering a zero-argument callable; it is evaluated only inside
  :meth:`MetricsRegistry.snapshot`, so mirroring it costs the hot path
  nothing.

:meth:`MetricsRegistry.snapshot` returns plain nested dicts (JSON-safe,
diffable, version-tagged); the exposition formats live in
:mod:`repro.metrics.render`.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Callable, Dict, Optional, Sequence, Tuple

#: Snapshot schema version (bump when the nested-dict layout changes).
SNAPSHOT_VERSION = 1

_VALID_KINDS = ("counter", "gauge", "histogram")


def canonical_labels(labels: Dict[str, str]) -> str:
    """One stable string per label set: ``"backend=gpu,shard=0"``.

    Keys are sorted, so insertion order never splits a series.  The
    empty label set canonicalizes to ``""`` (the unlabeled series).
    """
    if not labels:
        return ""
    return ",".join(f"{key}={labels[key]}" for key in sorted(labels))


def parse_labels(series: str) -> Dict[str, str]:
    """Invert :func:`canonical_labels` (renderers need the pairs back)."""
    if not series:
        return {}
    pairs = {}
    for part in series.split(","):
        key, _, value = part.partition("=")
        pairs[key] = value
    return pairs


def log_buckets(
    lo: float = 1e-6, hi: float = 64.0, per_octave: int = 1
) -> Tuple[float, ...]:
    """Geometric bucket upper bounds from ``lo`` to at least ``hi``.

    ``per_octave`` subdivides each power of two (1 → bounds double each
    step; 2 → each step multiplies by √2, halving the quantile error).
    The returned bounds are finite; every histogram adds an implicit
    overflow bucket above the last bound.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi for log buckets")
    if per_octave < 1:
        raise ValueError("per_octave must be >= 1")
    ratio = 2.0 ** (1.0 / per_octave)
    bounds = [lo]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * ratio)
    return tuple(bounds)


#: Default bounds for latency-style histograms: 1 µs – 64 s, doubling.
LATENCY_BUCKETS = log_buckets(1e-6, 64.0, per_octave=1)
#: Default bounds for residual-ratio histograms: centered on 1.0,
#: 1/64x – 64x in √2 steps (a prediction off by 2x lands ~2 buckets out).
RATIO_BUCKETS = log_buckets(1.0 / 64.0, 64.0, per_octave=2)


class Counter:
    """Monotonic counter.  ``inc`` adds one, exactly under thread
    contention."""

    kind = "counter"
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self) -> None:
        with self._lock:
            self._value += 1.0

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot_value(self) -> float:
        return self.value


class Histogram:
    """Fixed-log-bucket histogram with quantile estimation.

    ``bounds`` are the finite bucket *upper* bounds in increasing
    order; observations above the last bound land in an implicit
    overflow bucket.  Alongside the bucket counts the histogram tracks
    count, sum, min and max, so means are exact and extreme quantiles
    degrade to the true extremes instead of a bucket edge.
    """

    kind = "histogram"
    __slots__ = ("bounds", "_lock", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, bounds: Sequence[float] = LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # +1 = overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        # Bucket search happens outside the lock; only the increments
        # are serialized, so contended observers stay exact and cheap.
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``).

        Walks the cumulative bucket counts and interpolates
        *geometrically* inside the winning bucket (the right
        interpolation for log-spaced bounds).  The estimate is clamped
        to the observed min/max, and an empty histogram returns 0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            count = self._count
            counts = list(self._counts)
            lo, hi = self._min, self._max
        if count == 0:
            return 0.0
        rank = q * count
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.bounds):
                    return hi  # overflow bucket: the max is the bound
                upper = self.bounds[index]
                lower = self.bounds[index - 1] if index else upper / 2.0
                # Geometric interpolation by the rank's position
                # within this bucket's count.
                position = (rank - (cumulative - bucket_count)) / bucket_count
                position = min(max(position, 0.0), 1.0)
                if lower > 0:
                    estimate = lower * (upper / lower) ** position
                else:
                    estimate = lower + (upper - lower) * position
                return min(max(estimate, lo), hi)
        return hi

    def snapshot_value(self) -> Dict[str, object]:
        with self._lock:
            counts = list(self._counts)
            count = self._count
            total = self._sum
            lo = self._min if self._count else 0.0
            hi = self._max if self._count else 0.0
        return {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "buckets": [
                [bound, bucket]
                for bound, bucket in zip(self.bounds, counts)
                if bucket
            ],
            "overflow": counts[-1],
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class _Family:
    """All series registered under one metric name."""

    __slots__ = ("name", "kind", "help", "label_names", "children", "callbacks")

    def __init__(self, name: str, kind: str, help: str, label_names: Tuple[str, ...]):
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.children: Dict[str, object] = {}
        self.callbacks: Dict[str, Callable[[], float]] = {}


class MetricsRegistry:
    """Service-wide named registry of counters, gauges and histograms.

    One registry instance is shared by everything reporting on one
    service: the service itself, its shard sessions, their compile
    caches and the cost model all register instruments
    here, and one :meth:`snapshot` exports the lot.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # -------------------------------------------------------- registration

    def _family(
        self, name: str, kind: str, help: str, labels: Dict[str, str]
    ) -> Tuple[_Family, str]:
        """Get-or-create the family ``name`` and check that ``kind`` and
        the label names agree with it; returns it with the canonical
        series key of ``labels``.  Call with the registry lock held."""
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(
                f"metric name {name!r} must be non-empty and use only "
                f"letters, digits, '_' and ':'"
            )
        for key, value in labels.items():
            if "," in f"{key}{value}" or "=" in f"{key}{value}":
                raise ValueError(
                    f"label {key}={value!r} of metric {name!r} must not contain ',' or '='"
                )
        label_names = tuple(sorted(labels))
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(name, kind, help, label_names)
        else:
            if family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{family.kind}, not a {kind}"
                )
            if family.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} uses labels {family.label_names}, "
                    f"got {label_names}"
                )
            if help and not family.help:
                family.help = help
        return family, canonical_labels(labels)

    def _instrument(
        self,
        name: str,
        kind: str,
        factory: Callable[[], object],
        help: str,
        labels: Dict[str, str],
    ):
        with self._lock:
            family, series = self._family(name, kind, help, labels)
            instrument = family.children.get(series)
            if instrument is None:
                if series in family.callbacks:
                    raise ValueError(
                        f"metric {name!r} series {series!r} is already "
                        f"served by a snapshot callback"
                    )
                instrument = family.children[series] = factory()
            return instrument

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """Get-or-create the counter for ``name`` + ``labels``."""
        return self._instrument(name, "counter", Counter, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._instrument(
            name, "histogram", lambda: Histogram(buckets), help, labels
        )

    def register_callback(
        self,
        name: str,
        fn: Callable[[], float],
        kind: str = "gauge",
        help: str = "",
        **labels: str,
    ) -> None:
        """Serve one series from a zero-argument callable at snapshot
        time — the zero-overhead mirror for state that already exists
        (cache stats, queue depths, store sizes).  ``kind`` must be
        ``counter`` or ``gauge``; the callable's value is read only
        inside :meth:`snapshot`."""
        if kind not in ("counter", "gauge"):
            raise ValueError("callbacks serve counters or gauges only")
        with self._lock:
            family, series = self._family(name, kind, help, labels)
            if series in family.children or series in family.callbacks:
                raise ValueError(
                    f"metric {name!r} series {series!r} is already registered "
                    f"(label the series — e.g. shard=<index> — to export "
                    f"several instances side by side)"
                )
            family.callbacks[series] = fn

    # ------------------------------------------------------------- export

    def snapshot(self) -> Dict[str, object]:
        """Export every series as nested, JSON-safe dicts.

        Layout (``SNAPSHOT_VERSION`` 1)::

            {"version": 1,
             "metrics": {
               "<name>": {"kind": "counter"|"gauge"|"histogram",
                          "help": "...",
                          "label_names": ["shard", ...],
                          "series": {"": 12.0,
                                     "shard=0": {...histogram...}}}}}

        Series keys are canonical label strings (``""`` = unlabeled);
        histogram values are dicts with count/sum/min/max, the occupied
        ``[upper_bound, count]`` bucket pairs, the overflow count, and
        pre-computed p50/p95/p99 estimates.  Callback series are
        evaluated here (a callback that raises reports ``NaN`` rather
        than killing the snapshot).
        """
        with self._lock:
            families = list(self._families.values())
        metrics: Dict[str, object] = {}
        for family in families:
            series: Dict[str, object] = {}
            for key, instrument in sorted(family.children.items()):
                series[key] = instrument.snapshot_value()
            for key, fn in sorted(family.callbacks.items()):
                try:
                    series[key] = float(fn())
                except Exception:
                    series[key] = float("nan")
            metrics[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "series": series,
            }
        return {"version": SNAPSHOT_VERSION, "metrics": dict(sorted(metrics.items()))}


def ensure_registry(
    metrics: "Optional[object]",
) -> Optional[MetricsRegistry]:
    """Resolve the ``metrics=`` constructor argument the serving stack
    accepts everywhere: ``None``/``False`` (off), ``True`` (a fresh
    registry), or a :class:`MetricsRegistry` instance (shared)."""
    if metrics is None or metrics is False:
        return None
    if metrics is True:
        return MetricsRegistry()
    if isinstance(metrics, MetricsRegistry):
        return metrics
    raise TypeError(
        f"metrics= accepts None, True or a MetricsRegistry, "
        f"not {type(metrics).__name__}"
    )
