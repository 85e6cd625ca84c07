"""Lock-cheap metrics primitives and the service-wide registry.

Three series kinds cover everything the serving stack needs to
report:

* :class:`Counter` — monotonically increasing totals (requests
  admitted, cache hits, bytes written);
* gauges — point-in-time levels that go both ways (queue depth,
  breaker state), served by snapshot-time callbacks (below);
* :class:`Histogram` — fixed *logarithmic* buckets
  (:data:`LATENCY_BUCKETS`) with quantile estimation, sized for
  latency-style data whose interesting range spans many orders of
  magnitude.  Log buckets keep the instrument fixed-size — no
  reservoir, no rebalancing — at the price of bounded relative
  quantile error (one bucket ratio, 2x).

Every instrument may carry **labels** (``backend="gpu"``,
``shard="2"``): instruments sharing a name form a family whose
children are keyed by their canonical label string.  Label sets and
instrument kinds are enforced per name — registering ``foo`` as both
a counter and a gauge, or with different label keys, raises.

Design rules the serving integration depends on:

* **Hot paths never touch the registry, nor a lock.**
  ``registry.histogram(...)`` is get-or-create under the registry
  lock; callers hold the returned instrument, whose ``observe()`` only
  queues the value.  Queued values are binned in one vectorised batch
  under the instrument's lock on every read, and once
  :data:`FOLD_AT` are waiting — exact under contention, which the
  thread-hammer tests assert.  ``Counter.inc`` takes its lock: it
  counts rare events (rejections).
* **Snapshot-time callbacks.**  State that already exists elsewhere
  (cache hit counters, queue depths, store sizes, a histogram's count)
  is exported by registering a zero-argument callable; it is
  evaluated only inside :meth:`MetricsRegistry.snapshot`, so mirroring
  it costs the hot path nothing.  :meth:`MetricsRegistry.register_fold`
  does the same for a source that queues its own batches.

There is no off mode: every session and service owns (or shares) a
registry.

:meth:`MetricsRegistry.snapshot` returns plain nested dicts (JSON-safe,
diffable, version-tagged); the exposition formats live in
:mod:`repro.metrics.render`.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import deque
from typing import Callable, Deque, Dict, List, Sequence, Tuple

import numpy as np

#: Snapshot schema version (bump when the nested-dict layout changes).
SNAPSHOT_VERSION = 1

#: Observations a histogram queues before it bins them without a read.
FOLD_AT = 4096


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


#: Every histogram's bucket upper bounds: 1 µs – 64 s, doubling
#: (``1e-6 * 2**k``, 27 bounds); an overflow bucket sits above the last.
LATENCY_BUCKETS: Tuple[float, ...] = tuple(1e-6 * 2.0**k for k in range(27))


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

    ``bounds`` are the finite bucket *upper* bounds,
    :data:`LATENCY_BUCKETS`; observations above the last bound land in
    an implicit overflow bucket.  Alongside the bucket counts the
    histogram tracks count, sum, min and max, so means are exact and
    extreme quantiles degrade to the true extremes instead of a bucket
    edge.

    :meth:`observe` only queues the value (a deque append, no lock);
    queued values are binned in one batch under the lock on every read
    and once :data:`FOLD_AT` are waiting.
    """

    kind = "histogram"
    bounds = LATENCY_BUCKETS
    __slots__ = ("_lock", "_pending", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: Deque[float] = deque()
        self._counts = np.zeros(len(LATENCY_BUCKETS) + 1, dtype=np.int64)  # +1 = overflow
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        if value != value:
            raise ValueError("cannot observe NaN")
        self._pending.append(value)
        if len(self._pending) >= FOLD_AT:
            with self._lock:
                self._fold()

    def observe_many(self, values: Sequence[float]) -> None:
        """Observe every value of ``values``, binned at once."""
        values = np.asarray(values, dtype=float)
        if np.isnan(values).any():
            raise ValueError("cannot observe NaN")
        with self._lock:
            self._fold(values)

    def _fold(self, values: np.ndarray = np.empty(0)) -> None:
        """Bin the queued observations and ``values`` in one vectorised
        step (searchsorted + bincount).  Call with the lock held: only
        folds pop, so the ``len`` counted are there to take."""
        pending = self._pending
        if pending:
            values = np.concatenate(([pending.popleft() for _ in range(len(pending))], values))
        if values.size:
            index = np.searchsorted(self.bounds, values)
            self._counts += np.bincount(index, minlength=len(self._counts))
            self._count += values.size
            self._sum += float(values.sum())
            self._min = min(self._min, float(values.min()))
            self._max = max(self._max, float(values.max()))

    def _read(self) -> Tuple[List[int], int, float, float, float]:
        with self._lock:
            self._fold()
            return self._counts.tolist(), self._count, self._sum, self._min, self._max

    @property
    def count(self) -> int:
        """Observations so far, queued ones included."""
        return self._read()[1]

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``).

        Walks the cumulative bucket counts and interpolates
        *geometrically* inside the winning bucket (the right
        interpolation for log-spaced bounds).  The estimate is clamped
        to the observed min/max, and an empty histogram returns 0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        counts, count, _, lo, hi = self._read()
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
        counts, count, total, lo, hi = self._read()
        return {
            "count": count,
            "sum": total,
            "min": lo if count else 0.0,
            "max": hi if count else 0.0,
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
    service: the service itself, its shard sessions and their compile
    caches all register instruments here, and one :meth:`snapshot`
    exports the lot.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self._folds: List[weakref.WeakMethod] = []

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
            if not isinstance(value, str):
                raise TypeError(
                    f"label {key}={value!r} of metric {name!r} must be a str, "
                    f"not {type(value).__name__}"
                )
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

    def histogram(self, name: str, help: str = "", **labels: str) -> Histogram:
        """Get-or-create the histogram for ``name`` + ``labels``."""
        return self._instrument(name, "histogram", Histogram, help, labels)

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

    def register_fold(self, fold: Callable[[], None]) -> None:
        """Call the bound method ``fold`` at the start of every
        :meth:`snapshot`: how a source that feeds its instruments in
        batches (the service's settled spans) lands what is still queued
        before it is read.  Held weakly: the registry does not keep the
        source alive, and a source that is gone has nothing to fold."""
        with self._lock:
            self._folds.append(weakref.WeakMethod(fold))

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
            folds = list(self._folds)
        for ref in folds:
            fold = ref()
            if fold is not None:
                fold()  # may register the histograms it feeds
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


def ensure_registry(value: object) -> MetricsRegistry:
    """Resolve the ``metrics=`` constructor argument the serving stack
    accepts everywhere: a :class:`MetricsRegistry` instance (shared), or
    ``None`` / ``True`` (a private one).  Telemetry has no off mode, so
    ``False`` is a :class:`TypeError` like any other value."""
    if isinstance(value, MetricsRegistry):
        return value
    if value is None or value is True:
        return MetricsRegistry()
    raise TypeError(
        f"metrics= accepts None, True or a MetricsRegistry, not {value!r} "
        f"(telemetry is always on; metrics=False no longer turns it off)"
    )
