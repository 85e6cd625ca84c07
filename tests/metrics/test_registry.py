"""Metrics primitives: exactness under contention, quantile accuracy,
family/label enforcement, and snapshot-time callbacks."""

import math
import sys
import threading

import pytest

from repro.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    ensure_registry,
)


class TestLatencyBuckets:
    def test_bounds_double_from_one_microsecond(self):
        # Every histogram's buckets; snapshots and the bench read them.
        assert LATENCY_BUCKETS == tuple(1e-6 * 2**k for k in range(27))
        assert LATENCY_BUCKETS[-2] < 64.0 <= LATENCY_BUCKETS[-1]
        assert Histogram().bounds is LATENCY_BUCKETS


class TestThreadSafety:
    """Hammer one instrument from N threads; totals must be exact."""

    THREADS = 8
    PER_THREAD = 2000

    def _hammer(self, work):
        threads = [
            threading.Thread(target=work) for _ in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_counter_exact_under_contention(self):
        counter = Counter()
        self._hammer(lambda: [counter.inc() for _ in range(self.PER_THREAD)])
        assert counter.value == self.THREADS * self.PER_THREAD

    def test_histogram_exact_count_and_sum(self):
        hist = Histogram()
        values = [1e-5 * (i % 7 + 1) for i in range(self.PER_THREAD)]

        def work():
            for value in values:
                hist.observe(value)

        self._hammer(work)
        snapshot = hist.snapshot_value()
        assert snapshot["count"] == self.THREADS * self.PER_THREAD
        assert snapshot["sum"] == pytest.approx(self.THREADS * sum(values))

    def test_observe_and_snapshot_concurrently_stay_exact(self):
        # Readers fold while writers queue: every observation lands in
        # exactly one fold, whichever thread runs it.
        hist = Histogram()
        counts = []

        def write():
            for index in range(self.PER_THREAD):
                hist.observe(1e-5 * (index % 7 + 1))

        def read():
            for _ in range(200):
                counts.append(hist.snapshot_value()["count"])
                hist.quantile(0.5)

        threads = [threading.Thread(target=write) for _ in range(self.THREADS)]
        threads += [threading.Thread(target=read) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave queueing and folding finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = self.THREADS * self.PER_THREAD
        assert all(0 <= count <= total for count in counts)
        assert hist.count == total
        snapshot = hist.snapshot_value()
        assert sum(count for _, count in snapshot["buckets"]) + snapshot["overflow"] == total
        per_thread = sum(1e-5 * (index % 7 + 1) for index in range(self.PER_THREAD))
        assert snapshot["sum"] == pytest.approx(self.THREADS * per_thread, rel=1e-12)

    def test_registry_get_or_create_race(self):
        registry = MetricsRegistry()
        instruments = []

        def work():
            counter = registry.counter("race_total", shard="0")
            instruments.append(counter)
            counter.inc()

        self._hammer(work)
        assert all(inst is instruments[0] for inst in instruments)
        assert instruments[0].value == self.THREADS


class TestHistogramQuantiles:
    def test_quantiles_within_one_bucket_ratio(self):
        # Log-bucket quantiles carry bounded *relative* error: at most
        # one bucket ratio (2x at per_octave=1).
        hist = Histogram()
        values = [1e-4 * (1.03 ** i) for i in range(400)]  # 0.1ms – ~13s
        for value in values:
            hist.observe(value)
        ordered = sorted(values)
        for q in (0.5, 0.9, 0.99):
            true = ordered[int(q * (len(ordered) - 1))]
            estimate = hist.quantile(q)
            assert true / 2.0 <= estimate <= true * 2.0

    def test_extremes_clamp_to_observed(self):
        hist = Histogram()
        for value in (3e-4, 5e-4, 9e-4):
            hist.observe(value)
        assert hist.quantile(0.0) == pytest.approx(3e-4)
        assert hist.quantile(1.0) == pytest.approx(9e-4)

    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.quantile(0.5) == 0.0
        snap = hist.snapshot_value()
        assert snap["count"] == 0 and snap["buckets"] == []

    def test_first_bucket(self):
        # Below the first bound the bucket's lower edge is half of it.
        hist = Histogram()
        hist.observe(4e-7)
        hist.observe(8e-7)
        snap = hist.snapshot_value()
        assert snap["buckets"] == [[LATENCY_BUCKETS[0], 2]]
        assert hist.quantile(0.5) == pytest.approx(5e-7 * 2**0.5)
        assert hist.quantile(1.0) == 8e-7  # the bound, clamped to the max

    def test_overflow_bucket(self):
        hist = Histogram()
        hist.observe(100.0)
        snap = hist.snapshot_value()
        assert snap["overflow"] == 1 and snap["buckets"] == []
        assert hist.quantile(0.99) == 100.0

    def test_nan_rejected_before_it_is_queued(self):
        hist = Histogram()
        hist.observe(2e-6)
        for observe in (lambda: hist.observe(math.nan), lambda: hist.observe_many([1e-6, math.nan])):
            with pytest.raises(ValueError, match="NaN"):
                observe()
        snap = hist.snapshot_value()
        assert (snap["count"], snap["sum"], snap["buckets"]) == (1, 2e-6, [[LATENCY_BUCKETS[1], 1]])

    def test_observe_many_bins_as_observe_does(self):
        values = [0.0, 1e-6, 1.5e-6, 2e-6, 3e-3, 0.25, 64.0, 100.0]
        one, many = Histogram(), Histogram()
        for value in values:
            one.observe(value)
        many.observe_many(values)
        many.observe_many([])
        assert one.snapshot_value() == many.snapshot_value()

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)


class TestRegistryFamilies:
    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("thing_total")

    def test_label_set_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing_total", shard="0")
        with pytest.raises(ValueError, match="labels"):
            registry.counter("thing_total", backend="gpu")

    def test_label_values_holding_separators_rejected(self):
        # "tenant=a,b" would read back as two labels, "tenant=a" and "b=".
        registry = MetricsRegistry()
        for value in ("a,b", "x=y"):
            with pytest.raises(ValueError, match="tenant"):
                registry.counter("thing_total", tenant=value)
        assert registry.snapshot()["metrics"] == {}

    @pytest.mark.parametrize(
        "value", [(1.0, 2.0), 0, None, True, b"1"], ids=["tuple", "int", "none", "bool", "bytes"]
    )
    def test_label_values_must_be_strings(self, value):
        # A keyword the registry does not take, such as ``buckets=``, is
        # a label, and a label value that is not a string is refused.
        registry = MetricsRegistry()
        with pytest.raises(TypeError, match="label buckets=.* must be a str"):
            registry.histogram("h_seconds", buckets=value)
        with pytest.raises(TypeError, match="label shard=.* must be a str"):
            registry.counter("thing_total", shard=value)
        assert registry.snapshot()["metrics"] == {}

    def test_same_labels_share_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("thing_total", shard="0", backend="gpu")
        b = registry.counter("thing_total", backend="gpu", shard="0")
        assert a is b
        assert registry.counter("thing_total", shard="1", backend="gpu") is not a

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("")

    def test_snapshot_names_every_family(self):
        registry = MetricsRegistry()
        registry.counter("a_total", shard="0")
        registry.register_callback("b_depth", lambda: 0.0)
        assert sorted(registry.snapshot()["metrics"]) == ["a_total", "b_depth"]


class TestCallbacks:
    def test_callback_evaluated_at_snapshot_only(self):
        registry = MetricsRegistry()
        calls = []
        registry.register_callback(
            "mirrored_total", lambda: calls.append(1) or 7.0, kind="counter"
        )
        assert calls == []
        snapshot = registry.snapshot()
        assert calls == [1]
        assert snapshot["metrics"]["mirrored_total"]["series"][""] == 7.0

    def test_callback_exception_reports_nan(self):
        registry = MetricsRegistry()
        registry.register_callback("broken", lambda: 1 / 0)
        value = registry.snapshot()["metrics"]["broken"]["series"][""]
        assert math.isnan(value)

    def test_duplicate_series_raises_with_hint(self):
        registry = MetricsRegistry()
        registry.register_callback("dup_total", lambda: 0.0, kind="counter")
        with pytest.raises(ValueError, match="label the series"):
            registry.register_callback("dup_total", lambda: 0.0, kind="counter")

    def test_callback_cannot_shadow_instrument(self):
        registry = MetricsRegistry()
        registry.counter("owned_total")
        with pytest.raises(ValueError):
            registry.register_callback("owned_total", lambda: 0.0, kind="counter")
        registry.register_callback("served", lambda: 0.0, kind="counter")
        with pytest.raises(ValueError):
            registry.counter("served")

    def test_histogram_callbacks_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().register_callback(
                "h", lambda: 0.0, kind="histogram"
            )


class TestSnapshotSchema:
    def test_versioned_and_json_safe(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c_total", shard="0").inc()
        registry.histogram("h_seconds").observe(0.25)
        snapshot = registry.snapshot()
        assert snapshot["version"] == 1
        json.dumps(snapshot)  # must not raise
        family = snapshot["metrics"]["h_seconds"]
        series = family["series"][""]
        assert series["count"] == 1
        assert series["sum"] == pytest.approx(0.25)
        assert all(count > 0 for _, count in series["buckets"])


class TestEnsureRegistry:
    def test_resolution(self):
        # One mode: None and True both give a private registry, and
        # False (the deleted off mode) is a TypeError like any other value.
        private = [ensure_registry(None), ensure_registry(True)]
        assert all(isinstance(registry, MetricsRegistry) for registry in private)
        assert private[0] is not private[1]
        registry = MetricsRegistry()
        assert ensure_registry(registry) is registry
        for value in ("yes", False):
            with pytest.raises(TypeError, match="always on"):
                ensure_registry(value)
