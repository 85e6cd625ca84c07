"""Snapshot diffing: regression hunting over exported metrics.

Two snapshots of the *same* workload (one per build, one per config)
should agree on every deterministic series — request counts, cache
hits, modeled cycles.  :func:`diff_snapshots` walks both nested dicts
and reports every scalar that moved, every histogram whose population
changed, and every series/metric present on one side only, so a CI
gate is one call::

    changes = diff_snapshots(load_snapshot(a), load_snapshot(b))
    sys.exit(1 if not changes.clean else 0)

Wall-clock series (latency sums) legitimately differ between runs;
filter them out with ``ignore=`` glob patterns (the CLI exposes
``--ignore``), or bound acceptable drift with a relative
``tolerance``.
"""

from __future__ import annotations

import fnmatch
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class MetricChange:
    """One series (or one histogram statistic) that differs."""

    metric: str
    series: str
    stat: str  # "value" for scalars; count/sum/p50/... for histograms
    before: Optional[float]
    after: Optional[float]

    @property
    def delta(self) -> Optional[float]:
        if self.before is None or self.after is None:
            return None
        return self.after - self.before

    def describe(self) -> str:
        where = f"{self.metric}{{{self.series}}}" if self.series else self.metric
        if self.before is None:
            return f"{where} [{self.stat}]: only in B (= {self.after:g})"
        if self.after is None:
            return f"{where} [{self.stat}]: only in A (= {self.before:g})"
        return (
            f"{where} [{self.stat}]: {self.before:g} -> {self.after:g} "
            f"({self.delta:+g})"
        )


@dataclass
class SnapshotDiff:
    """Every difference between two snapshots that survived the
    tolerance and ignore filters."""

    changes: List[MetricChange] = field(default_factory=list)
    compared: int = 0  # series pairs examined

    @property
    def clean(self) -> bool:
        return not self.changes

    def describe(self) -> List[str]:
        return [change.describe() for change in self.changes]


#: Histogram statistics compared between snapshots.  Bucket-level
#: comparison is deliberately folded into these: count catches
#: population changes, sum catches magnitude changes, and the
#: quantiles catch shape changes — without coupling the diff to
#: bucket boundaries (which may differ between builds).
_HISTOGRAM_STATS = ("count", "sum", "min", "max", "p50", "p95", "p99")


def _differs(before: float, after: float, tolerance: float) -> bool:
    if before == after:
        return False
    if math.isnan(before) and math.isnan(after):
        return False
    scale = max(abs(before), abs(after))
    return abs(after - before) > tolerance * scale


def _ignored(name: str, series: str, patterns: Sequence[str]) -> bool:
    target = f"{name}{{{series}}}" if series else name
    return any(
        fnmatch.fnmatch(name, pattern) or fnmatch.fnmatch(target, pattern)
        for pattern in patterns
    )


def diff_snapshots(
    before: Dict[str, object],
    after: Dict[str, object],
    tolerance: float = 0.0,
    ignore: Sequence[str] = (),
) -> SnapshotDiff:
    """Compare two snapshot dicts series by series.

    ``tolerance`` is *relative*: values within
    ``tolerance * max(|a|, |b|)`` of each other are equal (0.0 =
    exact).  ``ignore`` holds glob patterns matched against the metric
    name and the full ``name{series}`` string — wall-clock metrics
    that never reproduce belong there.  A ``tolerance`` that is not a
    finite number >= 0 is a ``ValueError``: NaN or infinity would pass
    any drift.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance}")
    diff = SnapshotDiff()
    metrics_a: Dict[str, dict] = before.get("metrics", {})
    metrics_b: Dict[str, dict] = after.get("metrics", {})
    for name in sorted(set(metrics_a) | set(metrics_b)):
        family_a = metrics_a.get(name)
        family_b = metrics_b.get(name)
        series_a = family_a["series"] if family_a else {}
        series_b = family_b["series"] if family_b else {}
        kind = (family_a or family_b)["kind"]
        for series in sorted(set(series_a) | set(series_b)):
            if _ignored(name, series, ignore):
                continue
            value_a = series_a.get(series)
            value_b = series_b.get(series)
            diff.compared += 1
            if kind == "histogram":
                for stat in _HISTOGRAM_STATS:
                    stat_a = None if value_a is None else float(value_a[stat])
                    stat_b = None if value_b is None else float(value_b[stat])
                    if stat_a is None or stat_b is None:
                        if stat == "count":  # one missing-side line, not 7
                            diff.changes.append(
                                MetricChange(name, series, stat, stat_a, stat_b)
                            )
                    elif _differs(stat_a, stat_b, tolerance):
                        diff.changes.append(
                            MetricChange(name, series, stat, stat_a, stat_b)
                        )
            else:
                scalar_a = None if value_a is None else float(value_a)
                scalar_b = None if value_b is None else float(value_b)
                if scalar_a is None or scalar_b is None:
                    diff.changes.append(
                        MetricChange(name, series, "value", scalar_a, scalar_b)
                    )
                elif _differs(scalar_a, scalar_b, tolerance):
                    diff.changes.append(
                        MetricChange(name, series, "value", scalar_a, scalar_b)
                    )
    return diff
