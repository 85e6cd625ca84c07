"""Small statistics helpers shared by the timed run, the traced run and
``bench compare``."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence

#: A percentile is only reported when at least this many samples lie
#: beyond it; fewer and the figure is one or two outliers, not a tail.
MIN_TAIL_SAMPLES = 10


class UnderSampled(ValueError):
    """A percentile was asked of too few samples to support it."""


def min_samples(q: float) -> int:
    """Fewest samples of which :func:`percentile` reports the ``q``-th:
    20 for p50, 100 for p90."""
    count = MIN_TAIL_SAMPLES
    while count - math.ceil(q / 100.0 * count) < MIN_TAIL_SAMPLES:
        count += 1
    return count


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q < 100``).

    Raises :class:`UnderSampled` unless at least
    :data:`MIN_TAIL_SAMPLES` samples lie strictly beyond the returned
    rank — p50 needs 20 samples, p90 needs 100.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), not {q}")
    count = len(samples)
    rank = max(math.ceil(q / 100.0 * count), 1)
    if count - rank < MIN_TAIL_SAMPLES:
        raise UnderSampled(
            f"p{q:g} of {count} samples leaves {max(count - rank, 0)} beyond it; "
            f"need {MIN_TAIL_SAMPLES}"
        )
    return sorted(samples)[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the run-to-run spread the acceptance rule is written in.
    0.0 for fewer than two values or a zero median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(third - first) / abs(middle) if middle else 0.0


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
