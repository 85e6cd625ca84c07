"""How fast this host runs interpreted Python, moment by moment.

The reference container shares its host.  Interpreted Python on an
otherwise idle CPU of it runs at its usual best speed only in gaps of a
few milliseconds; in between it runs 1.3-1.6x slower, and the share of
time spent slow drifts between a twentieth and all of it over seconds to
minutes.  A ten-second run therefore reads up to 1.5x apart from the
next one for no reason the program has, and no estimator over the run's
own passes repairs that: when the whole run was slow, so was its fastest
pass.

So the timed phase carries a probe.  Between requests, outside every
latency window, it times a fixed unit of work (:func:`unit`).  The mean
unit time around a pass, over the time the unit takes on the reference
container left alone (:data:`UNIT_REFERENCE_S`), is the pass's *host
factor*, and the pass's wall time and latencies are divided by it.  What
is reported is thus the time the work would have taken at the reference
speed, as far as the probe can tell — on the reference container: with
the host left alone.

The unit does what the program under test does most — interpreted
bytecode making small objects, filling and reading a dict, indexing
tuples — so that it slows as the program does: regressing the pass wall
of each workload on the host factor over minutes of mixed weather gave
slopes of 0.7-1.0 (1 is ideal), and dividing by the factor cut the
spread of ten runs at ten seeds from 13-37 % (busy hour) and 4-14 %
(quiet hour) to 1-10 % in both, with medians that agree between the two.

The reference is a constant, not the fastest units of the run: the CPU
has stretches in which the unit takes 146 µs instead of 160 and the
program speeds up with it, and a run whose floor was set by a few such
units read a tenth better than the next one.
"""

from __future__ import annotations

import bisect
import itertools
import time
from typing import List, Sequence, Tuple

clock = time.perf_counter


class _Cell:
    __slots__ = ("key", "pair")

    def __init__(self, key: int, pair: Tuple[int, int]) -> None:
        self.key = key
        self.pair = pair


#: What :func:`unit` takes on the reference container when nothing else
#: has the host: where its timings pile up in quiet stretches, and the
#: 1st percentile of most runs' timings (159-168 µs; the other runs held
#: enough 146 µs units for theirs, see above).
UNIT_REFERENCE_S = 160e-6


def unit() -> int:
    """The fixed piece of work the probe times."""
    table = {}
    picked = []
    for key in range(600):
        table[key] = _Cell(key, (key, key + 1))
        picked.append(table[key].pair[0] ^ key)
    return sum(picked)


class HostProbe:
    """Timed :func:`unit` runs of one timed phase, and the host factor
    of any window of it."""

    #: Sample again once this long has passed: a twentieth of the timed
    #: phase goes to the probe at most.
    INTERVAL_S = 0.015
    #: A unit that took longer than this many reference times was
    #: interrupted, not slowed; it counts as this many.
    CLIP = 3.0
    #: A window's factor also counts samples this long before and after
    #: it: the share of time the host is slow moves by the second, and a
    #: short pass holds few samples of its own.
    REACH_S = 0.25

    def __init__(self) -> None:
        self.stamps: List[float] = []  # when each unit ended, ascending
        self.times: List[float] = []  # how long it took
        self.last = 0.0
        for _ in range(50):  # untimed: the interpreter specialises the unit
            unit()

    def sample(self, units: int = 2) -> None:
        unit()  # untimed: the program has just had the caches to itself
        for _ in range(units):
            start = clock()
            unit()
            self.last = clock()
            self.stamps.append(self.last)
            self.times.append(self.last - start)

    def sample_if_due(self) -> None:
        if clock() - self.last >= self.INTERVAL_S:
            self.sample()

    def factors(self, windows: Sequence[Tuple[float, float]]) -> List[float]:
        """The host factor of each ``(start, end)`` window: mean unit
        time from :data:`REACH_S` before it to as long after it, over
        :data:`UNIT_REFERENCE_S`; 1.0 for a window with no sample within
        reach."""
        ceiling = self.CLIP * UNIT_REFERENCE_S
        total = [0.0, *itertools.accumulate(min(t, ceiling) for t in self.times)]
        factors = []
        for start, end in windows:
            first = bisect.bisect_left(self.stamps, start - self.REACH_S)
            beyond = bisect.bisect_right(self.stamps, end + self.REACH_S)
            if beyond == first:
                factors.append(1.0)
            else:
                mean = (total[beyond] - total[first]) / (beyond - first)
                factors.append(mean / UNIT_REFERENCE_S)
        return factors
