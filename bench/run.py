"""Run one workload: set-up (repeated), timed passes, oracle, metrics.

Every wall-clock figure is divided by the host factor of the stretch it
was measured in (:mod:`bench.hostspeed`): it is the time the work would
have taken at the reference speed — with the shared host left alone.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from typing import Dict, List, Optional, Tuple

from bench import record, stats, traced
from bench.hostspeed import HostProbe
from bench.workloads import WORKLOADS, Tally, Workload, WorkloadState

clock = time.perf_counter

#: Set-ups per run; ``setup_s`` is their median, so one slow set-up
#: (page cache, scheduler) does not decide the figure.
SETUP_REPEATS = 3


#: Probe units timed before the first set-up and after each one: a
#: set-up leaves no gap to probe in, so its host factor rests on these.
SETUP_PROBE_UNITS = 25


def timed_setup(workload: Workload, seed: int, tiny: bool, repeats: int, probe: HostProbe):
    """Set up ``repeats`` times; keep the last state.  Returns it and
    when each set-up started and ended."""
    windows: List[Tuple[float, float]] = []
    state: Optional[WorkloadState] = None
    probe.sample(SETUP_PROBE_UNITS)
    for _ in range(repeats):
        if state is not None:
            state.close()
        start = clock()
        state = workload.setup(seed, tiny)
        windows.append((start, clock()))
        probe.sample(SETUP_PROBE_UNITS)
    return state, windows


def host_factors(tally: Tally) -> List[float]:
    """Per timed pass, how much slower than the reference the host ran
    (1.0 throughout when the tally carries no probe)."""
    if tally.probe is None:
        return [1.0] * len(tally.pass_walls)
    return tally.probe.factors(tally.pass_windows)


def wall_clock(tally: Tally) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Requests/s from the median pass, latency percentiles over all
    timed requests — each pass first divided by its host factor — and
    the sample count each figure rests on."""
    factors = host_factors(tally)
    walls = [wall / factor for wall, factor in zip(tally.pass_walls, factors)]
    latencies = [
        latency / factor
        for one_pass, factor in zip(tally.pass_latencies, factors)
        for latency in one_pass
    ]
    values = {"requests_per_s": len(latencies) / len(walls) / statistics.median(walls)}
    counts = {"requests_per_s": len(walls)}
    for q in (50, 90):
        values[f"request_s.p{q}"] = stats.percentile(latencies, q)
        counts[f"request_s.p{q}"] = len(latencies)
    return values, counts


def end_to_end(tally: Tally, setup_s: float) -> Tuple[Dict[str, float], Dict[str, int]]:
    """The eight end-to-end values (tracing and ``metrics=`` off) and
    the sample counts of the wall-clock ones."""
    failed_share = tally.failed / tally.attempted if tally.attempted else 1.0
    values, counts = wall_clock(tally)
    values.update({
        "setup_s": setup_s,
        "ok_share": max(1.0 - failed_share, 0.0),
        "modeled_cycles": tally.cycles,
        "modeled_energy_j": tally.energy_j,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return values, counts


def run_workload(
    name: str,
    seed: int = 0,
    seconds: Optional[float] = None,
    trace: bool = False,
    tiny: bool = False,
    import_s: float = 0.0,
) -> dict:
    """Run workload ``name`` once and return its result record.

    ``seconds`` defaults to the declared ``run_seconds``.  ``import_s``
    is the time the caller spent importing before it could call this
    (part of ``setup_s``).  With ``trace`` the record carries
    the per-layer metrics of a short traced run instead of the
    end-to-end ones: end-to-end numbers never come from a traced run.
    """
    workload = WORKLOADS[name]
    declared = record.declared_metrics()
    if seconds is None:
        seconds = float(record.declaration()["run_seconds"])
    # Only the end-to-end run reports set-up time, so only it repeats it.
    probe = HostProbe()
    state, setups = timed_setup(
        workload, seed, tiny, 1 if tiny or trace else SETUP_REPEATS, probe
    )
    try:
        state.prepare_references()
        tally = Tally(None if trace else probe)
        tally.failed += state.setup_tally.failed
        tally.problems += state.setup_tally.problems
        if trace:
            values, extra = traced.run(workload, state, seed, tiny, tally)
            wanted = declared["per_layer"]
        else:
            passes = workload.passes(seconds, tiny)
            for index in range(passes):
                state.run_pass(index, tally)
            setup_times = [end - start for start, end in setups]
            setup_factors = probe.factors(setups)
            # Imports ran just before the first set-up: its host factor.
            setup_s = import_s / setup_factors[0] + statistics.median(
                taken / factor for taken, factor in zip(setup_times, setup_factors)
            )
            values, samples = end_to_end(tally, setup_s)
            wanted = declared["end_to_end"]
            extra = {
                "passes": passes,
                "requests_per_pass": state.requests_per_pass,
                "pass_wall_s": tally.pass_walls,
                "host_factor": host_factors(tally),
                "probe_unit_s": statistics.median(probe.times),
                "samples": samples,
                "setup_times_s": setup_times,
                "setup_host_factor": setup_factors,
                "import_s": import_s,
            }
    finally:
        state.close()
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in wanted.items()
        },
        "report_digest": tally.digest,
        "provenance": record.provenance(),
        **extra,
    }


def driver_line(result: dict) -> str:
    """The one JSON object the benchmark contract asks for."""
    return json.dumps(
        {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    )
