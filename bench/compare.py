"""``python3 -m bench compare BASE.json NEW.json``.

One row per (workload, end-to-end metric): both medians, the ratio with
its base, how much worse NEW reads, the bound from ``BENCHMARK.json``
and each side's run-to-run spread.  A metric whose spread exceeds its
bound is *unresolved*, not unchanged — unless every NEW run beats every
BASE run (ok) or loses to every BASE run by more than the bound
(regression).  When both files were run with the same seeds and
seconds, the modeled clock, ``ok_share`` and the report digest must
match exactly: any drift fails.

Exit codes follow :mod:`repro.cli`: 0 nothing worse, 1 regression or
drift, 2 unreadable input.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from repro.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE

from bench import record, stats


def by_workload(runs: List[dict]) -> Dict[str, List[dict]]:
    """End-to-end (untraced) runs, grouped by workload."""
    groups: Dict[str, List[dict]] = defaultdict(list)
    for run in runs:
        if not run["trace"]:
            groups[run["workload"]].append(run)
    return groups


def worse_by(base: float, new: float, better: str) -> float:
    """Share of ``base`` by which ``new`` reads worse (negative: better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def judge(base: List[float], new: List[float], better: str, bound: float) -> str:
    worse = worse_by(statistics.median(base), statistics.median(new), better)
    noisy = max(stats.spread(base), stats.spread(new)) > bound
    if not noisy:
        return "REGRESSION" if worse > bound else "ok"
    if better == "lower":
        all_better = max(new) < min(base)
        all_worse = min(new) > max(base)
    else:
        all_better = min(new) > max(base)
        all_worse = max(new) < min(base)
    if all_better:
        return "ok"
    if all_worse and worse > bound:
        return "REGRESSION"
    return "unresolved"


def main(base_path: Path, new_path: Path) -> int:
    try:
        base_runs = by_workload(record.load(base_path))
        new_runs = by_workload(record.load(new_path))
        declared = record.declaration()["end_to_end"]
    except (OSError, ValueError, KeyError) as error:
        print(f"bench compare: {error}", file=sys.stderr)
        return EXIT_USAGE
    failed = False
    header = (
        f"{'workload':15s} {'metric':18s} {'base':>13s} {'new':>13s} {'new/base':>9s} "
        f"{'worse':>8s} {'bound':>6s} {'spread b/n':>13s}  status"
    )
    print(header)
    for workload in sorted(set(base_runs) | set(new_runs)):
        base, new = base_runs.get(workload, []), new_runs.get(workload, [])
        if not base or not new:
            print(f"{workload:15s} only in {'BASE' if base else 'NEW'}: not compared")
            continue
        same_inputs = sorted((r["seed"], r["seconds"], r["tiny"]) for r in base) == sorted(
            (r["seed"], r["seconds"], r["tiny"]) for r in new
        )
        for metric in declared:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            base_values = [run["metrics"][name]["value"] for run in base]
            new_values = [run["metrics"][name]["value"] for run in new]
            if same_inputs and name in record.EXACT_METRICS:
                exact = sorted(map(repr, base_values)) == sorted(map(repr, new_values))
                status = "ok (exact)" if exact else "DRIFT"
            else:
                status = judge(base_values, new_values, better, bound)
            failed = failed or status in ("REGRESSION", "DRIFT")
            base_median, new_median = statistics.median(base_values), statistics.median(new_values)
            ratio = new_median / base_median if base_median else float("nan")
            print(
                f"{workload:15s} {name:18s} {base_median:13.6g} {new_median:13.6g} "
                f"{ratio:9.4f} {worse_by(base_median, new_median, better):+8.2%} "
                f"{bound:6.1%} {stats.spread(base_values):6.2%}/{stats.spread(new_values):6.2%}"
                f"  {status}"
            )
        if same_inputs:
            same = sorted(r["report_digest"] for r in base) == sorted(
                r["report_digest"] for r in new
            )
            print(f"{workload:15s} report_digest: {'identical' if same else 'DRIFT'}")
            failed = failed or not same
        else:
            print(f"{workload:15s} seeds or seconds differ: exact metrics held to their bounds")
    return EXIT_FAILURE if failed else EXIT_OK
