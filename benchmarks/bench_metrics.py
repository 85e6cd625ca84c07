"""Metrics subsystem benchmark: zero-overhead-when-off, bounded-when-on.

The telemetry layer (``repro.metrics``) rides the serving hot path, so
its cost budget is explicit:

1. **Off is free.**  A session built without ``metrics=`` and run
   without ``span=`` pays three ``perf_counter`` reads and two
   ``is None`` probes per request.  Measured against a direct
   compile+execute baseline that bypasses ``run_prepared`` entirely,
   the slowdown must be <= 1.02x on the ``helpers.build_trace`` mixed
   trace.
2. **On is bounded.**  With a live registry *and* a per-request span
   (one counter bump, one histogram observation and the span's legs
   per run) it must stay <= 1.10x.
3. **Observation-only.**  ``ExecutionReport``s from all three modes are
   bit-identical: telemetry never perturbs results, cycles, or energy.
4. **The regression loop closes.**  The snapshot taken from the
   instrumented runs diffs clean against itself, and an injected
   counter change is flagged — the ``python -m repro.metrics diff``
   contract, exercised in-process.

Usage::

    PYTHONPATH=src python benchmarks/bench_metrics.py          # full run
    PYTHONPATH=src python benchmarks/bench_metrics.py --tiny   # CI smoke

``--tiny`` keeps every correctness gate (report identity, snapshot
diff behavior, span coverage) but skips the overhead assertions:
timing on shared CI runners is noise, correctness is not.
"""

from __future__ import annotations

import argparse
import copy
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from helpers import build_trace, print_table  # noqa: E402

from repro import ReasonSession  # noqa: E402
from repro.api.adapters import RunOptions  # noqa: E402
from repro.api.types import ExecutionReport  # noqa: E402
from repro.metrics import (  # noqa: E402
    MetricsRegistry,
    RequestSpan,
    diff_snapshots,
    render_prometheus,
)

MODES = ("baseline", "metrics-off", "metrics-on")

#: Report fields that must match bit-for-bit across modes.  Wall-clock
#: extras (trace blobs) are excluded the same way bench_trace does.
_COMPARED_FIELDS = ("result", "cycles", "seconds", "energy_j", "power_w",
                    "utilization", "queries")


def _run_baseline(session: ReasonSession, kernel, options: RunOptions):
    """The pre-instrumentation path: compile + execute with no guard,
    no timestamps, no spans — ``run_prepared`` minus its telemetry."""
    artifact, cache_hit = session._compile(kernel, options)
    report = session._backend("reason").run(
        artifact, config=session.config, queries=1, options=options
    )
    report.cache_hit = cache_hit
    report.compile_s = 0.0 if cache_hit else artifact.compile_s
    return report


def _run_once(
    session: ReasonSession,
    mode: str,
    kernel,
    opts: dict,
    spans: List[RequestSpan],
) -> ExecutionReport:
    if mode == "baseline":
        return _run_baseline(session, kernel, RunOptions(**opts))
    if mode == "metrics-off":
        return session.run(kernel, **opts)
    span = RequestSpan()
    spans.append(span)
    return session.run(kernel, span=span, **opts)


def bench_overhead(
    trace: List[Tuple[str, object, dict]],
    repeats: int,
) -> Tuple[Dict[str, List[ExecutionReport]], Dict[str, List[float]],
           List[RequestSpan], MetricsRegistry]:
    """Cold-compile each kernel once per mode (untimed, reports kept
    for the identity gate), then time ``repeats`` warm runs per
    (kernel, mode) with the three modes interleaved back-to-back —
    temporal adjacency cancels machine-speed drift out of the ratios,
    and min-of-repeats discards co-tenant noise.  Cold runs stay out
    of the timing: compile variance would drown a few-percent budget.
    """
    registry = MetricsRegistry()
    sessions = {
        "baseline": ReasonSession(),
        "metrics-off": ReasonSession(),
        "metrics-on": ReasonSession(metrics=registry),
    }
    spans: List[RequestSpan] = []
    reports_by_mode: Dict[str, List[ExecutionReport]] = {m: [] for m in MODES}
    for _, kernel, opts in trace:
        for mode in MODES:
            reports_by_mode[mode].append(
                _run_once(sessions[mode], mode, kernel, opts, spans)
            )
    min_warm: Dict[str, List[float]] = {
        mode: [float("inf")] * len(trace) for mode in MODES
    }
    for _ in range(repeats):
        for index, (_, kernel, opts) in enumerate(trace):
            for mode in MODES:
                start = time.perf_counter()
                _run_once(sessions[mode], mode, kernel, opts, spans)
                elapsed = time.perf_counter() - start
                min_warm[mode][index] = min(min_warm[mode][index], elapsed)
    return reports_by_mode, min_warm, spans, registry


def assert_reports_identical(
    trace: List[Tuple[str, object, dict]],
    by_mode: Dict[str, List[ExecutionReport]],
) -> None:
    mismatches: List[str] = []
    for index, (name, _, _) in enumerate(trace):
        reference = by_mode["baseline"][index]
        for mode in ("metrics-off", "metrics-on"):
            candidate = by_mode[mode][index]
            for field in _COMPARED_FIELDS:
                if getattr(candidate, field) != getattr(reference, field):
                    mismatches.append(
                        f"{name}.{field}: baseline="
                        f"{getattr(reference, field)!r} "
                        f"{mode}={getattr(candidate, field)!r}"
                    )
    if mismatches:
        for line in mismatches:
            print(f"REPORT MISMATCH  {line}")
        raise SystemExit(
            f"{len(mismatches)} report field(s) perturbed by telemetry"
        )


def check_spans(
    trace: List[Tuple[str, object, dict]],
    spans: List[RequestSpan],
    repeats: int,
) -> None:
    # One cold span per kernel first, then repeats * len(trace) warm.
    assert len(spans) == len(trace) * (1 + repeats)
    for index, span in enumerate(spans):
        cold = index < len(trace)
        assert span.execute_s > 0.0, "span missing its execute leg"
        assert span.cache_hit is (not cold), "span cache flag wrong"
        if cold:
            assert span.compile_s > 0.0, "cold span missing compile leg"
        else:
            assert span.compile_s == 0.0, "warm span charged compile time"


def check_snapshot_diff(registry: MetricsRegistry, runs: int) -> None:
    """Close the regression-hunting loop in-process: a snapshot diffs
    clean against itself; an injected drift is flagged."""
    snapshot = registry.snapshot()
    series = snapshot["metrics"]["reason_runs_total"]["series"]
    assert series["backend=reason"] == runs, (
        f"registry counted {series['backend=reason']} runs, expected {runs}"
    )
    assert "reason_runs_total" in render_prometheus(snapshot)

    clean = diff_snapshots(snapshot, copy.deepcopy(snapshot))
    assert clean.clean, "identical snapshots reported drift"

    injected = copy.deepcopy(snapshot)
    injected["metrics"]["reason_runs_total"]["series"]["backend=reason"] += 1
    flagged = diff_snapshots(snapshot, injected)
    assert not flagged.clean, "injected regression went undetected"
    assert any(c.metric == "reason_runs_total" for c in flagged.changes)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="CI smoke: keep every correctness gate, skip timing assertions",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timed warm runs per (kernel, mode); minimum kept",
    )
    args = parser.parse_args()

    trace = build_trace(tiny=args.tiny)
    repeats = args.repeats or (3 if args.tiny else 15)
    print(
        f"mixed trace: {len(trace)} kernels, 1 cold + {repeats} timed "
        f"warm runs per mode ({'tiny' if args.tiny else 'full'} mode)"
    )

    # Warm imports and allocators so no timed run pays first-touch.
    bench_overhead(build_trace(tiny=True), repeats=1)

    reports_by_mode, min_warm, spans, registry = bench_overhead(trace, repeats)
    best = {mode: sum(min_warm[mode]) for mode in MODES}

    # Gate 1: telemetry is observation-only.
    assert_reports_identical(trace, reports_by_mode)
    # Gate 2: every instrumented run produced a fully-populated span.
    check_spans(trace, spans, repeats)
    # Gate 3: the snapshot-diff regression loop works end to end.
    check_snapshot_diff(registry, runs=len(trace) * (1 + repeats))

    off_ratio = best["metrics-off"] / best["baseline"]
    on_ratio = best["metrics-on"] / best["baseline"]
    rows = [
        ["baseline (no hooks)", f"{best['baseline'] * 1e3:.2f} ms", "1.00x"],
        ["metrics off", f"{best['metrics-off'] * 1e3:.2f} ms", f"{off_ratio:.3f}x"],
        ["metrics on + spans", f"{best['metrics-on'] * 1e3:.2f} ms", f"{on_ratio:.3f}x"],
    ]
    print_table(
        "Warm-path overhead (sum of per-kernel best warm runs, "
        "reports bit-identical)",
        ["mode", "warm total", "vs baseline"],
        rows,
    )

    if not args.tiny:
        assert off_ratio <= 1.02, (
            f"metrics-off overhead {off_ratio:.3f}x blows the 1.02x budget"
        )
        assert on_ratio <= 1.10, (
            f"metrics-on overhead {on_ratio:.3f}x blows the 1.10x budget"
        )
    print(
        "\nAll metrics gates passed (report identity, span coverage, "
        "snapshot diff clean/flagged"
        + (", overhead within budget)." if not args.tiny else ").")
    )


if __name__ == "__main__":
    main()
