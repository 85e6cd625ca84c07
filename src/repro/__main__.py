"""The repro command line: ``python -m repro <command> ...``.

Commands::

    record   DIR [--size N] [--requests N] [--shards N]
                              serve the seeded demo mix (ksat, pigeonhole,
                              circuit, hmm) traced, with metrics on; write
                              DIR/<fingerprint>.trace per kernel and
                              DIR/metrics.json, and cross-validate every
                              request's trace against its report
    summary  TRACE            footer metadata (events, bytes/event, counts)
    validate TRACE            full-decode integrity check vs the footer
    phases   TRACE            per-kind / per-phase cycle breakdown
    heatmap  TRACE            SRAM bank + PE traffic table
    hist     TRACE [--kind CONFLICT] [--buckets 20]
                              event-cycle histogram (ASCII)
    dump     TRACE [--kinds DECIDE,CONFLICT] [--start C] [--end C]
                   [--limit N]  print matching records
    show     SNAPSHOT [--format pretty|prom|json]
                              render a metrics snapshot
    watch    SNAPSHOT [--interval S] [--count N] [--ignore GLOB]...
                              poll a snapshot file and print what moved
                              between rewrites
    diff     A B [--tolerance R] [--ignore GLOB]...
                              two traces (A starts with the trace magic):
                              per-kind / per-phase deltas and the first
                              diverging event; two snapshots: every
                              series outside the filters
    verify   [--kernel overflow|circuit|hmm] [--size N]
             [--banks N] [--regs N] [--pes N]
             [--mutate NAME] [--list-mutations]
                              compile a demo kernel and statically verify
                              the schedule; --mutate plants a catalogued
                              bug first
    lint     PATHS... [--select RPR001,RPR003] [--list-rules]
                              the project-idiom AST lint

Exit codes follow :mod:`repro.cli`: 0 clean, 1 a check failed (a diff
differs, a trace is invalid or does not reproduce its report, findings),
2 usage or unreadable input.  The trace commands stream; none
materializes the event list.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.analysis.lint import RULES, lint_paths
from repro.analysis.mutations import CATALOG, MutationNotApplicable, apply_mutation
from repro.analysis.verifier import verify_program
from repro.api.service import ReasonService
from repro.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    add_version,
    non_negative_int,
    positive_float,
    positive_int,
)
from repro.core.arch.config import DEFAULT_CONFIG
from repro.core.compiler import compile_dag
from repro.core.dag import circuit_to_dag, hmm_to_dag
from repro.hmm.model import HMM
from repro.logic.generators import pigeonhole, random_ksat
from repro.metrics.diff import diff_snapshots
from repro.metrics.render import (
    load_snapshot,
    render_json,
    render_pretty,
    render_prometheus,
    save_snapshot,
)
from repro.pc.learn import random_circuit
from repro.trace.analyze import (
    bank_heatmap,
    cross_validate,
    cycle_histogram,
    describe_record,
    diff_traces,
    phase_breakdown,
)
from repro.trace.format import MAGIC, EventKind, TraceFormatError
from repro.trace.reader import TraceReader

PROG = "python -m repro"

#: The kinds a record can have: every ``EventKind`` but the footer's.
_KINDS = sorted(kind.name for kind in EventKind if kind is not EventKind.EOS)

#: What ``record`` serves, one request of each in turn.
MIX = ("ksat", "pigeonhole", "circuit", "hmm")

#: ``verify --kernel overflow`` without explicit sizing: the
#: register-starved config (the default 64x32 file never spills it).
_STARVED = {"num_banks": 2, "regs_per_bank": 3, "num_pes": 2}


def demo_kernel(kind: str, size: int):
    """The seeded demo kernel ``kind`` at scale ``size`` (>= 1; 8 is the
    default): a random 3-SAT formula over ``4 * size`` variables at
    clause ratio 4, the pigeonhole formula with ``ceil(size / 2)``
    holes, a depth-3 circuit over ``size`` variables (``overflow`` is
    the spill-heavy one under the starved config), or an HMM with
    ``size`` states over 6 symbols."""
    if kind == "ksat":
        return random_ksat(4 * size, 16 * size, seed=7)
    if kind == "pigeonhole":
        return pigeonhole((size + 1) // 2)
    if kind in ("circuit", "overflow"):
        seed = 13 if kind == "overflow" else 3
        return random_circuit(size, depth=3, sum_children=3, seed=seed)
    if kind == "hmm":
        return HMM.random(size, 6, seed=1)
    raise ValueError(f"unknown demo kernel {kind!r}")


# ------------------------------------------------------------- record


def _record(args) -> int:
    kinds = [MIX[index % len(MIX)] for index in range(args.requests)]
    kernels = {kind: demo_kernel(kind, args.size) for kind in MIX}
    with ReasonService(shards=args.shards, trace_dir=args.dir) as service:
        futures = [service.submit(kernels[kind], trace=True) for kind in kinds]
        reports = [future.result() for future in futures]
        service.drain()
        snapshot = service.metrics().snapshot()
        paths = [service.trace_path_for(future.fingerprint) for future in futures]
    save_snapshot(snapshot, Path(args.dir) / "metrics.json")
    print(
        f"wrote {args.dir}: {len(set(paths))} trace(s) and metrics.json "
        f"({len(snapshot['metrics'])} metric families), "
        f"{len(futures)} requests served on {args.shards} shard(s)"
    )
    mismatches = 0
    traces = {}
    for kind, path, report in zip(kinds, paths, reports):
        traces.setdefault(path, (kind, report.extras["trace"]))
        for check in cross_validate(path, report).checks:
            if not check.ok:
                mismatches += 1
                print(f"  MISMATCH {path.name} ({kind}) {check.name}: "
                      f"trace={check.trace_value} report={check.report_value}")
    for path, (kind, info) in traces.items():
        print(f"  {kind:<11} {path.name}  {info['events']} events "
              f"({info['bytes_per_event']:.2f} B/event)")
    if mismatches:
        print("FAILED: a trace does not reproduce its execution report")
        return EXIT_FAILURE
    print("cross-validation: every request's trace reproduces its execution report")
    return EXIT_OK


# -------------------------------------------------------------- traces


def _summary(args) -> int:
    summary = TraceReader(args.trace).summary()
    print(f"trace:        {args.trace}")
    print(f"events:       {summary.events}")
    print(f"bytes:        {summary.bytes}")
    print(f"bytes/event:  {summary.bytes_per_event:.2f}")
    print(f"last cycle:   {summary.last_cycle}")
    print("counts:")
    for name, count in sorted(summary.counts.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<14} {count}")
    return EXIT_OK


def _validate(args) -> int:
    try:
        summary = TraceReader(args.trace).validate()
    except TraceFormatError as error:
        print(f"INVALID: {error}")
        return EXIT_FAILURE
    print(f"OK: {summary.events} events decode and match the footer counts")
    return EXIT_OK


def _phases(args) -> int:
    breakdown = phase_breakdown(args.trace)
    print(f"total cycles: {breakdown.total_cycles}  ({breakdown.events} events)")
    print(f"{'event kind':<16}{'cycles':>12}{'share':>9}")
    for name, cycles in sorted(breakdown.by_kind.items(), key=lambda kv: -kv[1]):
        print(f"{name:<16}{cycles:>12}{breakdown.fraction(name):>8.1%}")
    if breakdown.by_phase:
        print("by phase:")
        for name, cycles in sorted(breakdown.by_phase.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<16}{cycles:>12}")
    return EXIT_OK


def _heatmap(args) -> int:
    heat = bank_heatmap(args.trace)
    if heat.words_by_bank:
        peak = max(heat.words_by_bank.values())
        print(f"{'bank':>6}{'words':>12}{'ops':>8}  heat")
        for bank in sorted(heat.words_by_bank):
            words = heat.words_by_bank[bank]
            ops = heat.ops_by_bank.get(bank, 0)
            bar = "#" * max(1, round(40 * words / peak)) if peak else ""
            print(f"{bank:>6}{words:>12}{ops:>8}  {bar}")
        print(f"imbalance (max/mean): {heat.imbalance():.2f}")
    elif heat.ops_by_bank:
        print(f"{'bank':>6}{'memory ops':>12}")
        for bank in sorted(heat.ops_by_bank):
            print(f"{bank:>6}{heat.ops_by_bank[bank]:>12}")
    else:
        print("no bank traffic recorded in this trace")
    if heat.compute_by_pe:
        print(f"{'PE':>6}{'computes':>12}")
        for pe in sorted(heat.compute_by_pe):
            print(f"{pe:>6}{heat.compute_by_pe[pe]:>12}")
    return EXIT_OK


def _hist(args) -> int:
    hist = cycle_histogram(args.trace, kind=args.kind.upper(), buckets=args.buckets)
    print(
        f"{hist.total} {hist.kind} events over {hist.last_cycle} cycles "
        f"({hist.bucket_cycles} cycles/bucket)"
    )
    peak = max(hist.counts) if hist.counts else 0
    for index, count in enumerate(hist.counts):
        bar = "#" * max(0, round(40 * count / peak)) if peak else ""
        lo = index * hist.bucket_cycles
        print(f"{lo:>10} {count:>8}  {bar}")
    return EXIT_OK


def _event_kinds(text: str) -> list:
    """``--kinds``: comma-separated event kind names, any case (none
    given: every kind)."""
    kinds = [name.strip().upper() for name in text.split(",") if name.strip()]
    unknown = [name for name in kinds if name not in _KINDS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown event kind(s) {', '.join(unknown)}; valid: {', '.join(_KINDS)}"
        )
    return kinds or None


def _dump(args) -> int:
    reader = TraceReader(args.trace)
    printed = 0
    for record in reader.events(kinds=args.kinds, start_cycle=args.start, end_cycle=args.end):
        if printed == args.limit:
            print(f"... stopped after {args.limit} records")
            return EXIT_OK
        print(f"{record.cycle:>12}  {describe_record(record)}")
        printed += 1
    if printed == 0:
        print("no records matched")
    return EXIT_OK


# ----------------------------------------------------------- snapshots


_RENDERERS = {
    "pretty": render_pretty,
    "prom": render_prometheus,
    "json": lambda snapshot: render_json(snapshot) + "\n",
}


def _show(args) -> int:
    sys.stdout.write(_RENDERERS[args.format](load_snapshot(args.snapshot)))
    return EXIT_OK


def _watch(args) -> int:
    """Print metric movement every time the snapshot file is rewritten."""
    previous = None
    last_mtime = None
    seen = 0
    while True:
        try:
            mtime = os.path.getmtime(args.snapshot)
        except FileNotFoundError:
            mtime = None
        if mtime is not None and mtime != last_mtime:
            last_mtime = mtime
            current = load_snapshot(args.snapshot)
            if previous is None:
                sys.stdout.write(render_pretty(current))
            else:
                diff = diff_snapshots(previous, current, ignore=args.ignore or ())
                if diff.clean:
                    print("(no change)")
                else:
                    for line in diff.describe():
                        print(line)
            sys.stdout.flush()
            previous = current
            seen += 1
            if seen == args.count:
                return EXIT_OK
        time.sleep(args.interval)


def _is_trace(path) -> bool:
    with open(path, "rb") as handle:
        return handle.read(len(MAGIC)) == MAGIC


def _diff(args) -> int:
    traces = _is_trace(args.a)
    if _is_trace(args.b) != traces:
        raise ValueError(f"diff needs two traces or two snapshots, got {args.a} and {args.b}")
    if traces:
        if args.tolerance is not None or args.ignore:
            raise ValueError("--tolerance and --ignore apply to snapshots, not traces")
        result = diff_traces(args.a, args.b)
        if result.identical:
            print(f"OK: traces match ({result.events[0]} events, {result.cycles[0]} cycles)")
            return EXIT_OK
        for line in result.describe():
            print(line)
        print("DIFFERS: the traces record different executions")
        return EXIT_FAILURE
    before, after = load_snapshot(args.a), load_snapshot(args.b)
    diff = diff_snapshots(before, after, tolerance=args.tolerance or 0.0, ignore=args.ignore or ())
    if diff.clean:
        print(f"OK: {diff.compared} series compared, no differences")
        return EXIT_OK
    for line in diff.describe():
        print(line)
    print(f"DIFFERS: {len(diff.changes)} change(s) across {diff.compared} compared series")
    return EXIT_FAILURE


# ------------------------------------------------------ verify / lint


def _verify(args) -> int:
    if args.list_mutations:
        for name, mutation in sorted(CATALOG.items()):
            print(f"{name:<16} [{mutation.invariant}] {mutation.description}")
        return EXIT_OK
    given = {field: getattr(args, field) for field in _STARVED}
    overrides = {field: value for field, value in given.items() if value is not None}
    if args.kernel == "overflow" and not overrides:
        overrides = _STARVED
    config = replace(DEFAULT_CONFIG, **overrides)
    kernel = demo_kernel(args.kernel, args.size)
    if isinstance(kernel, HMM):
        dag = hmm_to_dag(kernel, range(kernel.num_observations))
    else:
        dag, _ = circuit_to_dag(kernel)
    program, compile_stats = compile_dag(dag, config)
    stats = compile_stats.schedule
    label = f"{args.kernel} kernel, {config.num_banks}x{config.regs_per_bank} regfile"
    if args.mutate:
        try:
            program, stats = apply_mutation(args.mutate, program, stats)
        except MutationNotApplicable as error:
            raise ValueError(f"mutation {args.mutate!r} not applicable: {error}") from None
        label += f", planted bug: {args.mutate}"
    report = verify_program(program, config, stats=stats)
    print(f"[{label}]")
    for line in report.describe():
        print(line)
    return EXIT_OK if report.ok else EXIT_FAILURE


def _lint(args) -> int:
    if args.list_rules:
        for rule in RULES:
            print(f"{rule.code}  {rule.summary}")
        return EXIT_OK
    if not args.paths:
        raise ValueError("no paths given (try: lint src/)")
    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        raise ValueError(f"no such path: {', '.join(missing)}")
    codes = [code.strip().upper() for code in (args.select or "").split(",") if code.strip()]
    findings = lint_paths(args.paths, select=codes or None)
    for finding in findings:
        print(finding.describe())
    if findings:
        print(f"{len(findings)} finding(s)")
        return EXIT_FAILURE
    print("clean: no findings")
    return EXIT_OK


# ---------------------------------------------------------------- main


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Record, analyze, diff and verify REASON traces, snapshots and schedules.",
    )
    add_version(parser, PROG)
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, doc, *positionals):
        sub = commands.add_parser(name, help=doc)
        for positional in positionals:
            sub.add_argument(positional)
        sub.set_defaults(handler=handler)
        return sub

    record = command("record", _record, "serve the demo mix traced; write DIR", "dir")
    record.add_argument("--size", type=positive_int, default=8, help="kernel scale")
    record.add_argument("--requests", type=positive_int, default=24)
    record.add_argument("--shards", type=positive_int, default=2)

    command("summary", _summary, "footer metadata without decoding records", "trace")
    command("validate", _validate, "full-decode integrity check", "trace")
    command("phases", _phases, "per-kind cycle breakdown", "trace")
    command("heatmap", _heatmap, "SRAM bank / PE traffic", "trace")

    hist = command("hist", _hist, "event-cycle histogram", "trace")
    hist.add_argument(
        "--kind", default="CONFLICT", choices=[name.lower() for name in _KINDS], type=str.lower
    )
    hist.add_argument("--buckets", type=positive_int, default=20)

    dump = command("dump", _dump, "print matching records", "trace")
    dump.add_argument("--kinds", type=_event_kinds, help="comma-separated EventKind names")
    dump.add_argument("--start", type=int, default=None, help="window start cycle")
    dump.add_argument("--end", type=int, default=None, help="window end cycle")
    dump.add_argument("--limit", type=non_negative_int, default=50)

    show = command("show", _show, "render a snapshot file", "snapshot")
    show.add_argument("--format", default="pretty", choices=tuple(_RENDERERS))

    watch = command("watch", _watch, "poll a snapshot file, print what moved", "snapshot")
    watch.add_argument("--interval", type=positive_float, default=2.0)
    watch.add_argument("--count", type=positive_int, help="stop after N rewrites (default: never)")
    watch.add_argument("--ignore", action="append")

    diff = command("diff", _diff, "two traces or two snapshots; exit 1 if they differ", "a", "b")
    diff.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="snapshots: relative tolerance before a change counts (default exact)",
    )
    diff.add_argument(
        "--ignore",
        action="append",
        help="snapshots: glob over metric names / name{series} to skip "
        "(repeatable; e.g. '*_seconds' for wall-clock series)",
    )

    verify = command("verify", _verify, "compile a demo kernel and statically verify it")
    verify.add_argument("--kernel", default="overflow", choices=("overflow", "circuit", "hmm"))
    verify.add_argument("--size", type=positive_int, default=8, help="kernel scale")
    verify.add_argument("--banks", dest="num_banks", type=int, default=None)
    verify.add_argument("--regs", dest="regs_per_bank", type=int, default=None)
    verify.add_argument("--pes", dest="num_pes", type=int, default=None)
    verify.add_argument(
        "--mutate",
        default=None,
        choices=sorted(CATALOG),
        help="plant a catalogued bug first (see --list-mutations)",
    )
    verify.add_argument("--list-mutations", action="store_true", help="list plantable bugs")

    lint = command("lint", _lint, "run the project-idiom AST lint")
    lint.add_argument("paths", nargs="*", help="files or directories to lint")
    lint.add_argument("--select", default=None, help="comma-separated rule codes to run")
    lint.add_argument("--list-rules", action="store_true", help="list rules")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
