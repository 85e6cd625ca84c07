"""Offline trace CLI: ``python -m repro.trace <command> <trace-file>``.

Commands::

    summary  TRACE            footer metadata (events, bytes/event, counts)
    validate TRACE            full-decode integrity check vs the footer
    phases   TRACE            per-kind / per-phase cycle breakdown
    heatmap  TRACE            SRAM bank + PE traffic table
    hist     TRACE [--kind CONFLICT] [--buckets 20]
                              event-cycle histogram (ASCII)
    dump     TRACE [--kinds DECIDE,CONFLICT] [--start C] [--end C]
                   [--limit N]  print matching records
    diff     A B              align two traces of the same kernel;
                              per-kind count deltas, per-phase cycle
                              deltas and the first diverging event;
                              exit 1 when they differ (CI gate)
    record   OUT [--kernel ksat|pigeonhole|circuit|hmm] [--size N]
                              run a demo kernel with tracing on, write
                              OUT, and cross-validate it against the
                              ExecutionReport it came from

Every command streams; none materializes the event list.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, add_version
from repro.trace.analyze import (
    bank_heatmap,
    cross_validate,
    cycle_histogram,
    describe_record,
    diff_traces,
    phase_breakdown,
)
from repro.trace.format import EventKind, TraceFormatError
from repro.trace.reader import TraceReader

#: The kinds a record can have: every ``EventKind`` but the footer's.
_KINDS = sorted(kind.name for kind in EventKind if kind is not EventKind.EOS)


def _print_summary(args) -> int:
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


def _print_validate(args) -> int:
    try:
        summary = TraceReader(args.trace).validate()
    except TraceFormatError as error:
        print(f"INVALID: {error}")
        return EXIT_FAILURE
    print(f"OK: {summary.events} events decode and match the footer counts")
    return EXIT_OK


def _print_phases(args) -> int:
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


def _print_heatmap(args) -> int:
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


def _print_hist(args) -> int:
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


def _print_dump(args) -> int:
    reader = TraceReader(args.trace)
    printed = 0
    for record in reader.events(kinds=args.kinds, start_cycle=args.start, end_cycle=args.end):
        if printed == args.limit:
            print(f"... stopped after {args.limit} records")
            break
        print(f"{record.cycle:>12}  {describe_record(record)}")
        printed += 1
    else:
        if printed == 0:
            print("no records matched")
    return EXIT_OK


def _print_diff(args) -> int:
    result = diff_traces(args.a, args.b)
    if result.identical:
        print(
            f"OK: traces match ({result.events[0]} events, "
            f"{result.cycles[0]} cycles)"
        )
        return EXIT_OK
    for line in result.describe():
        print(line)
    print("DIFFERS: the traces record different executions")
    return EXIT_FAILURE


def _record_demo(args) -> int:
    # Imported here: the CLI's read-side commands must not drag the
    # whole accelerator stack in just to summarize a file.
    from repro.api.session import ReasonSession

    kernel_name = args.kernel
    size = args.size
    if kernel_name == "ksat":
        from repro.logic.generators import random_ksat

        kernel = random_ksat(size or 60, 4 * (size or 60), seed=7)
    elif kernel_name == "pigeonhole":
        from repro.logic.generators import pigeonhole

        kernel = pigeonhole(size or 4)
    elif kernel_name == "circuit":
        from repro.pc.learn import random_circuit

        kernel = random_circuit(size or 8, depth=3, sum_children=3, seed=3)
    elif kernel_name == "hmm":
        from repro.hmm.model import HMM

        kernel = HMM.random(size or 8, 6, seed=1)
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown demo kernel {kernel_name!r}")

    report = ReasonSession().run(kernel, trace=args.out)
    info = report.extras["trace"]
    print(f"wrote {args.out}: {info['events']} events, {info['bytes']} bytes "
          f"({info['bytes_per_event']:.2f} B/event)")
    validation = cross_validate(args.out, report)
    for check in validation.checks:
        flag = "ok" if check.ok else "MISMATCH"
        print(f"  {check.name:<13} trace={check.trace_value:<12} "
              f"report={check.report_value:<12} {flag}")
    if not validation.ok:
        print("FAILED: trace does not reproduce the execution report")
        return EXIT_FAILURE
    print("cross-validation: trace reproduces the execution report exactly")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Offline analysis over REASON binary event traces.",
    )
    add_version(parser, "python -m repro.trace")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, handler, doc in (
        ("summary", _print_summary, "footer metadata without decoding records"),
        ("validate", _print_validate, "full-decode integrity check"),
        ("phases", _print_phases, "per-kind cycle breakdown"),
        ("heatmap", _print_heatmap, "SRAM bank / PE traffic"),
    ):
        sub = commands.add_parser(name, help=doc)
        sub.add_argument("trace", help="trace file to analyze")
        sub.set_defaults(handler=handler)

    hist = commands.add_parser("hist", help="event-cycle histogram")
    hist.add_argument("trace")
    hist.add_argument(
        "--kind",
        default="CONFLICT",
        choices=[name.lower() for name in _KINDS],
        type=str.lower,
    )
    hist.add_argument("--buckets", type=int, default=20)
    hist.set_defaults(handler=_print_hist)

    dump = commands.add_parser("dump", help="print matching records")
    dump.add_argument("trace")
    dump.add_argument("--kinds", type=_event_kinds, help="comma-separated EventKind names")
    dump.add_argument("--start", type=int, default=None, help="window start cycle")
    dump.add_argument("--end", type=int, default=None, help="window end cycle")
    dump.add_argument("--limit", type=int, default=50)
    dump.set_defaults(handler=_print_dump)

    diff = commands.add_parser(
        "diff", help="align two traces; exit 1 when they differ"
    )
    diff.add_argument("a", help="baseline trace")
    diff.add_argument("b", help="candidate trace")
    diff.set_defaults(handler=_print_diff)

    record = commands.add_parser(
        "record", help="trace a demo kernel and cross-validate the file"
    )
    record.add_argument("out", help="trace file to write")
    record.add_argument(
        "--kernel",
        default="ksat",
        choices=("ksat", "pigeonhole", "circuit", "hmm"),
    )
    record.add_argument("--size", type=int, default=None)
    record.set_defaults(handler=_record_demo)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except TraceFormatError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
