"""Live-metrics CLI: ``python -m repro.metrics <command> ...``.

Commands::

    show  SNAPSHOT [--format pretty|prom|json]
                              render a snapshot file
    diff  A B [--tolerance R] [--ignore GLOB]...
                              compare two snapshots; exit 1 on any
                              difference outside the filters (CI gate)
    watch SNAPSHOT [--interval S] [--count N]
                              poll a snapshot file and print what moved
                              between rewrites
    record OUT [--kernel ...] [--requests N] [--shards N]
                              serve a demo workload with metrics on and
                              write the resulting snapshot

Snapshot files are the JSON rendering of
:meth:`~repro.metrics.registry.MetricsRegistry.snapshot` (what
:func:`~repro.metrics.render.save_snapshot` writes and a live service
exports via ``service.metrics().snapshot()``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, add_version
from repro.metrics.diff import diff_snapshots
from repro.metrics.render import (
    load_snapshot,
    render_json,
    render_pretty,
    render_prometheus,
    save_snapshot,
)


def _show(args) -> int:
    snapshot = load_snapshot(args.snapshot)
    if args.format == "prom":
        sys.stdout.write(render_prometheus(snapshot))
    elif args.format == "json":
        print(render_json(snapshot))
    else:
        sys.stdout.write(render_pretty(snapshot))
    return EXIT_OK


def _diff(args) -> int:
    before = load_snapshot(args.a)
    after = load_snapshot(args.b)
    diff = diff_snapshots(
        before, after, tolerance=args.tolerance, ignore=args.ignore or ()
    )
    if diff.clean:
        print(f"OK: {diff.compared} series compared, no differences")
        return EXIT_OK
    for line in diff.describe():
        print(line)
    print(
        f"DIFFERS: {len(diff.changes)} change(s) across "
        f"{diff.compared} compared series"
    )
    return EXIT_FAILURE


def _watch(args) -> int:
    """Print metric movement every time the snapshot file is rewritten."""
    previous = None
    last_mtime = None
    remaining = args.count
    while remaining is None or remaining > 0:
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
            if remaining is not None:
                remaining -= 1
                if remaining <= 0:
                    break
        time.sleep(args.interval)
    return EXIT_OK


def _record(args) -> int:
    # Imported here: the read-side commands must not drag the whole
    # accelerator stack in just to render a file.
    from repro.api.service import ReasonService
    from repro.logic.generators import random_ksat
    from repro.pc.learn import random_circuit

    if args.kernel == "ksat":
        size = args.size or 30
        kernels = [
            random_ksat(size, 4 * size, seed=seed) for seed in range(args.unique)
        ]
    elif args.kernel == "circuit":
        size = args.size or 6
        kernels = [
            random_circuit(size, depth=2, sum_children=2, seed=seed)
            for seed in range(args.unique)
        ]
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown demo kernel {args.kernel!r}")

    with ReasonService(shards=args.shards, metrics=True) as service:
        futures = [
            service.submit(kernels[index % len(kernels)])
            for index in range(args.requests)
        ]
        for future in futures:
            future.result()
        service.drain()
        snapshot = service.metrics().snapshot()
    save_snapshot(snapshot, args.out)
    spans = snapshot["metrics"]["reason_request_e2e_seconds"]["series"]
    served = sum(entry["count"] for entry in spans.values())
    print(
        f"wrote {args.out}: {len(snapshot['metrics'])} metric families, "
        f"{served} requests served on {args.shards} shard(s)"
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.metrics",
        description="Render, diff and watch REASON service metrics snapshots.",
    )
    add_version(parser, "python -m repro.metrics")
    commands = parser.add_subparsers(dest="command", required=True)

    show = commands.add_parser("show", help="render a snapshot file")
    show.add_argument("snapshot")
    show.add_argument(
        "--format", default="pretty", choices=("pretty", "prom", "json")
    )
    show.set_defaults(handler=_show)

    diff = commands.add_parser(
        "diff", help="compare two snapshots; exit 1 when they differ"
    )
    diff.add_argument("a")
    diff.add_argument("b")
    diff.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="relative tolerance before a change counts (default exact)",
    )
    diff.add_argument(
        "--ignore",
        action="append",
        help="glob over metric names / name{series} to skip "
        "(repeatable; e.g. '*_seconds' for wall-clock series)",
    )
    diff.set_defaults(handler=_diff)

    watch = commands.add_parser(
        "watch", help="poll a snapshot file, print what moved"
    )
    watch.add_argument("snapshot")
    watch.add_argument("--interval", type=float, default=2.0)
    watch.add_argument(
        "--count",
        type=int,
        default=None,
        help="stop after N observed rewrites (default: forever)",
    )
    watch.add_argument("--ignore", action="append")
    watch.set_defaults(handler=_watch)

    record = commands.add_parser(
        "record", help="serve a demo workload with metrics on, write snapshot"
    )
    record.add_argument("out")
    record.add_argument("--kernel", default="ksat", choices=("ksat", "circuit"))
    record.add_argument("--size", type=int, default=None)
    record.add_argument("--requests", type=int, default=24)
    record.add_argument("--unique", type=int, default=4)
    record.add_argument("--shards", type=int, default=2)
    record.set_defaults(handler=_record)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
