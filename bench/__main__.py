"""``python3 -m bench run|compare`` — see ``bench/README.md``.

``run --workload NAME`` measures one workload in this process and ends
with the one-line JSON result the benchmark contract asks for.  ``run``
without ``--workload`` runs all five, each in a fresh subprocess, and
stores their records in one result file for ``compare``.
"""

from __future__ import annotations

import time

# Before the other imports: they are part of ``setup_s``.
_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from bench.record import REPO_ROOT  # noqa: E402

# The program under test lives in src/; it is not installed.
sys.path.insert(0, str(REPO_ROOT / "src"))

#: ``repro.workloads`` seeds several task generators with ``hash()`` of
#: a string, which Python salts per process; pinning the salt makes the
#: paper-task kernels (and so digests and modeled totals) repeat.
HASH_SEED = "0"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure one workload, or all five")
    run.add_argument("--workload", help="one workload, in this process")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seeds", type=lambda text: [int(s) for s in text.split(",")],
                     help="all-workload mode: comma-separated seeds, one run of "
                          "every workload per seed (default: --seed)")
    run.add_argument("--seconds", type=float, default=None,
                     help="length of the timed phase (default: run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: traced run, per-layer metrics instead of end-to-end")
    run.add_argument("--traced", action="store_true",
                     help="all-workload mode: add a traced run of each workload")
    run.add_argument("--tiny", action="store_true", help="miniature sizes (tests)")
    run.add_argument("--repeats", type=int, default=1,
                     help="all-workload mode: runs per workload")
    run.add_argument("--out", type=Path, help="result file to write")
    compare = commands.add_parser(
        "compare", help="apply the bounds in BENCHMARK.json to two result files"
    )
    compare.add_argument("base", type=Path)
    compare.add_argument("new", type=Path)
    return parser


def pin_to_one_cpu() -> None:
    """Keep this process and its threads on the last CPU it may use.

    Under the GIL a ``ReasonService`` cannot use a second CPU; letting
    its three busy threads wander over two, next to whatever else the
    host runs, only makes hand-offs erratic.  On the 2-CPU reference
    container pinning cut the run-to-run spread of the service
    workloads to a third (and raised their throughput by a fifth).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args: argparse.Namespace) -> int:
    """One workload, here; re-executed once if the hash salt is loose."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        environment = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(
            sys.executable, [sys.executable, "-m", "bench", *sys.argv[1:]], environment
        )
    pin_to_one_cpu()
    from bench import record, run

    result = run.run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        tiny=args.tiny,
        import_s=time.perf_counter() - _PROCESS_START,
    )
    for name, metric in result["metrics"].items():
        print(f"{args.workload:15s} {name:42s} {metric['value']!r:>24} {metric['unit']}")
    for problem in result["problems"]:
        print(f"{args.workload}: WRONG {problem}", file=sys.stderr)
    if args.out is not None:
        record.save(args.out, [result])
    print(run.driver_line(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh subprocess; one result file."""
    from repro.cli import EXIT_FAILURE, EXIT_OK

    from bench import record
    from bench.workloads import WORKLOADS

    environment = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    runs, ok = [], True
    part = record.OUT_DIR / f"part-{os.getpid()}.json"
    modes = (0, 1) if args.traced else (0,)
    for repeat, seed, name, trace in itertools.product(
        range(args.repeats), args.seeds or [args.seed], WORKLOADS, modes
    ):
        command = [
            sys.executable, "-m", "bench", "run", "--workload", name,
            "--seed", str(seed), "--trace", str(trace), "--out", str(part),
        ]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.tiny:
            command.append("--tiny")
        completed = subprocess.run(command, cwd=REPO_ROOT, env=environment)
        if completed.returncode != 0:
            print(f"{name}: exit {completed.returncode}", file=sys.stderr)
            ok = False
            continue
        for result in record.load(part):
            result["repeat"] = repeat
            ok = ok and result["correct"]
            runs.append(result)
        part.unlink()
    out = args.out or record.OUT_DIR / f"BENCH_{int(time.time())}.json"
    record.save(out, runs)
    print(f"wrote {out}")
    return EXIT_OK if ok else EXIT_FAILURE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"bench: the program under test is not at {REPO_ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.command == "compare":
        from bench import compare

        return compare.main(args.base, args.new)
    if args.workload is not None:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
