"""Static-analysis CLI: ``python -m repro.analysis <command> ...``.

Commands::

    verify [--kernel circuit|hmm|overflow] [--size N]
           [--banks N] [--regs N] [--pes N]
           [--mutate NAME] [--list-mutations]
                          compile a demo kernel and statically verify
                          the schedule; --mutate plants a catalogued
                          bug first (demonstrating the verifier
                          catching it); exit 1 on any error finding
    lint   PATHS... [--select RPR001,RPR003] [--list-rules]
                          run the project-idiom AST lint; prints
                          ``path:line:col RULE message`` per finding;
                          exit 1 when anything is found

Exit codes follow :mod:`repro.cli`: 0 clean, 1 findings, 2 usage or
unreadable input.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, add_version

_PROG = "python -m repro.analysis"


def _build_demo(kernel: str, size, config):
    """(program, schedule_stats) for one of the demo kernels."""
    from repro.core.compiler import compile_dag
    from repro.core.dag import circuit_to_dag
    from repro.pc.learn import random_circuit

    if kernel == "overflow":
        # The canonical spill-heavy kernel (the conftest fixture pair):
        # small circuit, register-starved config, spills on most issues.
        circuit = random_circuit(size or 8, depth=3, sum_children=3, seed=13)
        dag, _ = circuit_to_dag(circuit)
    elif kernel == "circuit":
        circuit = random_circuit(size or 8, depth=3, sum_children=3, seed=3)
        dag, _ = circuit_to_dag(circuit)
    elif kernel == "hmm":
        from repro.core.dag.builders import hmm_to_dag
        from repro.hmm.model import HMM

        model = HMM.random(size or 6, 4, seed=1)
        dag = hmm_to_dag(model, [0, 1, 2, 3])
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown demo kernel {kernel!r}")
    program, stats = compile_dag(dag, config)
    return program, stats.schedule


def _verify(args) -> int:
    from dataclasses import replace

    from repro.analysis.mutations import (
        CATALOG,
        MutationNotApplicable,
        apply_mutation,
    )
    from repro.analysis.verifier import verify_program
    from repro.core.arch.config import DEFAULT_CONFIG

    if args.list_mutations:
        for name, mutation in sorted(CATALOG.items()):
            print(f"{name:<16} [{mutation.invariant}] {mutation.description}")
        return EXIT_OK

    config = DEFAULT_CONFIG
    overrides = {}
    if args.banks is not None:
        overrides["num_banks"] = args.banks
    if args.regs is not None:
        overrides["regs_per_bank"] = args.regs
    if args.pes is not None:
        overrides["num_pes"] = args.pes
    if args.kernel == "overflow" and not overrides:
        # Without explicit sizing, "overflow" means the register-starved
        # fixture config, not the default 64x32 file (which never spills).
        overrides = {"num_banks": 2, "regs_per_bank": 3, "num_pes": 2}
    if overrides:
        try:
            config = replace(config, **overrides)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_USAGE

    program, stats = _build_demo(args.kernel, args.size, config)
    label = f"{args.kernel} kernel, {config.num_banks}x{config.regs_per_bank} regfile"

    if args.mutate:
        try:
            program, stats = apply_mutation(args.mutate, program, stats)
        except MutationNotApplicable as error:
            print(f"error: mutation {args.mutate!r} not applicable: {error}",
                  file=sys.stderr)
            return EXIT_USAGE
        label += f", planted bug: {args.mutate}"

    report = verify_program(program, config, stats=stats)
    print(f"[{label}]")
    for line in report.describe():
        print(line)
    return EXIT_OK if report.ok else EXIT_FAILURE


def _lint(args) -> int:
    import os

    from repro.analysis.lint import RULES, lint_paths

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.code}  {rule.summary}")
        return EXIT_OK
    if not args.paths:
        print("error: no paths given (try: lint src/)", file=sys.stderr)
        return EXIT_USAGE
    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return EXIT_USAGE
    select = None
    if args.select:
        select = [code.strip().upper() for code in args.select.split(",") if code.strip()]
    findings = lint_paths(args.paths, select=select)
    for finding in findings:
        print(finding.describe())
    if findings:
        print(f"{len(findings)} finding(s)")
        return EXIT_FAILURE
    print("clean: no findings")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Static program verification and project-idiom lint.",
    )
    add_version(parser, _PROG)
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser(
        "verify", help="compile a demo kernel and statically verify it"
    )
    verify.add_argument(
        "--kernel", default="overflow", choices=("overflow", "circuit", "hmm")
    )
    verify.add_argument("--size", type=int, default=None)
    verify.add_argument("--banks", type=int, default=None)
    verify.add_argument("--regs", type=int, default=None)
    verify.add_argument("--pes", type=int, default=None)
    verify.add_argument(
        "--mutate",
        default=None,
        help="plant a catalogued bug first (see --list-mutations)",
    )
    verify.add_argument(
        "--list-mutations", action="store_true", help="list plantable bugs"
    )
    verify.set_defaults(handler=_verify)

    lint = commands.add_parser("lint", help="run the project-idiom AST lint")
    lint.add_argument("paths", nargs="*", help="files or directories to lint")
    lint.add_argument(
        "--select", default=None, help="comma-separated rule codes to run"
    )
    lint.add_argument("--list-rules", action="store_true", help="list rules")
    lint.set_defaults(handler=_lint)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except KeyError as error:
        print(f"error: unknown mutation {error}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
