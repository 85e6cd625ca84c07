"""Gate: every function under ``src/repro`` runs on a front door, or is
listed with the test that runs it.

    python .github/scripts/front_door_lines.py

What a front door is is decided once, by ``IMPORTER_DIRS`` in
``tests/test_module_importers.py`` (the static reachability gate); this
script runs a door for each of those directories and fails on a
directory it has none for:

- ``examples``: every ``examples/*.py``;
- ``src/repro``: every subcommand ``repro.__main__._parser()`` defines,
  run over the bundle ``python -m repro record`` writes (every trace
  command on every trace, ``diff`` of one trace with itself and with a
  different one, every ``verify --mutate`` entry, ...), each with the
  exit code it must return; a subcommand no door invokes fails;
- ``bench``: ``python3 -m bench run --tiny --seconds 1``, with and
  without ``--traced``;
- ``benchmarks``: the paper figures' band assertions and table
  printers, ``pytest benchmarks -o python_functions="test_* bench_*"
  --benchmark-disable``.

Every interpreter a door starts imports a ``sitecustomize`` module this
script puts first on ``PYTHONPATH``: it installs ``sys.settrace`` and
``threading.settrace`` and records, for files under ``src/repro``, each
line executed and each code object entered (its first line and name).

The gate is by function.  A function runs when its code object is
entered — a call event, which neither depends on how an interpreter
reports line events nor counts the one guard ``raise`` a running
function never reaches.  A function no door runs must be listed in
``.github/dark_functions.txt`` as ``module:qualname  <test node id>``,
and a second pass runs the named tests under the same recorder, one
recording per test (a thread records under the test that started it).
The step fails when

- a function no door runs is not listed;
- a listed function is run by a door (or no longer exists);
- a listed function's test does not run it (or fails);
- a door exits with a status other than the one it expects;
- a module under ``src/repro`` changed while the script ran (its text
  is read once, before the doors, and every verdict is made from that
  reading): then only the changed modules are named, and no other
  verdict is given.

Statements no door executed are printed per module as context (a
statement counts when one of its own lines ran: a simple statement's,
a compound statement's header with its decorators, a ``try`` through
its body; docstrings and ``global`` / ``nonlocal`` are not counted).
"""

import argparse
import ast
import importlib.util
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "repro"
LISTED = REPO / ".github" / "dark_functions.txt"

_RECORDER = '''
import atexit, os, sys, threading

_root = os.environ["FRONT_DOOR_ROOT"]
_out = os.environ["FRONT_DOOR_OUT"]
_inside = {}
_lines = set()
_entered = {}
_current = _entered.setdefault(os.environ.get("FRONT_DOOR_TEST", ""), set())


def _local(frame, event, arg):
    if event == "line":
        _lines.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _tracer(codes):
    """A global trace function that adds the code objects it enters to
    ``codes``."""

    def _global(frame, event, arg):
        code = frame.f_code
        inside = _inside.get(code.co_filename)
        if inside is None:
            inside = _inside[code.co_filename] = os.path.realpath(code.co_filename).startswith(_root)
        if not inside:
            return None
        codes.add((code.co_filename, code.co_firstlineno, code.co_name))
        return _local

    return _global


def switch(tag):
    """Record what this thread enters from now on under ``tag`` (a test
    id); threads started from now on record under it too."""
    global _current
    _current = _entered.setdefault(tag, set())
    sys.settrace(_tracer(_current))


def _thread_started(frame, event, arg):
    """A thread records, for its whole life, under the tag current when it
    started: a worker an earlier test left running does not record under
    a later one."""
    tracer = _tracer(_current)
    sys.settrace(tracer)
    return tracer(frame, event, arg)


@atexit.register
def _dump():
    sys.settrace(None)
    threading.settrace(None)
    with open(os.path.join(_out, f"{os.getpid()}.rec"), "w", encoding="utf-8") as out:
        for filename, line in list(_lines):
            out.write(f"L\\t{os.path.realpath(filename)}\\t{line}\\n")
        for tag, codes in list(_entered.items()):
            for filename, line, name in list(codes):
                out.write(f"C\\t{tag}\\t{os.path.realpath(filename)}\\t{line}\\t{name}\\n")


sys.settrace(_tracer(_current))
threading.settrace(_thread_started)
'''

#: Loaded into the second pass's pytest: code entered while a test runs
#: (its fixtures' setup, and the threads and processes it starts,
#: included) is recorded under its node id.
_PLUGIN = '''
import os

import pytest
import sitecustomize


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    os.environ["FRONT_DOOR_TEST"] = item.nodeid
    sitecustomize.switch(item.nodeid)
    yield
    sitecustomize.switch("")
    del os.environ["FRONT_DOOR_TEST"]
'''

#: Statements with no code of their own: a ``try`` is counted through
#: its body's statements.
_SKIPPED = tuple(
    getattr(ast, name) for name in ("Try", "TryStar", "Global", "Nonlocal") if hasattr(ast, name)
)
#: Compound statements, counted by their header lines.
_COMPOUND = (
    ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith,
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Match,
)  # fmt: skip
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def importer_dirs():
    """``IMPORTER_DIRS`` of the static gate, read from its module."""
    path = REPO / "tests" / "test_module_importers.py"
    spec = importlib.util.spec_from_file_location("_module_importers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.IMPORTER_DIRS


def cli_parser():
    sys.path.insert(0, str(REPO / "src"))
    from repro.__main__ import _parser

    return _parser()


def subcommands(parser) -> dict:
    """Subcommand name → its parser."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def changed_snapshot(snapshot: Path, other: Path) -> None:
    """Save ``snapshot`` at ``other`` with one counter raised by one."""
    from repro.metrics import load_snapshot, save_snapshot

    changed = load_snapshot(snapshot)
    changed["metrics"]["reason_service_admitted_total"]["series"][""] += 1
    save_snapshot(changed, other)


def cli_doors(scratch: Path, parser):
    """``(argv, expected exit)`` for the ``python -m repro`` doors; the
    later ones read what the first one wrote."""
    repro = [sys.executable, "-m", "repro"]
    bundle = scratch / "record"
    yield repro + ["record", str(bundle)], 0
    snapshot, other = bundle / "metrics.json", scratch / "changed.json"
    changed_snapshot(snapshot, other)
    traces = sorted(map(str, bundle.glob("*.trace")))
    for trace in traces:
        for command in ("summary", "validate", "phases", "heatmap", "hist"):
            yield repro + [command, trace], 0
        yield repro + ["hist", trace, "--kind", "decide", "--buckets", "4"], 0
        yield repro + ["dump", trace, "--limit", "20"], 0
        yield repro + ["dump", trace, "--kinds", "conflict,decide", "--start", "0", "--end", "500"], 0
    yield repro + ["diff", traces[0], traces[0]], 0
    yield repro + ["diff", traces[0], traces[1]], 1
    snapshot, other = str(snapshot), str(other)
    for style in ("pretty", "prom", "json"):
        yield repro + ["show", snapshot, "--format", style], 0
    yield repro + ["watch", snapshot, "--count", "1", "--interval", "0.01"], 0
    yield repro + ["diff", snapshot, snapshot], 0
    yield repro + ["diff", snapshot, other, "--ignore", "*_seconds"], 1
    for kernel in ("overflow", "circuit", "hmm"):
        yield repro + ["verify", "--kernel", kernel], 0
    yield repro + ["verify", "--list-mutations"], 0
    (mutate,) = [a for a in subcommands(parser)["verify"]._actions if a.dest == "mutate"]
    for mutation in mutate.choices:
        yield repro + ["verify", "--mutate", mutation], 1
    yield repro + ["lint", "src"], 0
    yield repro + ["lint", "--list-rules"], 0


def front_doors(scratch: Path, parser) -> dict:
    """``IMPORTER_DIRS`` entry → the doors that run it."""
    bench = [sys.executable, "-m", "bench", "run", "--tiny", "--seconds", "1"]
    return {
        "examples": [
            ([sys.executable, str(example)], 0)
            for example in sorted((REPO / "examples").glob("*.py"))
        ],
        "src/repro": cli_doors(scratch, parser),
        "bench": [
            (bench + ["--out", str(scratch / "bench.json")], 0),
            (bench + ["--traced", "--out", str(scratch / "traced.json")], 0),
        ],
        "benchmarks": [
            (
                [
                    sys.executable, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider",
                    "-o", "python_functions=test_* bench_*", "--benchmark-disable",
                ],
                0,
            )
        ],
    }  # fmt: skip


def statements(tree: ast.AST):
    """``(first line, own lines)`` of every statement that runs code."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            continue  # a docstring, or a bare string: no code
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        if isinstance(node, _COMPOUND):
            last = (node.cases[0].pattern if isinstance(node, ast.Match) else node.body[0]).lineno - 1
            last = max(last, node.lineno)
        else:
            last = node.end_lineno
        yield first, range(first, last + 1)


def spans(unexecuted):
    """``[(0, 3), (1, 4), (5, 9)]`` — (statement position, first line)
    pairs — as ``"3-4, 9"``: one run per stretch of statements that are
    unexecuted one after another."""
    runs = []
    for position, line in unexecuted:
        if runs and runs[-1][0] == position - 1:
            runs[-1][0], runs[-1][2] = position, line
        else:
            runs.append([position, line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for _, a, b in runs)


def runs_code(function: ast.AST) -> bool:
    """Whether a body holds more than a docstring, ``...`` or ``pass``."""
    return any(
        not isinstance(statement, ast.Pass)
        and not (isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant))
        for statement in function.body
    )


def functions(tree: ast.AST, prefix: str = ""):
    """``(qualname, (first line, name))`` of every function whose body
    runs code (see :func:`runs_code`), nested ones too; the pair is what
    its code object reports as ``co_firstlineno`` (the first decorator's
    line, if decorated) and ``co_name``.  A property's setter or deleter
    shares its getter's ``__qualname__``, so it is named
    ``Class.name.setter`` (``.deleter``) here."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _FUNCTIONS):
            qualname = prefix + node.name
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Attribute) and decorator.attr in ("setter", "deleter"):
                    qualname += "." + decorator.attr
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if runs_code(node):
                yield qualname, (first, node.name)
            yield from functions(node, qualname + ".<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from functions(node, prefix + node.name + ".")
        else:
            yield from functions(node, prefix)


def dark_functions(source: str, entered: set) -> list:
    """The qualnames of the functions in ``source`` whose body never ran:
    ``entered`` holds the ``(first line, name)`` of every code object of
    the file that was entered.  A module or class body entered at import
    runs each ``def`` line, never a body; a stub (docstring, ``...`` or
    ``pass`` only) has no body to run and is never dark."""
    return [qualname for qualname, code in functions(ast.parse(source)) if code not in entered]


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def read_sources(package: Path) -> dict:
    """Path → text of every module under ``package``, in path order: the
    one reading every verdict is made from, taken before the doors run."""
    return {module: module.read_text(encoding="utf-8") for module in sorted(package.rglob("*.py"))}


def changed_failures(sources: dict, package: Path) -> list:
    """A line per module under ``package`` whose text is no longer its
    ``sources`` reading — edited, added or removed since.  A door that
    ran edited code recorded line numbers the reading does not hold, so
    no verdict of the run can be trusted."""
    now = read_sources(package)
    return [
        f"{os.path.relpath(module, REPO)} changed during the run"
        for module in sorted(sources.keys() | now.keys())
        if sources.get(module) != now.get(module)
    ]


def function_index(sources: dict) -> dict:
    """``(file, first line, name)`` of a code object → ``module:qualname``,
    for every function in ``sources`` whose body runs code."""
    return {
        (str(module.resolve()), *code): f"{module_name(module)}:{qualname}"
        for module, source in sources.items()
        for qualname, code in functions(ast.parse(source))
    }


def dark_keys(entered: set, sources: dict) -> set:
    """``module:qualname`` of every function in ``sources`` no
    ``(file, first line, name)`` in ``entered`` ran."""
    dark = set()
    for module, source in sources.items():
        filename = str(module.resolve())
        codes = {(line, name) for file, line, name in entered if file == filename}
        dark.update(f"{module_name(module)}:{qualname}" for qualname in dark_functions(source, codes))
    return dark


def read_listed(text: str) -> dict:
    """``module:qualname`` → test node id, from the list's lines."""
    listed = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            function, test = line.split()
            listed[function] = test
    return listed


def door_failures(dirs, doors, names, invoked) -> list:
    """An ``IMPORTER_DIRS`` entry without a door (or a door for no
    entry), and a ``python -m repro`` subcommand no door invoked."""
    failures = [f"no front door runs {d} (an IMPORTER_DIRS entry)" for d in dirs if d not in doors]
    failures += [f"a front door runs {d}, which IMPORTER_DIRS lacks" for d in doors if d not in dirs]
    failures += [f"no front door invokes `python -m repro {n}`" for n in sorted(set(names) - invoked)]
    return failures


def list_failures(dark: set, run: set, listed: dict) -> list:
    """The list against the doors: ``dark`` functions no door runs,
    ``run`` the ones a door does, ``listed`` the list."""
    failures = [f"{key}: no front door runs it, and it is not listed" for key in sorted(dark - set(listed))]
    for key in sorted(listed):
        if key in run:
            failures.append(f"{key} is listed, but a front door runs it")
        elif key not in dark:
            failures.append(f"{key} is listed, but no such function exists")
    return failures


def named_test_failures(listed: dict, ran: dict) -> list:
    """``listed`` functions whose test did not run them: ``ran`` maps a
    test node id to the functions it ran."""
    return [
        f"{key} is listed with {test}, which does not run it"
        for key, test in sorted(listed.items())
        if key not in ran.get(test, ())
    ]


def noting(commands, invoked: set):
    """``commands`` as they are pulled, noting each ``python -m repro``
    subcommand in ``invoked``."""
    for command, expected in commands:
        if command[1:3] == ["-m", "repro"]:
            invoked.add(command[3])
        yield command, expected


def record(commands, environment: dict, out: Path) -> list:
    """Run each ``(argv, expected exit)`` under the recorder, writing to
    ``out``; return a line per command that exited otherwise."""
    out.mkdir(exist_ok=True)
    environment = dict(environment, FRONT_DOOR_OUT=str(out))
    failed = []
    for command, expected in commands:
        completed = subprocess.run(command, cwd=REPO, env=environment, stdout=subprocess.DEVNULL)
        if completed.returncode != expected:
            failed.append(
                f"exit {completed.returncode}, expected {expected}: {' '.join(command[1:])}"
            )
    return failed


def recorded(out: Path):
    """``(lines, entered)``: the executed ``(file, line)`` pairs, and tag
    → entered ``(file, first line, name)`` codes."""
    lines, entered = set(), defaultdict(set)
    for dump in out.glob("*.rec"):
        for row in dump.read_text(encoding="utf-8").splitlines():
            fields = row.split("\t")
            if fields[0] == "L":
                lines.add((fields[1], int(fields[2])))
            else:
                entered[fields[1]].add((fields[2], int(fields[3]), fields[4]))
    return lines, entered


def recorder_environment(scratch: Path) -> dict:
    """Write the recorder and the pytest plugin under ``scratch``; the
    environment that loads them."""
    site = scratch / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(_RECORDER, encoding="utf-8")
    (site / "front_door_plugin.py").write_text(_PLUGIN, encoding="utf-8")
    path = [str(site), str(REPO / "src")] + list(filter(None, [os.environ.get("PYTHONPATH")]))
    environment = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(path),
        PYTHONHASHSEED="0",
        FRONT_DOOR_ROOT=str(PACKAGE.resolve()) + os.sep,
    )
    environment.pop("FRONT_DOOR_TEST", None)
    return environment


def print_statements(executed: set, sources: dict) -> None:
    """Per module, the statements no door executed; then the total."""
    total = idle = 0
    for module, source in sources.items():
        filename = str(module.resolve())
        found = sorted(statements(ast.parse(source)), key=lambda s: s[0])
        unexecuted = [
            (index, first)
            for index, (first, own) in enumerate(found)
            if not any((filename, line) in executed for line in own)
        ]
        total += len(found)
        idle += len(unexecuted)
        if unexecuted:
            print(
                f"{module.relative_to(REPO)}  {len(unexecuted)} of {len(found)} "
                f"statements unexecuted: {spans(unexecuted)}"
            )
    print(f"{idle} of {total} statements under src/repro no front door executed")


def main() -> int:
    parser = cli_parser()
    listed = read_listed(LISTED.read_text(encoding="utf-8"))
    sources = read_sources(PACKAGE)
    index = function_index(sources)
    with tempfile.TemporaryDirectory(prefix="front-door-") as temp:
        scratch = Path(temp)
        environment = recorder_environment(scratch)
        doors = front_doors(scratch, parser)
        failures, invoked = [], set()
        for commands in doors.values():
            failures += record(noting(commands, invoked), environment, scratch / "doors")
        failures += door_failures(importer_dirs(), doors, subcommands(parser), invoked)
        executed, entered = recorded(scratch / "doors")
        dark = dark_keys(set().union(*entered.values()), sources)
        run = set(index.values()) - dark
        failures += list_failures(dark, run, listed)
        listed_dark = {key: test for key, test in listed.items() if key in dark}
        if listed_dark:
            command = [
                sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "-p", "front_door_plugin", *sorted(set(listed_dark.values())),
            ]  # fmt: skip
            failures += record([(command, 0)], environment, scratch / "tests")
            _, by_test = recorded(scratch / "tests")
            ran = {tag: {index[c] for c in codes if c in index} for tag, codes in by_test.items()}
            failures += named_test_failures(listed_dark, ran)
    changed = changed_failures(sources, PACKAGE)
    if changed:
        failures = changed
    else:
        print_statements(executed, sources)
        print(
            f"{len(dark)} of {len(index)} functions under src/repro no front door runs; "
            f"{len(listed)} listed in {LISTED.relative_to(REPO)}"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
