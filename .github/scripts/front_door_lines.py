"""Print, per module under ``src/repro``, the statements no front door
executes.

    python .github/scripts/front_door_lines.py

The front doors are the six ``examples/*.py``, ``python -m repro record
DIR`` and ``python3 -m bench run --tiny --seconds 1`` (each of whose
workloads runs in a subprocess of its own).  Every interpreter they
start imports a ``sitecustomize`` module this script puts first on
``PYTHONPATH``: it installs ``sys.settrace`` and ``threading.settrace``,
records each line executed in a file under ``src/repro`` and writes the
set out at exit.  A statement counts as executed when one of its own
lines was: a simple statement's, a compound statement's header (its
decorators and signature included), and a ``try`` is counted by its
body.  Docstrings and ``global`` / ``nonlocal`` declarations run no
code and are not counted.

A printout, not a gate: validation, retry, supervision and deadline
paths are meant to sit idle on the front doors.  It exits non-zero only
when a front door itself fails.
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "repro"

_RECORDER = '''
import atexit, os, sys, threading

_root = os.environ["FRONT_DOOR_ROOT"]
_out = os.environ["FRONT_DOOR_OUT"]
_inside = {}
_lines = set()


def _local(frame, event, arg):
    if event == "line":
        _lines.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    inside = _inside.get(filename)
    if inside is None:
        inside = _inside[filename] = os.path.realpath(filename).startswith(_root)
    return _local if inside else None


@atexit.register
def _dump():
    sys.settrace(None)
    threading.settrace(None)
    with open(os.path.join(_out, f"{os.getpid()}.lines"), "w", encoding="utf-8") as out:
        for filename, line in list(_lines):
            out.write(f"{os.path.realpath(filename)}\\t{line}\\n")


sys.settrace(_global)
threading.settrace(_global)
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


def front_doors(scratch: Path):
    examples = sorted((REPO / "examples").glob("*.py"))
    yield from ([sys.executable, str(example)] for example in examples)
    yield [sys.executable, "-m", "repro", "record", str(scratch / "record")]
    yield [
        sys.executable, "-m", "bench", "run", "--tiny", "--seconds", "1",
        "--out", str(scratch / "bench.json"),
    ]  # fmt: skip


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


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="front-door-lines-") as temp:
        scratch = Path(temp)
        site = scratch / "site"
        out = scratch / "lines"
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(_RECORDER, encoding="utf-8")
        path = [str(site), str(REPO / "src")] + list(filter(None, [os.environ.get("PYTHONPATH")]))
        environment = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(path),
            PYTHONHASHSEED="0",
            FRONT_DOOR_ROOT=str(PACKAGE.resolve()) + os.sep,
            FRONT_DOOR_OUT=str(out),
        )
        failed = []
        for command in front_doors(scratch):
            completed = subprocess.run(
                command, cwd=REPO, env=environment, stdout=subprocess.DEVNULL
            )
            if completed.returncode != 0:
                failed.append(f"exit {completed.returncode}: {' '.join(command[1:])}")
        executed = set()
        for dump in out.glob("*.lines"):
            for row in dump.read_text(encoding="utf-8").splitlines():
                filename, line = row.rsplit("\t", 1)
                executed.add((filename, int(line)))
    total = idle = 0
    for module in sorted(PACKAGE.rglob("*.py")):
        filename = str(module.resolve())
        found = sorted(statements(ast.parse(module.read_text(encoding="utf-8"))), key=lambda s: s[0])
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
    for failure in failed:
        print(f"front door failed ({failure})", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
