"""The function classifier and the failure checks of the front-door gate
(``.github/scripts/front_door_lines.py``), without running a door.

The classifier reads which functions ran from the code objects a
recorder saw entered, ``(co_firstlineno, co_name)`` pairs; these tests
compile sample source and execute it under such a recorder, so the pairs
are the interpreter's own.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.metrics import load_snapshot, save_snapshot
from repro.metrics.registry import SNAPSHOT_VERSION

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "scripts" / "front_door_lines.py"

SAMPLE = '''\
import functools


def plain():
    return 1


@functools.lru_cache(maxsize=None)
@functools.wraps(plain)
def decorated():
    return 2


def outer():
    def inner():
        return 3

    return inner


class Box:
    @property
    def size(self):
        return 4

    @size.setter
    def size(self, value):
        self._size = value

    def stub(self):
        """Only a docstring: no code to run."""

    def ellipsis(self):
        ...

    def passes(self):
        """A docstring and a pass."""
        pass
'''

EVERY_FUNCTION = [
    "plain", "decorated", "outer", "outer.<locals>.inner", "Box.size", "Box.size.setter",
]  # fmt: skip


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("front_door_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entered(*calls) -> set:
    """Import :data:`SAMPLE`, make each call on its namespace, and
    return the ``(first line, name)`` of every code object entered."""
    seen = set()

    def recorder(frame, event, arg):
        if frame.f_code.co_filename == "<sample>":
            seen.add((frame.f_code.co_firstlineno, frame.f_code.co_name))

    namespace = {}
    previous = sys.gettrace()
    sys.settrace(recorder)
    try:
        exec(compile(SAMPLE, "<sample>", "exec"), namespace)
        for call in calls:
            call(namespace)
    finally:
        sys.settrace(previous)
    return seen


def test_a_def_line_that_ran_is_not_a_body_that_ran(gate):
    # The import runs every def line (and the class body) but no body.
    assert (1, "<module>") in entered()
    assert gate.dark_functions(SAMPLE, entered()) == EVERY_FUNCTION


def test_a_decorated_function_is_found_by_its_first_decorator_line(gate):
    ran = entered(lambda ns: ns["decorated"]())
    assert (8, "decorated") in ran
    assert "decorated" not in gate.dark_functions(SAMPLE, ran)


def test_a_nested_function_is_dark_until_it_is_called(gate):
    ran = entered(lambda ns: ns["outer"]())
    assert gate.dark_functions(SAMPLE, ran) == [
        "plain", "decorated", "outer.<locals>.inner", "Box.size", "Box.size.setter",
    ]  # fmt: skip
    ran = entered(lambda ns: ns["outer"]()())
    assert gate.dark_functions(SAMPLE, ran) == [
        "plain", "decorated", "Box.size", "Box.size.setter",
    ]  # fmt: skip


def test_a_property_runs_when_it_is_read_and_its_setter_when_it_is_set(gate):
    ran = entered(lambda ns: ns["Box"]().size)
    assert gate.dark_functions(SAMPLE, ran)[-2:] == ["outer.<locals>.inner", "Box.size.setter"]
    ran = entered(lambda ns: setattr(ns["Box"](), "size", 5))
    assert gate.dark_functions(SAMPLE, ran)[-2:] == ["outer.<locals>.inner", "Box.size"]


def test_a_docstring_only_body_is_never_dark(gate):
    functions = [qualname for qualname, _ in gate.functions(gate.ast.parse(SAMPLE))]
    assert functions == EVERY_FUNCTION
    box = gate.ast.parse(SAMPLE).body[-1]
    assert [gate.runs_code(method) for method in box.body] == [True, True, False, False, False]


def test_the_list_reads_one_function_and_its_test_per_line(gate):
    text = (
        "# a comment\n\n"
        "repro.a:f  tests/test_a.py::test_f  # why\n"
        "repro.b:C.g tests/test_b.py::test_g\n"
    )
    assert gate.read_listed(text) == {
        "repro.a:f": "tests/test_a.py::test_f",
        "repro.b:C.g": "tests/test_b.py::test_g",
    }


def test_an_unlisted_dark_function_fails(gate):
    assert gate.list_failures({"repro.a:f"}, {"repro.a:g"}, {}) == [
        "repro.a:f: no front door runs it, and it is not listed"
    ]


def test_a_listed_function_a_door_runs_fails(gate):
    listed = {"repro.a:g": "tests/test_a.py::test_g", "repro.a:gone": "tests/test_a.py::test_g"}
    assert gate.list_failures(set(), {"repro.a:g"}, listed) == [
        "repro.a:g is listed, but a front door runs it",
        "repro.a:gone is listed, but no such function exists",
    ]


def test_a_named_test_that_does_not_run_its_function_fails(gate):
    listed = {"repro.a:f": "tests/test_a.py::test_f", "repro.a:h": "tests/test_a.py::test_h"}
    ran = {
        "tests/test_a.py::test_f": {"repro.a:f"},
        "tests/test_a.py::test_h": {"repro.a:h"},
        "tests/test_a.py::test_other": {"repro.a:h", "repro.a:f"},
    }
    assert gate.named_test_failures(listed, ran) == []
    listed["repro.a:f"] = "tests/test_a.py::test_h"
    listed["repro.a:g"] = "tests/test_a.py::test_g"
    assert gate.named_test_failures(listed, ran) == [
        "repro.a:f is listed with tests/test_a.py::test_h, which does not run it",
        "repro.a:g is listed with tests/test_a.py::test_g, which does not run it",
    ]


def test_a_directory_without_a_door_or_an_uninvoked_subcommand_fails(gate):
    dirs = ("src/repro", "bench", "examples")
    doors = {"src/repro": [], "examples": [], "benchmarks": []}
    assert gate.door_failures(dirs, doors, ["record", "diff"], {"record"}) == [
        "no front door runs bench (an IMPORTER_DIRS entry)",
        "a front door runs benchmarks, which IMPORTER_DIRS lacks",
        "no front door invokes `python -m repro diff`",
    ]


def test_a_module_changed_during_the_run_fails_by_name(gate, tmp_path):
    package = tmp_path / "package"
    (package / "sub").mkdir(parents=True)
    (package / "kept.py").write_text("def f():\n    return 1\n")
    (package / "sub" / "edited.py").write_text("def g():\n    return 2\n")
    sources = gate.read_sources(package)
    assert list(sources.values()) == ["def f():\n    return 1\n", "def g():\n    return 2\n"]
    assert gate.changed_failures(sources, package) == []
    (package / "sub" / "edited.py").write_text("# a comment\ndef g():\n    return 2\n")
    (package / "added.py").write_text("")
    assert [line.rsplit(os.sep, 1)[-1] for line in gate.changed_failures(sources, package)] == [
        "added.py changed during the run",
        "edited.py changed during the run",
    ]
    (package / "kept.py").unlink()
    assert len(gate.changed_failures(sources, package)) == 3


def test_the_doors_cover_every_importer_dir_and_subcommand(gate, tmp_path):
    parser = gate.cli_parser()
    doors = gate.front_doors(tmp_path, parser)
    assert set(doors) == set(gate.importer_dirs())
    # Pull the CLI doors without running them: the later commands read a
    # recorded bundle, so fake one with two trace files and a snapshot.
    (tmp_path / "record").mkdir()
    for name in ("a.trace", "b.trace"):
        (tmp_path / "record" / name).touch()
    snapshot = {"version": SNAPSHOT_VERSION, "metrics": {}}
    snapshot["metrics"]["reason_service_admitted_total"] = {"series": {"": 24.0}}
    save_snapshot(snapshot, tmp_path / "record" / "metrics.json")
    invoked = set()
    commands = list(gate.noting(doors["src/repro"], invoked))
    assert invoked == set(gate.subcommands(parser))
    # The snapshot diff that must exit 1 reads two different snapshots.
    drifts = [argv for argv, expected in commands if argv[3] == "diff" and expected == 1]
    (changed,) = [argv for argv in drifts if argv[4].endswith(".json")]
    assert load_snapshot(changed[5]) != load_snapshot(changed[4])
    # Every plantable bug is a door, and each must be caught (exit 1).
    (mutate,) = [a for a in gate.subcommands(parser)["verify"]._actions if a.dest == "mutate"]
    planted = {argv[-1]: expected for argv, expected in commands if "--mutate" in argv}
    assert planted == dict.fromkeys(mutate.choices, 1)


WORKER_SCRIPT = """
import threading

import sitecustomize
import work

sitecustomize.switch("tests/test_a.py::test_a")
started, go = threading.Event(), threading.Event()


def run():
    started.set()
    go.wait()
    work.early()


worker = threading.Thread(target=run)
worker.start()
started.wait()
sitecustomize.switch("tests/test_b.py::test_b")
work.late()
go.set()
worker.join()
"""


def test_a_thread_records_under_the_test_that_started_it(gate, tmp_path):
    # A worker left running by one test must not vouch for the next one.
    package, site = tmp_path / "package", tmp_path / "site"
    package.mkdir()
    site.mkdir()
    (package / "work.py").write_text("def early():\n    return 1\n\n\ndef late():\n    return 2\n")
    (site / "sitecustomize.py").write_text(gate._RECORDER)
    environment = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(site), str(package)]),
        FRONT_DOOR_ROOT=str(package.resolve()) + os.sep,
        FRONT_DOOR_OUT=str(tmp_path),
    )
    environment.pop("FRONT_DOOR_TEST", None)
    subprocess.run([sys.executable, "-c", WORKER_SCRIPT], env=environment, check=True)
    _, by_test = gate.recorded(tmp_path)
    names = {tag: {name for _, _, name in codes} for tag, codes in by_test.items()}
    assert names["tests/test_a.py::test_a"] == {"early"}
    assert names["tests/test_b.py::test_b"] == {"late"}
