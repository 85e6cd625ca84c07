"""Every module, function and class under ``src/repro`` is reached from a
front door.

Code that only tests call can break without any report noticing.  These
tests read source with ``ast`` only (nothing is imported) and ask whether
code that is not a test reaches it.

The front doors are the non-``__init__`` files of ``src/repro``,
``bench/``, ``benchmarks/`` and ``examples/`` outside a ``tests``
directory (the adapters, the backends, the CLIs, the benchmark and the
paper figures), plus the code of a package ``__init__`` outside its
import lines and ``__all__``: ``workloads.all_workloads()`` is what
builds the six workloads.

Modules.  A front door reaches a module directly (``import repro.a.m``,
``from repro.a.m import x``, ``from repro.a import m``) or through a
name a package ``__init__`` re-exports (``from repro.a import X`` where
``repro/a/__init__.py`` says ``from repro.a.m import X``), following
re-exports through as many packages as it takes.  ``__main__.py`` files
are entry points and need no importer.

Names.  Every top-level function and class, and every public method or
property of a public top-level class, of a non-``__init__`` file of
``src/repro`` needs a front door that references its name: an
``ast.Name``, an ``ast.Attribute`` attribute or an import alias.  A
reference inside the definition's own body does not count, and neither
does a package ``__init__``'s re-export of it.  Dispatch by name is
exempt by rule: dunder methods and the methods of a private class are
not public (the verifier's ``_Machine`` handlers are looked up by
instruction kind), and neither are the ``visit_*`` methods of an
``ast.NodeVisitor`` subclass.  Whatever else stays is public API that no
front door calls: it is listed in :data:`ALLOWLIST` with a reason and
named in the README's "Public API outside the front doors" list.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORTER_DIRS = ("src/repro", "bench", "benchmarks", "examples")
README_SECTION = "Public API outside the front doors"

#: Reached by no front door, kept on purpose: name → reason.
ALLOWLIST = {
    "verify_execution": "the verifier's check of a ProgramRun against its program",
    "expected_energy_events": "the energy deltas verify_execution holds a run to",
    "read_trace": "decodes a whole trace into records for a caller",
    "wait_all": "resolves the futures submit() returned, in submission order",
    "HMM.validate_stochastic": "input checking for a hand-built HMM",
    "ReasonSession.executions": "how many times the accelerator model ran",
    "RequestSpan.e2e_s": "a span's latency; the service reads it by name",
    "RequestSpan.latency_residual": "a span's cost-model error; read by name",
    "RequestSpan.energy_residual": "a span's energy-model error; read by name",
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def is_all(statement: ast.stmt) -> bool:
    return isinstance(statement, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in statement.targets
    )


def bindings(tree: ast.Module) -> dict:
    """Name → (source module, name there) for a package's top-level
    ``from repro... import`` lines."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
    return bound


def references(tree: ast.AST):
    """``(name, line)`` for every name, attribute and import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno


def span(node: ast.AST) -> range:
    """A definition's lines, decorators included."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return range(first, node.end_lineno + 1)


def is_node_visitor(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(base, ast.Attribute) and base.attr == "NodeVisitor")
        or (isinstance(base, ast.Name) and base.id == "NodeVisitor")
        for base in node.bases
    )


def definitions(tree: ast.Module):
    """``(qualified name, name, lines)`` for every top-level function and
    class and every public method or property of a public top-level
    class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, functions + (ast.ClassDef,)):
            continue
        yield node.name, node.name, span(node)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        visitor = is_node_visitor(node)
        for item in node.body:
            if (
                isinstance(item, functions)
                and not item.name.startswith("_")
                and not (visitor and item.name.startswith("visit_"))
            ):
                yield f"{node.name}.{item.name}", item.name, span(item)


class SourceTree:
    """The ``src/repro`` package and the front doors of one checkout."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.modules = {
            self.module_name(path): path
            for path in sorted((self.src / "repro").rglob("*.py"))
        }
        self.packages = {
            name for name, path in self.modules.items() if path.name == "__init__.py"
        }
        self.reexports = {
            package: bindings(parse(self.modules[package])) for package in self.packages
        }

    def module_name(self, path: Path) -> str:
        parts = path.relative_to(self.src).with_suffix("").parts
        return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

    def reached(self, source: str, name: str) -> set:
        """The modules ``from source import name`` reaches."""
        if f"{source}.{name}" in self.modules:
            return {f"{source}.{name}"}
        if source in self.packages:
            if name not in self.reexports[source]:
                return set()
            return self.reached(*self.reexports[source][name])
        return {source} if source in self.modules else set()

    def imported_by(self, tree: ast.AST) -> set:
        out = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    out |= self.reached(node.module, alias.name)
            elif isinstance(node, ast.Import):
                out |= {alias.name for alias in node.names if alias.name in self.modules}
        return out

    def own_code_names(self, package: str) -> set:
        """Names a package ``__init__`` uses outside its import lines and
        ``__all__``."""
        names = set()
        for statement in parse(self.modules[package]).body:
            if not isinstance(statement, (ast.Import, ast.ImportFrom)) and not is_all(
                statement
            ):
                names |= {name for name, _ in references(statement)}
        return names

    def used_by_own_code(self, package: str) -> set:
        """Modules reached by the names a package ``__init__`` uses in its
        own code."""
        bound = self.reexports[package]
        out = set()
        for name in self.own_code_names(package) & set(bound):
            out |= self.reached(*bound[name])
        return out

    def importer_files(self):
        for directory in IMPORTER_DIRS:
            for path in sorted((self.root / directory).rglob("*.py")):
                if (
                    path.name != "__init__.py"
                    and "tests" not in path.relative_to(self.root).parts
                ):
                    yield path

    def unimported_modules(self) -> list:
        used = set()
        for path in self.importer_files():
            used |= self.imported_by(parse(path))
        for package in self.packages:
            used |= self.used_by_own_code(package)
        subjects = {
            name
            for name, path in self.modules.items()
            if path.name not in ("__init__.py", "__main__.py")
        }
        return sorted(subjects - used)

    def unreached_names(self) -> list:
        """Qualified names of the definitions no front door references."""
        # name → {(file, line)} of every reference a front door makes
        where = {}
        for path in self.importer_files():
            for name, line in references(parse(path)):
                where.setdefault(name, set()).add((path, line))
        for package in self.packages:
            for name in self.own_code_names(package):
                original = self.reexports[package].get(name, (None, name))[1]
                where.setdefault(original, set()).add((None, 0))
        out = []
        for path in self.modules.values():
            if path.name == "__init__.py":
                continue
            for qualified, name, lines in definitions(parse(path)):
                if not any(
                    file != path or line not in lines
                    for file, line in where.get(name, ())
                ):
                    out.append(qualified)
        return sorted(out)


def allowlist_findings(unreached: list, allowlist: dict) -> tuple:
    """``(unreached names the allowlist lacks, allowlisted names that are
    reached or no longer defined)``: the gate passes when both are
    empty."""
    return (
        sorted(set(unreached) - set(allowlist)),
        sorted(set(allowlist) - set(unreached)),
    )


def missing_from_readme(allowlist: dict, readme: str) -> list:
    """Allowlisted names the README's public-API list does not name."""
    match = re.search(
        rf"^#+ {README_SECTION}\n(.*?)(?=^#)", readme + "\n#", re.M | re.S
    )
    listed = match.group(1) if match else ""
    return sorted(name for name in allowlist if f"`{name}`" not in listed)


def test_every_module_has_a_real_importer():
    unimported = SourceTree(ROOT).unimported_modules()
    assert not unimported, (
        f"modules reached by nothing but their package __init__ and tests: {unimported}"
    )


def test_every_name_is_reached_from_a_front_door():
    unlisted, stale = allowlist_findings(SourceTree(ROOT).unreached_names(), ALLOWLIST)
    assert not unlisted, f"reached by no front door and not allowlisted: {unlisted}"
    assert not stale, f"allowlisted but reached or gone: {stale}"


def test_every_allowlisted_name_is_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert not missing_from_readme(ALLOWLIST, readme)


# -- the gate on a synthetic source tree -----------------------------------


def write_tree(root: Path, files: dict) -> SourceTree:
    files = {"src/repro/__init__.py": "", **files}
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return SourceTree(root)


def test_a_function_nothing_references_is_listed(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/m.py": "def used():\n    return 1\n\n\ndef unused():\n    return 2\n",
            "examples/demo.py": "from repro.m import used\n\nused()\n",
        },
    )
    assert tree.unreached_names() == ["unused"]
    assert tree.unimported_modules() == []


def test_a_reference_from_a_test_does_not_reach(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/m.py": "def used():\n    return 1\n\n\ndef tested():\n    return 2\n",
            "examples/demo.py": "from repro.m import used\n\nused()\n",
            "tests/test_m.py": "from repro.m import tested\n\ntested()\n",
            "bench/tests/test_m.py": "from repro.m import tested\n\ntested()\n",
        },
    )
    assert tree.unreached_names() == ["tested"]


def test_a_reference_inside_its_own_body_does_not_count(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/m.py": (
                "def countdown(n):\n    return n and countdown(n - 1)\n\n\n"
                "class Node:\n    def copy(self):\n        return Node()\n"
            ),
            "examples/demo.py": "import repro.m\n",
        },
    )
    assert tree.unreached_names() == ["Node", "Node.copy", "countdown"]


def test_bench_benchmarks_and_examples_are_front_doors(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/m.py": "".join(f"def {name}():\n    pass\n\n\n" for name in "abc"),
            "bench/run.py": "from repro.m import a\n",
            "benchmarks/bench_fig.py": "from repro.m import b\n",
            "examples/demo.py": "from repro.m import c\n",
        },
    )
    assert tree.unreached_names() == []


def test_a_name_only_reexported_is_listed(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": (
                'from repro.m import Exported, used\n\n__all__ = ["Exported", "used"]\n'
            ),
            "src/repro/m.py": "def used():\n    pass\n\n\nclass Exported:\n    pass\n",
            "examples/demo.py": "import repro\n\nrepro.used()\n",
        },
    )
    assert tree.unreached_names() == ["Exported"]


def test_a_package_inits_own_code_reaches_what_it_uses(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": (
                "from repro.m import Built as Made\n\n\n"
                "def build():\n    return Made()\n"
            ),
            "src/repro/m.py": "class Built:\n    pass\n",
        },
    )
    assert tree.unreached_names() == []
    assert tree.unimported_modules() == []


def test_methods_are_reached_by_attribute(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/m.py": (
                "class Engine:\n"
                "    def start(self):\n        pass\n\n"
                "    @property\n    def speed(self):\n        return 1\n\n"
                "    def stop(self):\n        pass\n"
            ),
            "examples/demo.py": (
                "from repro.m import Engine\n\nengine = Engine()\nengine.start()\nengine.speed\n"
            ),
        },
    )
    assert tree.unreached_names() == ["Engine.stop"]


def test_dunder_and_private_class_methods_are_exempt(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/m.py": (
                "class Public:\n    def __len__(self):\n        return 0\n\n"
                "    def _helper(self):\n        pass\n\n\n"
                "class _Machine:\n    def load(self):\n        pass\n\n\n"
                "def _unused_helper():\n    pass\n\n\n"
                "HANDLERS = {'load': getattr(_Machine, 'load')}\n"
            ),
            "examples/demo.py": "from repro.m import HANDLERS, Public\n",
        },
    )
    assert tree.unreached_names() == ["_unused_helper"]


def test_visit_methods_of_a_node_visitor_are_exempt(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/m.py": (
                "import ast\n\n\n"
                "class Walker(ast.NodeVisitor):\n"
                "    def visit_Name(self, node):\n        pass\n\n"
                "    def report(self):\n        pass\n\n\n"
                "class Plain:\n"
                "    def visit_Name(self, node):\n        pass\n"
            ),
            "examples/demo.py": "from repro.m import Plain, Walker\n\nWalker, Plain\n",
        },
    )
    assert tree.unreached_names() == ["Plain.visit_Name", "Walker.report"]


def test_an_import_alias_reaches_the_original_name(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/m.py": "def original():\n    pass\n",
            "examples/demo.py": "from repro.m import original as renamed\n\nrenamed()\n",
        },
    )
    assert tree.unreached_names() == []


def test_a_stale_allowlist_entry_fails(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/m.py": "def kept():\n    pass\n\n\ndef called():\n    pass\n",
            "examples/demo.py": "from repro.m import called\n\ncalled()\n",
        },
    )
    allowlist = {"kept": "public", "called": "public", "deleted": "public"}
    assert allowlist_findings(tree.unreached_names(), allowlist) == ([], ["called", "deleted"])
    assert allowlist_findings(tree.unreached_names(), {}) == (["kept"], [])


def test_an_allowlisted_name_missing_from_the_readme_fails():
    readme = (
        f"# Title\n\n## {README_SECTION}\n\n- `listed`: documented here.\n\n"
        "## Elsewhere\n\n`mentioned_later` is outside the list.\n"
    )
    allowlist = {"listed": "kept", "mentioned_later": "kept", "absent": "kept"}
    assert missing_from_readme(allowlist, readme) == ["absent", "mentioned_later"]


def test_a_module_only_its_package_imports_is_listed(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/a/__init__.py": "from repro.a.inner import thing\n",
            "src/repro/a/inner.py": "def thing():\n    pass\n",
            "tests/test_a.py": "from repro.a import thing\n",
        },
    )
    assert tree.unimported_modules() == ["repro.a.inner"]


def test_a_module_reached_through_reexports_counts(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "from repro.a import thing\n",
            "src/repro/a/__init__.py": "from repro.a.inner import thing\n",
            "src/repro/a/inner.py": "def thing():\n    pass\n",
            "examples/demo.py": "from repro import thing\n\nthing()\n",
        },
    )
    assert tree.unimported_modules() == []
    assert tree.unreached_names() == []


def test_a_main_module_needs_no_importer(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/tool/__init__.py": "",
            "src/repro/tool/__main__.py": (
                "def main():\n    pass\n\n\nif __name__ == '__main__':\n    main()\n"
            ),
        },
    )
    assert tree.unimported_modules() == []
    assert tree.unreached_names() == []
