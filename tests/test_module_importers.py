"""Every module, function, class and option under ``src/repro`` is
reached from a front door.

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
``src/repro`` needs a front door that references its name.  A function
or class is referenced by an ``ast.Name``, an ``ast.Attribute``
attribute or an import alias; a method or property only by an
attribute or a ``getattr(x, "name")`` with a constant name, so a local
variable that shares its name does not reach it.  A reference inside
the definition's own body does not count, and neither does a package
``__init__``'s re-export of it.  Dispatch by name is exempt by rule:
dunder methods and the methods of a private class are not public (the
verifier's ``_Machine`` handlers are looked up by instruction kind),
and neither are the ``visit_*`` methods of an ``ast.NodeVisitor``
subclass.

Registered names.  Every string a ``src/repro`` module registers
through ``register_policy`` or ``register_backend`` needs a front door
outside that module that holds an equal string constant: a policy or
backend no front door can select by name is code only tests run.

Parameters.  Every defaulted parameter of a checked function, method or
class ``__init__`` needs a front-door call to a callee of that name
that passes it: by keyword, by position (``self`` / ``cls`` aside) or
through an import alias of the callee.  A call with ``*args`` or
``**kwargs`` passes everything, erring on the side of keeping.  The
parameters of an allowlisted definition are exempt; dataclass fields
are records, not call sites, and out of scope.

Whatever else stays is public API that no front door uses: it is listed
in :data:`ALLOWLIST` with a reason (a parameter as
``Qualified.name(parameter)``) and named in the README's "Public API
outside the front doors" list.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORTER_DIRS = ("src/repro", "bench", "benchmarks", "examples")
README_SECTION = "Public API outside the front doors"

#: Reached or passed by no front door, kept on purpose: name → reason.
ALLOWLIST = {
    "verify_execution": "the verifier's check of a ProgramRun against its program",
    "expected_energy_events": "the energy deltas verify_execution holds a run to",
    "read_trace": "decodes a whole trace into records for a caller",
    "wait_all": "resolves the futures submit() returned, in submission order",
    "list_backends": "the registered names run(..., backend=...) accepts",
    "HMM.validate_stochastic": "input checking for a hand-built HMM",
    "ReasonSession.executions": "how many times the accelerator model ran",
    "RequestSpan.e2e_s": "a span's latency; the service reads it by name",
    "RequestSpan.latency_residual": "a span's cost-model error; read by name",
    "RequestSpan.energy_residual": "a span's energy-model error; read by name",
    "ServiceStats.expired": "requests failed by their deadline; README and drills read it",
    # The pinned CDCL runs of test_search_identity.py set it.
    "CDCLSolver.solve(assumptions)": "solves under assumed literals",
    # Collaborators tests substitute with fakes, and deployment settings.
    "ReasonService(faults)": "the chaos schedule a drill injects",
    "ReasonService(retry)": "the retry policy a deployment chooses",
    "ReasonService(breaker)": "the per-shard circuit breaker factory a deployment tunes",
    "ReasonService(cost_model)": "a cost model shared across services",
    "ReasonService(config)": "the accelerator configuration served",
    "ReasonService(stats_window)": "how many settled requests stats() summarizes",
    "ResilientStore(breaker)": "the circuit breaker guarding a store",
    "FaultPlan(seed)": "the chaos schedule's root seed",
    "FaultPlan(compile_error_rate)": "a chaos drill's compile fault rate",
    "FaultPlan(execute_error_rate)": "a chaos drill's execution fault rate",
    "FaultPlan(latency_rate)": "a chaos drill's slow-execution rate",
    "FaultPlan(latency_s)": "how long a slow execution sleeps",
    "FaultPlan(crash_rate)": "a chaos drill's worker crash rate",
    "FaultPlan(store_error_rate)": "a chaos drill's store fault rate",
    "FaultPlan(store_corrupt_rate)": "a chaos drill's disk corruption rate",
    "FaultPlan(max_injections)": "caps each site's injected faults",
    # Waits: synchronisation code bounds them.
    "ReasonService.drain(timeout)": "bounds a wait for admitted work",
    "ReasonService.close(wait)": "whether close waits for the workers",
    "ReasonSession(verify)": "the static-verifier gate on every compile",
    "random_ksat(k)": "clause width; the implication-graph tests need 2-SAT",
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


def is_getattr(node: ast.AST) -> bool:
    """``getattr(x, "name")`` with a constant name."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    )


def references(tree: ast.AST):
    """``(name, line, by attribute)`` for every name, attribute, import
    alias and constant ``getattr`` name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno, False
        elif is_getattr(node):
            yield node.args[1].value, node.lineno, True


def calls(tree: ast.AST):
    """``(callee, line, positional count, keywords, starred)`` for every
    call by name or attribute, an import alias read as the name it
    imports; a call with ``*args`` or ``**kwargs`` is starred."""
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            callee = aliases.get(node.func.id, node.func.id)
        elif isinstance(node.func, ast.Attribute):
            callee = node.func.attr
        else:
            continue
        keywords = {keyword.arg for keyword in node.keywords}
        starred = None in keywords or any(
            isinstance(argument, ast.Starred) for argument in node.args
        )
        yield callee, node.lineno, len(node.args), keywords, starred


#: Calls whose constant first argument registers a name callers select by.
REGISTRIES = ("register_policy", "register_backend")


def registered_names(tree: ast.AST):
    """The constant names a module's registry calls register."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in REGISTRIES
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield node.args[0].value


def string_constants(tree: ast.AST) -> set:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def defaulted(function: ast.AST, method: bool):
    """``(parameter, position)`` for every defaulted parameter of a def;
    the position leaves out a method's ``self`` / ``cls`` and is ``None``
    for a keyword-only parameter."""
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    shift = method and not any(
        isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
        for decorator in function.decorator_list
    )
    first_default = len(positional) - len(arguments.defaults)
    for index, argument in enumerate(positional[first_default:], first_default):
        yield argument.arg, index - shift
    for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
        if default is not None:
            yield argument.arg, None


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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module):
    """``(qualified name, name, lines, def)`` for every top-level
    function and class and every public method or property of a public
    top-level class; ``def`` is the node whose parameters a call passes
    (a class's ``__init__``, or ``None`` if it has none)."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node.name, node.name, span(node), node
        if not isinstance(node, ast.ClassDef):
            continue
        init = [item for item in node.body if getattr(item, "name", "") == "__init__"]
        yield node.name, node.name, span(node), (init or [None])[0]
        if node.name.startswith("_"):
            continue
        visitor = is_node_visitor(node)
        for item in node.body:
            if (
                isinstance(item, FUNCTIONS)
                and not item.name.startswith("_")
                and not (visitor and item.name.startswith("visit_"))
            ):
                yield f"{node.name}.{item.name}", item.name, span(item), item


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

    def own_code(self, package: str) -> list:
        """A package ``__init__``'s statements outside its import lines
        and ``__all__``."""
        return [
            statement
            for statement in parse(self.modules[package]).body
            if not isinstance(statement, (ast.Import, ast.ImportFrom))
            and not is_all(statement)
        ]

    def own_code_names(self, package: str) -> set:
        """Names a package ``__init__`` uses in its own code."""
        return {
            name
            for statement in self.own_code(package)
            for name, _, _ in references(statement)
        }

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

    def front_door_code(self):
        """``(file, tree)`` for every front door; a package ``__init__``'s
        own code has file ``None``, its names read as the originals it
        re-exports."""
        for path in self.importer_files():
            yield path, parse(path)
        for package in self.packages:
            bound = self.reexports[package]
            body = ast.Module(self.own_code(package), [])
            for node in ast.walk(body):
                if isinstance(node, ast.Name) and node.id in bound:
                    node.id = bound[node.id][1]
            yield None, body

    def subjects(self):
        """``(file, definition)`` for every definition the gate checks."""
        for path in self.modules.values():
            if path.name != "__init__.py":
                for definition in definitions(parse(path)):
                    yield path, definition

    def unreached_names(self) -> list:
        """Qualified names of the definitions no front door references; a
        method only by attribute."""
        # name → {(file, line, by attribute)} of every front-door reference
        where = {}
        for file, tree in self.front_door_code():
            for name, line, by_attribute in references(tree):
                where.setdefault(name, set()).add((file, line, by_attribute))
        out = []
        for path, (qualified, name, lines, _) in self.subjects():
            method = "." in qualified
            if not any(
                (file != path or line not in lines) and (by_attribute or not method)
                for file, line, by_attribute in where.get(name, ())
            ):
                out.append(qualified)
        return sorted(out)

    def unselected_registrations(self) -> list:
        """Registered names no front door outside the registering module
        holds as a string constant."""
        constants = [(file, string_constants(tree)) for file, tree in self.front_door_code()]
        return sorted(
            name
            for path in self.modules.values()
            for name in registered_names(parse(path))
            if not any(file != path and name in held for file, held in constants)
        )

    def unpassed_parameters(self, exempt=()) -> list:
        """``Qualified.name(parameter)`` for every defaulted parameter that
        no front-door call to a callee of that name passes, the parameters
        of an ``exempt`` definition aside."""
        # callee → [(file, line, positional count, keywords, starred)]
        passes = {}
        for file, tree in self.front_door_code():
            for callee, *call in calls(tree):
                passes.setdefault(callee, []).append((file, *call))
        out = []
        for path, (qualified, name, lines, function) in self.subjects():
            if function is None or qualified in exempt:
                continue
            outside = [
                call for call in passes.get(name, ()) if call[0] != path or call[1] not in lines
            ]
            method = "." in qualified or function.name == "__init__"
            for parameter, position in defaulted(function, method):
                if not any(
                    starred or parameter in keywords or (position is not None and position < count)
                    for _, _, count, keywords, starred in outside
                ):
                    out.append(f"{qualified}({parameter})")
        return sorted(out)


def allowlist_findings(unreached: list, allowlist: dict) -> tuple:
    """``(unreached names the allowlist lacks, allowlisted names that are
    reached or no longer defined)``: the gate passes when both are
    empty.  A parameter no front door passes counts as an unreached
    name."""
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
    tree = SourceTree(ROOT)
    findings = tree.unreached_names() + tree.unpassed_parameters(exempt=ALLOWLIST)
    unlisted, stale = allowlist_findings(findings, ALLOWLIST)
    assert not unlisted, f"reached or passed by no front door and not allowlisted: {unlisted}"
    assert not stale, f"allowlisted but reached, passed or gone: {stale}"


def test_every_registered_name_is_selected_by_a_front_door():
    unselected = SourceTree(ROOT).unselected_registrations()
    assert not unselected, f"registered names no front door selects: {unselected}"


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


def test_a_local_variable_named_like_a_method_does_not_reach_it(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/m.py": (
                "class Reader:\n    def window(self):\n        return 1\n\n\n"
                "def window():\n    return 2\n"
            ),
            "examples/demo.py": (
                "from repro.m import Reader\n\nwindow = 4096\nReader()\nprint(window)\n"
            ),
        },
    )
    # The bare name still reaches the function of that name.
    assert tree.unreached_names() == ["Reader.window"]


def test_a_constant_getattr_reaches_a_method(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/m.py": (
                "class Stats:\n"
                "    @property\n    def expired(self):\n        return 0\n\n"
                "    @property\n    def failed(self):\n        return 0\n"
            ),
            "examples/demo.py": (
                "from repro.m import Stats\n\n"
                "name = 'failed'\n"
                "getattr(Stats(), 'expired'), getattr(Stats(), name)\n"
            ),
        },
    )
    assert tree.unreached_names() == ["Stats.failed"]


OPTIONS = (
    "def solve(formula, budget=10, *, seed=0):\n    pass\n\n\n"
    "class Prover:\n"
    "    def __init__(self, width=12, depth=3):\n        pass\n\n"
    "    def prove(self, goal, limit=None):\n        pass\n\n"
    "    @staticmethod\n    def parse(text, strict=False):\n        pass\n"
)


def test_a_parameter_passed_by_keyword_position_or_kwargs_counts(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/m.py": OPTIONS,
            "examples/demo.py": (
                "from repro.m import Prover, solve as run\n\n"
                "run(None, seed=1)\n"  # keyword, through an import alias
                "prover = Prover(16)\n"  # position, self aside
                "prover.prove(None, None)\n"
                "Prover.parse('', True)\n"  # a static method has no self
                "options = {}\n"
                "run(None, **options)\n"  # **kwargs passes everything
            ),
        },
    )
    assert tree.unpassed_parameters() == ["Prover(depth)"]


def test_a_parameter_only_a_test_passes_is_listed(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/m.py": OPTIONS,
            "examples/demo.py": (
                "from repro.m import Prover, solve\n\n"
                "solve(None, 5, seed=1)\n"
                "Prover(*[16, 4]).prove(None, limit=3)\n"
                "Prover.parse('', strict=True)\n"
            ),
            "tests/test_m.py": "from repro.m import solve\n\nsolve(None, budget=5)\n",
        },
    )
    assert tree.unpassed_parameters() == []
    tree = write_tree(
        tmp_path, {"examples/demo.py": "from repro.m import Prover, solve\n\nsolve(None)\n"}
    )
    assert tree.unpassed_parameters() == [
        "Prover(depth)",
        "Prover(width)",
        "Prover.parse(strict)",
        "Prover.prove(limit)",
        "solve(budget)",
        "solve(seed)",
    ]
    assert tree.unpassed_parameters(exempt={"Prover", "Prover.parse"}) == [
        "Prover.prove(limit)",
        "solve(budget)",
        "solve(seed)",
    ]


def test_a_call_inside_its_own_body_does_not_pass(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/m.py": "def walk(node, depth=0):\n    return walk(node, depth + 1)\n",
            "examples/demo.py": "from repro.m import walk\n\nwalk(None)\n",
        },
    )
    assert tree.unpassed_parameters() == ["walk(depth)"]


def test_a_registered_name_only_its_module_and_tests_hold_is_listed(tmp_path):
    tree = write_tree(
        tmp_path,
        {
            "src/repro/policies.py": (
                "def register_policy(name, factory):\n    pass\n\n\n"
                "class Fast:\n    name = 'fast'\n\n\n"
                "register_policy('fast', Fast)\n"
                "register_policy('slow', Fast)\n"
                "register_policy('spare', Fast)\n"
            ),
            "examples/demo.py": "from repro.policies import Fast\n\nFast(), 'fast'\n",
            "bench/run.py": "POLICY = 'slow'\n",
            "tests/test_policies.py": "POLICY = 'spare'\n",
        },
    )
    assert tree.unselected_registrations() == ["spare"]


def test_an_allowlisted_parameter_missing_from_the_readme_fails():
    readme = f"## {README_SECTION}\n\n- `solve(seed)`: listed.\n\n## Next\n"
    allowlist = {"solve(seed)": "kept", "Prover(depth)": "kept"}
    assert missing_from_readme(allowlist, readme) == ["Prover(depth)"]
