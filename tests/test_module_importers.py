"""Every module under ``src/repro`` has a real importer.

A module that only its package ``__init__`` and its own tests import can
break without any report noticing.  This test reads source with ``ast``
only (nothing is imported) and asks, for every module, whether code that
is not a test reaches it:

* an importer is any non-``__init__`` file of ``src/repro``, ``bench/``,
  ``benchmarks/`` or ``examples/`` outside a ``tests`` directory;
* it reaches a module directly (``import repro.a.m``, ``from repro.a.m
  import x``, ``from repro.a import m``) or through a name a package
  ``__init__`` re-exports (``from repro.a import X`` where
  ``repro/a/__init__.py`` says ``from repro.a.m import X``), following
  re-exports through as many packages as it takes;
* a package ``__init__`` is an importer of a name its own code uses (not
  its import lines or ``__all__``): ``workloads.all_workloads()`` is
  what builds the six workloads;
* ``__main__.py`` files are entry points and need no importer.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORTER_DIRS = ("src/repro", "bench", "benchmarks", "examples")


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


MODULES = {module_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))}
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


def bindings(tree: ast.Module) -> dict:
    """Name → (source module, name there) for a package's top-level
    ``from repro... import`` lines."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
    return bound


REEXPORTS = {package: bindings(parse(MODULES[package])) for package in PACKAGES}


def reached(source: str, name: str) -> set:
    """The modules ``from source import name`` reaches."""
    if f"{source}.{name}" in MODULES:
        return {f"{source}.{name}"}
    if source in PACKAGES:
        if name not in REEXPORTS[source]:
            return set()
        return reached(*REEXPORTS[source][name])
    return {source} if source in MODULES else set()


def imported_by(tree: ast.AST) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                out |= reached(node.module, alias.name)
        elif isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names if alias.name in MODULES}
    return out


def used_by_own_code(package: str) -> set:
    """Modules reached by names a package ``__init__`` uses outside its
    import lines and ``__all__``."""
    bound = REEXPORTS[package]
    names = set()
    for statement in parse(MODULES[package]).body:
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(statement, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in statement.targets
        ):
            continue
        names |= {node.id for node in ast.walk(statement) if isinstance(node, ast.Name)}
    out = set()
    for name in names & set(bound):
        out |= reached(*bound[name])
    return out


def importer_files():
    for directory in IMPORTER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name != "__init__.py" and "tests" not in path.relative_to(ROOT).parts:
                yield path


def test_every_module_has_a_real_importer():
    used = set()
    for path in importer_files():
        used |= imported_by(parse(path))
    for package in PACKAGES:
        used |= used_by_own_code(package)
    subjects = {
        name
        for name, path in MODULES.items()
        if path.name not in ("__init__.py", "__main__.py")
    }
    assert not subjects - used, (
        "modules reached by nothing but their package __init__ and tests: "
        f"{sorted(subjects - used)}"
    )
