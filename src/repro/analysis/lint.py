"""Project-idiom AST lint: the conventions ruff cannot check.

The repo depends on a handful of hand-rolled idioms that are invisible
to generic linters, and each has already cost (or would cost) a real
debugging session when violated:

``RPR001`` zero-overhead-when-off hooks
    Optional feature objects (a ``trace`` writer, an ``emit``
    callback, a ``verify_hook``) are probed *once* before a hot loop (``emit = None if tw is None else
    tw.emit``), never per iteration.  An ``x.trace is None`` test
    inside a loop body means the hook shape regressed and the "off"
    path pays attribute traffic every iteration.  (Metrics have no off
    mode, so they have no probe to hoist.)

``RPR002`` deterministic time and randomness
    Replay and retry paths are deterministic: seeded
    ``random.Random(...)`` streams and counter clocks only.  Bare
    ``time.time()`` or module-level ``random.random()`` /
    ``random.randint()`` in the deterministic subtrees silently breaks
    record/replay equality.

``RPR003`` no blocking work while holding a lock
    ``with <lock>:`` bodies must not perform blocking I/O, sleeps, or
    unbounded ``Queue`` operations — the serving path's submit lock is
    held for microseconds by design.

``RPR004`` exception taxonomy
    ``BaseException`` subclasses (crash signals that must escape
    ``except Exception`` recovery) are confined to
    ``api/resilience.py``; anywhere else they are almost certainly a
    bug.

A finding can be waived in place with ``# noqa: RPRxxx`` on the
flagged line — the waiver is per-rule, never blanket.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

#: Feature-hook attribute names whose per-iteration None probes RPR001
#: flags.  Matches the optional subsystems wired through sessions and
#: the service (the zero-overhead-when-off surface).
HOOK_ATTRIBUTES = frozenset({"trace", "emit", "verify_hook"})

#: Subtrees whose code must stay deterministic (seeded streams only).
DETERMINISTIC_SUBTREES = (
    "repro/api/",
    "repro/core/",
    "repro/trace/",
    "repro/metrics/",
    "repro/analysis/",
)

#: Receiver names that look like queues for the lock-discipline rule.
_QUEUEISH = ("queue", "fifo", "inbox", "mailbox")

#: Blocking calls never allowed while a lock is held.
_BLOCKING_CALLS = frozenset({"sleep", "wait", "result", "join", "recv", "accept"})


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"


@dataclass(frozen=True)
class LintRule:
    code: str
    summary: str


RULES: Tuple[LintRule, ...] = (
    LintRule(
        "RPR001",
        "feature-hook None probe inside a loop body "
        "(hoist the probe: hooks are zero-overhead-when-off)",
    ),
    LintRule(
        "RPR002",
        "wall-clock time or unseeded module-level randomness in a "
        "deterministic subtree (use seeded random.Random / counters)",
    ),
    LintRule(
        "RPR003",
        "blocking call (I/O, sleep, queue op, wait/join) while "
        "holding a lock",
    ),
    LintRule(
        "RPR004",
        "BaseException subclass outside the api/resilience.py taxonomy",
    ),
)

RULE_CODES = tuple(rule.code for rule in RULES)


def _attribute_chain(node: ast.AST) -> Optional[str]:
    """Dotted name for Name/Attribute chains (``self.trace``), else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _lockish(name: Optional[str]) -> bool:
    if not name:
        return False
    leaf = name.rsplit(".", 1)[-1].lower()
    return "lock" in leaf


def _queueish(name: Optional[str]) -> bool:
    if not name:
        return False
    leaf = name.rsplit(".", 1)[-1].lower()
    return any(mark in leaf for mark in _QUEUEISH) or leaf.endswith("_q")


class _Linter(ast.NodeVisitor):
    """Single-file AST walk carrying loop depth and held-lock depth."""

    def __init__(self, path: str, rel: str, select: Set[str]):
        self.path = path
        self.rel = rel
        self.select = select
        self.findings: List[LintFinding] = []
        self._loop_depth = 0
        self._lock_depth = 0
        self._time_aliases: Set[str] = set()  # names bound to the time module
        self._random_aliases: Set[str] = set()  # names bound to the random module
        self._time_funcs: Set[str] = set()  # from time import time [as x]
        self._deterministic = any(
            mark in rel.replace(os.sep, "/") for mark in DETERMINISTIC_SUBTREES
        )

    def emit(self, code: str, node: ast.AST, message: str) -> None:
        if code in self.select:
            self.findings.append(
                LintFinding(self.rel, node.lineno, node.col_offset, code, message)
            )

    # -- imports feed the RPR002 alias tables ------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "time":
                self._time_aliases.add(bound)
            elif alias.name == "random":
                self._random_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name == "time":
                    self._time_funcs.add(alias.asname or alias.name)
        if node.module == "random" and self._deterministic:
            for alias in node.names:
                if alias.name not in ("Random", "SystemRandom"):
                    self.emit(
                        "RPR002",
                        node,
                        f"from random import {alias.name}: unseeded "
                        f"module-level randomness in a deterministic "
                        f"subtree",
                    )
        self.generic_visit(node)

    # -- loops gate RPR001 --------------------------------------------------

    def _visit_loop(self, node) -> None:
        self._loop_depth += 1
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self._loop_depth -= 1

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop
    visit_While = _visit_loop

    def visit_Compare(self, node: ast.Compare) -> None:
        if (
            self._loop_depth > 0
            and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Is, ast.IsNot))
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value is None
            and isinstance(node.left, ast.Attribute)
            and node.left.attr in HOOK_ATTRIBUTES
        ):
            chain = _attribute_chain(node.left) or node.left.attr
            self.emit(
                "RPR001",
                node,
                f"`{chain} is None` probed inside a loop; hoist the "
                f"feature probe above the loop (zero-overhead-when-off)",
            )
        self.generic_visit(node)

    # -- with-blocks gate RPR003 --------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        holds_lock = any(
            _lockish(_attribute_chain(item.context_expr)) for item in node.items
        )
        if holds_lock:
            self._lock_depth += 1
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        if holds_lock:
            self._lock_depth -= 1

    visit_AsyncWith = visit_With

    # -- calls: RPR002 + RPR003 ---------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = _attribute_chain(func)

        if isinstance(func, ast.Name) and func.id in self._time_funcs:
            self.emit(
                "RPR002",
                node,
                f"{func.id}() reads the wall clock; deterministic paths "
                f"use counters or injected clocks",
            )
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module = func.value.id
            if module in self._time_aliases and func.attr == "time":
                self.emit(
                    "RPR002",
                    node,
                    "time.time() reads the wall clock; deterministic "
                    "paths use counters or injected clocks",
                )
            if (
                self._deterministic
                and module in self._random_aliases
                and func.attr not in ("Random", "SystemRandom")
            ):
                self.emit(
                    "RPR002",
                    node,
                    f"random.{func.attr}() uses the shared unseeded "
                    f"stream; seed a random.Random(...) instance",
                )

        if self._lock_depth > 0 and isinstance(func, ast.Attribute):
            receiver = _attribute_chain(func.value)
            if func.attr in ("put", "get") and _queueish(receiver):
                self.emit(
                    "RPR003",
                    node,
                    f"{receiver}.{func.attr}(...) while holding a lock "
                    f"can block the holder; move queue traffic outside "
                    f"the critical section",
                )
            elif func.attr in _BLOCKING_CALLS and not _lockish(receiver):
                self.emit(
                    "RPR003",
                    node,
                    f"{func.attr}() while holding a lock blocks every "
                    f"other holder; move it outside the critical section",
                )
        if self._lock_depth > 0 and isinstance(func, ast.Name) and func.id == "open":
            self.emit(
                "RPR003",
                node,
                "file I/O while holding a lock; move it outside the "
                "critical section",
            )
        self.generic_visit(node)

    # -- class defs gate RPR004 ---------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self.rel.replace(os.sep, "/").endswith("api/resilience.py"):
            for base in node.bases:
                if isinstance(base, ast.Name) and base.id == "BaseException":
                    self.emit(
                        "RPR004",
                        node,
                        f"class {node.name} subclasses BaseException "
                        f"outside api/resilience.py; crash-signal "
                        f"exceptions live in the resilience taxonomy",
                    )
        self.generic_visit(node)


def _waived(source_lines: Sequence[str], finding: LintFinding) -> bool:
    if finding.line - 1 >= len(source_lines):
        return False
    line = source_lines[finding.line - 1]
    marker = line.rsplit("# noqa:", 1)
    if len(marker) != 2:
        return False
    return finding.rule in marker[1]


def lint_source(
    source: str, rel_path: str, select: Optional[Iterable[str]] = None
) -> List[LintFinding]:
    """Lint one module's source text; returns unwaived findings."""
    selected = set(select) if select is not None else set(RULE_CODES)
    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError as exc:
        return [
            LintFinding(
                rel_path,
                exc.lineno or 1,
                exc.offset or 0,
                "RPR000",
                f"syntax error: {exc.msg}",
            )
        ]
    linter = _Linter(rel_path, rel_path, selected)
    linter.visit(tree)
    lines = source.splitlines()
    return [f for f in linter.findings if not _waived(lines, f)]


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in ("__pycache__", ".git")
                )
                found.extend(
                    os.path.join(root, name)
                    for name in sorted(names)
                    if name.endswith(".py")
                )
    return found


def lint_paths(
    paths: Sequence[str], select: Optional[Iterable[str]] = None
) -> List[LintFinding]:
    """Lint every ``.py`` file under ``paths``; deterministic order."""
    findings: List[LintFinding] = []
    for filename in iter_python_files(paths):
        try:
            with open(filename, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            findings.append(
                LintFinding(filename, 1, 0, "RPR000", f"unreadable: {exc}")
            )
            continue
        findings.extend(lint_source(source, filename, select))
    return findings
