"""Count code lines: lines holding at least one token that is neither a
comment nor part of a docstring (the counter every CHANGES.md entry
since PR 12 quotes).

    python .github/scripts/code_lines.py src/repro src/repro/api/service.py tests

Each argument is a ``.py`` file or a directory searched recursively;
one ``<count>  <path>`` line is printed per argument.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        for line in range(token.start[0], token.end[0] + 1):
            if line not in docstrings:
                lines.add(line)
    return len(lines)


def count(path: Path) -> int:
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(code_lines(file.read_text(encoding="utf-8")) for file in files)


USAGE = "usage: python .github/scripts/code_lines.py PATH [PATH ...]"


if __name__ == "__main__":
    missing = [argument for argument in sys.argv[1:] if not Path(argument).exists()]
    if missing:
        print(USAGE, file=sys.stderr)
        print(f"error: no such file or directory: {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    for argument in sys.argv[1:]:
        print(f"{count(Path(argument)):>7}  {argument}")
