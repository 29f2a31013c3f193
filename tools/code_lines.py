"""Count code lines in Python sources.

A code line is a line that holds at least one token other than a
comment, a line break or a docstring. A module, class or function
docstring does not count; any other string counts on every line it
spans. Blank lines and lines holding only a comment do not count.

Usage: python tools/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched for ``*.py``
(default: ``src/panfuse``). Prints ``<lines> <file>`` for each file and
then ``<lines> total``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) where each docstring's string token starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src/panfuse"]:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
