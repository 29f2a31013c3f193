"""No module in the package touches ``__dict__`` except ``raster.memoised``.

A Raster's one field is ``array``, and every value derived from it is
cached through ``memoised``, the one place that knows how a memo is
stored and which thread rule it follows. A ``__dict__`` anywhere else
would be a second store beside it.
"""

import ast
from pathlib import Path

import pytest

import panfuse

SOURCES = sorted(Path(panfuse.__file__).parent.glob("*.py"))
ALLOWED = {("raster.py", "memoised")}


def dict_uses(tree: ast.AST, module: str) -> list[str]:
    """Lines of ``tree`` that touch ``__dict__`` outside the functions
    ``ALLOWED`` names for ``module``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        touches = isinstance(node, ast.Attribute) and node.attr == "__dict__"
        if touches and (module, function) not in ALLOWED:
            found.append(f"line {node.lineno} in {function or 'module scope'}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_instance_dict_outside_memoised(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert dict_uses(tree, path.name) == []


@pytest.mark.parametrize(
    "source, module",
    [
        ("def f(r):\n    return r.__dict__.get('k')", "raster.py"),
        ("def memoised(r):\n    return r.__dict__", "fusion.py"),
        ("x = r.__dict__", "raster.py"),
        ("class R:\n    def g(self):\n        del self.__dict__['a']", "raster.py"),
    ],
)
def test_detects_instance_dict_use(source, module):
    assert dict_uses(ast.parse(source), module) != []


def test_memoised_itself_is_allowed():
    source = "def memoised(r, key):\n    return r.__dict__.get(key)"
    assert dict_uses(ast.parse(source), "raster.py") == []
