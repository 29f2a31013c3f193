"""No call in the package goes through BLAS.

numpy hands ``dot``, ``vdot``, ``inner``, ``matmul`` (the ``@``
operator), ``tensordot``, ``linalg`` and ``einsum(..., optimize=...)`` to
OpenBLAS. After each call OpenBLAS's worker threads spin, and they take
the core that ``run_batch``'s other pair thread needs. Measured on a
2-vCPU host, a 2-pair batch at ``PANFUSE_THREADS=2``, median of 12: the
spectral sums through ``np.dot`` took 714-802 ms, the same sums through
``np.sum`` 487-591 ms, and ``np.dot`` with ``OPENBLAS_NUM_THREADS=1``
463-474 ms. The exact sums are int64 sums of integer squares, and
``einsum`` without ``optimize`` keeps its loop in numpy.
"""

import ast
from pathlib import Path

import pytest

import panfuse

BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg"}
SOURCES = sorted(Path(panfuse.__file__).parent.glob("*.py"))


def blas_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"{where}: .{node.attr}")
        elif isinstance(node, ast.alias) and BLAS_NAMES & set(node.name.split(".")):
            found.append(f"{where}: import {node.name}")
        elif isinstance(node, ast.ImportFrom) and BLAS_NAMES & set(
            (node.module or "").split(".")
        ):
            found.append(f"{where}: from {node.module}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{where}: @")
        elif isinstance(node, ast.Call) and any(k.arg == "optimize" for k in node.keywords):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "einsum":
                found.append(f"{where}: einsum(optimize=...)")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_blas_call(path):
    assert blas_uses(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []


@pytest.mark.parametrize(
    "source",
    [
        "np.dot(a, b)",
        "numpy.vdot(a, b)",
        "np.inner(a, b)",
        "np.matmul(a, b)",
        "np.tensordot(a, b)",
        "np.linalg.norm(a)",
        "from numpy import dot",
        "import numpy.linalg",
        "from numpy.linalg import norm",
        "a @ b",
        "a @= b",
        "np.einsum('ij,ij->', a, a, optimize=True)",
    ],
)
def test_guard_catches(source):
    assert blas_uses(ast.parse(source))
