"""The code-line counter in ``tools/code_lines.py``, on a fixture source."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment: the line counts

# a comment line


def f():
    """Function docstring."""
    text = """a multi-line
string that is not a docstring"""
    return text


class C:
    """Class docstring,
    over two lines."""

    x = 1
'''


def test_counts_code_but_not_docstrings_comments_or_blank_lines(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # import, def, both lines of the string, return, class, x = 1.
    assert tool.code_lines(FIXTURE) == 7
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"     7 {path}\n     7 total\n"
