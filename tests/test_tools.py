"""The code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """A docstring."""
    s = """a string
    in an expression"""
    "a string statement"
    return (x +
            len(s))
'''


def test_counts_lines_with_code_only(tmp_path):
    # import, def, the two lines of s and the two of the return
    path = tmp_path / "module.py"
    path.write_text(SOURCE)
    assert code_lines.code_lines(path) == 6
