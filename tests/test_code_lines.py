"""Tests for scripts/code_lines.py, the code-line count of the package."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "code_lines.py"

_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment keeps its line


def f(x):
    """Docstring."""
    # a comment line

    y = (x +
         1)
    "a string statement counts as a docstring"
    return math.sqrt(y), """a string
that is a value"""
'''


def test_counts_code_and_skips_docstrings_comments_and_blank_lines():
    # import, def, the two lines of y = ... and the two of the return
    assert code_lines.code_lines(SOURCE) == 6


def test_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert [line.split() for line in out] == [["6", "a.py"], ["1", "b.py"], ["7", "total"]]
