"""No module imports a name it never uses.

A stdlib-``ast`` stand-in for a linter's unused-import rule (pyflakes F401)
over ``src/``, ``tests/`` and ``demos/``.  A name counts as used when the
module reads it anywhere, in any scope (annotations are code under
``from __future__ import annotations``), or lists it in ``__all__``.  An
import statement marked ``# noqa: F401`` is skipped: those names are kept
on purpose for a caller outside the module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for folder in ("src", "tests", "demos") for p in (ROOT / folder).rglob("*.py"))


def _imported(tree: ast.Module, lines: list[str]):
    """(bound name, line) of every import outside ``__future__`` whose
    statement carries no ``# noqa: F401``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            yield (alias.asname or alias.name).split(".")[0], node.lineno


def _used(tree: ast.Module) -> set[str]:
    """Names the module reads, and the names listed in its ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def test_the_scan_sees_every_folder():
    folders = {p.relative_to(ROOT).parts[0] for p in FILES}
    assert folders == {"src", "tests", "demos"}


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = _used(tree)
    unused = [f"line {line}: {name}" for name, line in _imported(tree, source.splitlines())
              if name not in used]
    assert not unused, f"{path.relative_to(ROOT)} imports names it never uses: {unused}"
