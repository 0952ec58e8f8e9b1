"""The rule for each kind of outside number is stated once, in geometry.

A stdlib-``ast`` check over ``src/``, built as ``tests/test_imports.py``
is: the ``numbers`` module, ``iscomplexobj`` and ``isinstance`` tests
against ``bool`` or numpy's bool appear in ``geometry.py`` alone, where
``_as_floats`` (arrays), ``_as_real`` (real parameters) and ``_is_int``
(counts) live.  Every other module converts its outside numbers through
those three, so a second, disagreeing check shows up here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src").rglob("*.py"))
HOME = "geometry.py"
BOOLS = {"bool", "np.bool_", "np.bool", "numpy.bool_", "numpy.bool"}


def _dotted(node: ast.AST) -> str:
    """The dotted name of a Name or Attribute chain, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return ""


def _scalar_tests(tree: ast.Module):
    """(line, what) of every use of ``numbers``, ``iscomplexobj`` and
    ``isinstance`` test against a bool type in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names):
            yield node.lineno, "import numbers"
        elif isinstance(node, ast.ImportFrom) and (
                node.module == "numbers" or any(a.name == "iscomplexobj" for a in node.names)):
            yield node.lineno, f"from {node.module} import"
        elif isinstance(node, ast.Attribute) and node.attr == "iscomplexobj":
            yield node.lineno, "iscomplexobj"
        elif (isinstance(node, ast.Call) and _dotted(node.func) == "isinstance" and len(node.args) == 2):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(_dotted(kind) in BOOLS for kind in kinds):
                yield node.lineno, "isinstance(..., bool)"


def _found(path: Path) -> list[str]:
    return [f"line {line}: {what}" for line, what in _scalar_tests(ast.parse(path.read_text()))]


def test_the_rules_are_found_in_geometry():
    found = _found(ROOT / "src" / "sparse_kacrice" / HOME)
    assert any("import numbers" in f for f in found)
    assert any("isinstance" in f for f in found)


@pytest.mark.parametrize("path", [p for p in FILES if p.name != HOME],
                         ids=[str(p.relative_to(ROOT)) for p in FILES if p.name != HOME])
def test_no_scalar_check_outside_geometry(path):
    found = _found(path)
    assert not found, f"{path.relative_to(ROOT)} checks outside numbers itself: {found}"
