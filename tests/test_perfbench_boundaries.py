"""The benchmark's tracer wraps library functions by module and name; each
must still resolve, so a dropped import fails here rather than only in a
traced benchmark run."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import sparse_kacrice as sk

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _boundaries() -> list[tuple[str, str]]:
    """(calling module, public name) of each ``BOUNDARIES`` row, read from
    the source without importing or compiling it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "BOUNDARIES"
            for target in node.targets
        ):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError(f"no BOUNDARIES list in {TRACING.name}")


def test_every_boundary_resolves_to_the_public_function():
    boundaries = _boundaries()
    assert boundaries
    for module, name in boundaries:
        mod = importlib.import_module(f"sparse_kacrice.{module}")
        assert getattr(mod, name, None) is getattr(sk, name), f"{module}.{name}"
