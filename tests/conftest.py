"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from sparse_kacrice import geometry


@pytest.fixture
def empty_support_table():
    """Start a test from an empty table of shared supports
    (:func:`sparse_kacrice.geometry._shared_support`), so the sums it builds
    on points get supports no earlier test has cached anything on, and
    empty it again afterwards, so nothing the test patched into a support's
    caches reaches a later test."""
    geometry._supports.clear()
    yield geometry._supports
    geometry._supports.clear()
