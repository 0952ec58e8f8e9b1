"""The optional parameters of the public API, pinned.

Every callable in ``sparse_kacrice.__all__`` is listed here with the
parameters that have defaults, so a new option shows up as a one-line diff
to this table.  Error classes are left out: their defaults are the data an
error carries, not options of a computation.
"""

from __future__ import annotations

import inspect

import sparse_kacrice

#: Public name -> {parameter: default}, for every callable with a default
#: (16 parameters).
DEFAULTED = {
    "ExpSum": {"coeffs": None},
    "Augmentation": {"alpha0": 1.0},
    "region_scan": {"box": None, "resolution": 64, "space": "p"},
    "Quadrature": {"abs_tol": 1e-7, "rel_tol": 1e-7},
    "esol_pspace": {"q": None},
    "esol_region": {"q": None},
    "esol_total": {"q": None},
    "lower_bound_check": {"q": None},
    "McConfig": {"n_samples": 100_000, "seed": 0},
    "estimate_esol": {"cfg": None},
    "ComplexExpSum": {"coeffs": None},
    "bkk_total": {"q": None},
}


def _defaulted() -> dict:
    table = {}
    for name in sparse_kacrice.__all__:
        obj = getattr(sparse_kacrice, name)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        params = inspect.signature(obj).parameters.values()
        found = {p.name: p.default for p in params if p.default is not inspect.Parameter.empty}
        if found:
            table[name] = found
    return table


def test_defaulted_parameters_are_pinned():
    assert _defaulted() == DEFAULTED
