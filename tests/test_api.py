"""The public API, pinned: its names and its optional parameters.

Every name in ``sparse_kacrice.__all__`` is listed here, and every callable
among them with the parameters that have defaults, so a new public name or
a new option shows up as a one-line diff to these tables.  Error classes
are left out of the second: their defaults are the data an error carries,
not options of a computation.
"""

from __future__ import annotations

import importlib
import inspect
import operator
from fractions import Fraction

import numpy as np
import pytest

import sparse_kacrice
from sparse_kacrice import Augmentation, InputError, kostlan

#: The modules whose ``__all__`` lists make up the package's, in order.
MODULES = ("errors", "geometry", "expsum", "monotonicity", "algebra", "integrate", "mc_oracle", "complexcase")

#: Every public name, sorted (52 names).
PUBLIC = [
    "Augmentation",
    "ComplexExpSum",
    "ConvergenceError",
    "DegenerateMetricError",
    "DomainError",
    "EvalBundle",
    "ExpSum",
    "InputError",
    "IntegralResult",
    "McConfig",
    "PsiEval",
    "QuadForm",
    "Quadrature",
    "RegionScan",
    "SingularFormError",
    "SparseKacRiceError",
    "SupportSet",
    "__version__",
    "aronszajn",
    "aronszajn_power",
    "asymptotic_moment",
    "augment",
    "ball_sphere_constants",
    "bkk_density",
    "bkk_total",
    "density",
    "density_many",
    "diameter",
    "dual_form",
    "esol_pspace",
    "esol_region",
    "esol_total",
    "estimate_esol",
    "evaluate",
    "exposed_face",
    "face_metric_limit",
    "form_det",
    "hull_volume",
    "interior_contains",
    "invert_moment",
    "kostlan",
    "legendre_density",
    "lower_bound_check",
    "n_factorial_volume",
    "potential",
    "psi",
    "ray_scan_unbounded",
    "region_scan",
    "sample_zero_count",
    "support_function",
    "tensor",
    "witness_interior",
]

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


def test_public_names_are_pinned():
    assert sorted(sparse_kacrice.__all__) == PUBLIC


def test_public_names_are_stated_once_in_their_modules():
    modules = [importlib.import_module(f"sparse_kacrice.{name}") for name in MODULES]
    assert sparse_kacrice.__all__ == ["__version__"] + [name for mod in modules for name in mod.__all__]
    assert len(set(sparse_kacrice.__all__)) == len(sparse_kacrice.__all__)
    for mod in modules:
        for name in mod.__all__:
            obj = getattr(mod, name)
            assert obj.__module__ == mod.__name__, f"{mod.__name__}.{name} is defined in {obj.__module__}"
            assert getattr(sparse_kacrice, name) is obj, name


SQUARE = kostlan(2, 1)
LINE = kostlan(1, 2)

#: Malformed point and parameter inputs of the public entry points, and
#: inputs outside their contracts (records, shapes, dimensions, zero
#: directions): each raises InputError, not the TypeError or ValueError of a
#: failed float conversion, a complex array is not cast to its real part,
#: and a bool is not a real parameter.  An entry may be dotted, for a class
#: method.
MALFORMED = {
    "evaluate str": ("evaluate", (SQUARE, "ab")),
    "invert_moment str entry": ("invert_moment", (SQUARE, ["a", 0.5])),
    "support_function str": ("support_function", (SQUARE.support, "xy")),
    "interior_contains str": ("interior_contains", (SQUARE.support, "xy", 1e-3)),
    "psi dict": ("psi", (SQUARE, Augmentation([0.3, 0.6]), {"a": 1})),
    **{f"ray_scan_unbounded t_max {t_max!r}": ("ray_scan_unbounded", (LINE, Augmentation([3.0]), [1.0], t_max, 3))
       for t_max in ("5", None, [5.0], True, np.True_)},
    "ExpSum.from_dict list": ("ExpSum.from_dict", ([[0.0], [1.0]],)),
    "ExpSum.from_dict support shape": ("ExpSum.from_dict", ({"dim": 2, "support": [[0.0], [1.0]]},)),
    "ExpSum.from_json invalid": ("ExpSum.from_json", ('{"dim": 1,',)),
    "density_many width": ("density_many", (SQUARE, np.zeros((3, 3)))),
    "hull_volume four variables": ("hull_volume", (kostlan(4, 1).support,)),
    "interior_contains tol 0": ("interior_contains", (SQUARE.support, [0.5, 0.5], 0.0)),
    "ball_sphere_constants 0": ("ball_sphere_constants", (0,)),
    "QuadForm non-square": ("QuadForm", (np.ones((2, 3)),)),
    "QuadForm non-finite": ("QuadForm", (np.array([[1.0, np.nan], [np.nan, 1.0]]),)),
    "estimate_esol two variables": ("estimate_esol", (SQUARE,)),
    "asymptotic_moment zero x_dir": ("asymptotic_moment", (SQUARE, [0.0, 0.0])),
    "face_metric_limit zero x_dir": ("face_metric_limit", (SQUARE, [0.0, 0.0], [0.0, 0.0])),
    "ray_scan_unbounded zero direction": ("ray_scan_unbounded", (LINE, Augmentation([3.0]), [0.0], 5.0, 3)),
    "SupportSet str": ("SupportSet", ("ab",)),
    "SupportSet ragged": ("SupportSet", ([[0], [1, 2]],)),
    "SupportSet complex": ("SupportSet", ([[0], [1j]],)),
    "ExpSum str": ("ExpSum", ("ab",)),
    "ComplexExpSum str": ("ComplexExpSum", ("ab",)),
    "diameter str": ("diameter", ("ab",)),
    "hull_volume str": ("hull_volume", ("ab",)),
    "ExpSum coeffs str": ("ExpSum", ([[0], [1]], "ab")),
    "ExpSum coeffs complex": ("ExpSum", ([[0], [1]], [1j, 1])),
    "QuadForm str": ("QuadForm", ("ab",)),
    "QuadForm complex": ("QuadForm", ([[1j, 0], [0, 1]],)),
    "Augmentation alpha0 array": ("Augmentation", ([0.3, 0.6], np.array([2.0]))),
    "ExpSum coeffs complex array": ("ExpSum", ([[0], [1]], np.array([1 + 1j, 1]))),
    "QuadForm complex array": ("QuadForm", (np.array([[1j, 0], [0, 1]]),)),
    "SupportSet complex array": ("SupportSet", (np.array([[0], [1j]]),)),
    "Augmentation a0 complex array": ("Augmentation", (np.array([0.5 + 1j]),)),
    "density_many complex array": ("density_many", (LINE, np.array([[0.1 + 2j]]))),
    "density_many str": ("density_many", (LINE, "ab")),
    "sample_zero_count str": ("sample_zero_count", (LINE, "ab")),
    # A numeric string is a string, not a real number, under the one rule.
    "evaluate numeric str": ("evaluate", (kostlan(1, 2), ["0.5"])),
    "ExpSum numeric str": ("ExpSum", (["0", "1"],)),
    "SupportSet bytes": ("SupportSet", ([b"0", b"1"],)),
    "ExpSum numeric str object array": ("ExpSum", (np.array(["0", "1"], dtype=object),)),
    "ExpSum.from_dict numeric str support": ("ExpSum.from_dict", ({"dim": 1, "support": ["0", "1"]},)),
    "ExpSum.from_dict numeric str coeffs": ("ExpSum.from_dict", ({"dim": 1, "support": [0, 1], "coeffs": ["1", "2"]},)),
    "Augmentation alpha0 numpy complex": ("Augmentation", ([3.0], np.complex128(2 + 1j))),
    # A real parameter is a real number (geometry._as_real): not an array of
    # any shape, a bool, a string or a non-finite value.
    "Quadrature tol array": ("Quadrature", (np.array([1e-5]),)),
    "Quadrature tol 0-d array": ("Quadrature", (np.array(1e-5),)),
    "Quadrature rel_tol 0-d array": ("Quadrature", (1e-5, np.array(1e-5))),
    "Augmentation alpha0 0-d array": ("Augmentation", ([0.3, 0.6], np.array(2.0))),
    **{f"interior_contains tol {tol!r}": ("interior_contains", (SQUARE.support, [0.5, 0.5], tol))
       for tol in (True, np.inf, np.array([1e-3]), "1")},
    # A count is an integer (geometry._is_int): 8.0 is not one.
    **{f"region_scan resolution {r!r}": ("region_scan", (SQUARE, Augmentation([0.3, 0.6]), None, r))
       for r in (8.0, (8.0, 8))},
    **{f"ball_sphere_constants {m!r}": ("ball_sphere_constants", (m,)) for m in (2.5, True, "2")},
    **{f"SupportSet.dedup_tolerance {label}": ("SupportSet.dedup_tolerance", (points,))
       for label, points in (("numeric str", ["0", "1"]), ("complex array", np.array([[1j], [0]])),
                             ("str", "ab"), ("ragged", [[0, 1], [2]]))},
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_inputs_raise_input_error(name):
    entry, args = MALFORMED[name]
    with pytest.raises(InputError):
        operator.attrgetter(entry)(sparse_kacrice)(*args)


#: Accepted scalars: a real parameter takes an int, a float, numpy's float32
#: and float64 and a Fraction, each with the result of its float; a
#: resolution takes a count or one count per axis as a tuple, list or 1-D
#: array, each with the same scan bit for bit.
REALS = [1, 0.375, np.float32(0.375), np.float64(0.375), Fraction(3, 8)]
RESOLUTIONS = [8, np.int64(8), (8, 8), [8, 8], np.array([8, 8])]


def _real_parameter_results(value) -> dict:
    """The result of each public real parameter at value, one entry per
    parameter, and the types that Quadrature and Augmentation store."""
    q, aug = sparse_kacrice.Quadrature(abs_tol=value, rel_tol=value), Augmentation([0.3, 0.6], value)
    return {
        "stored": (type(q.abs_tol), type(q.rel_tol), type(aug.alpha0)),
        "abs_tol": sparse_kacrice.esol_total(LINE, sparse_kacrice.Quadrature(abs_tol=value)),
        "rel_tol": sparse_kacrice.esol_total(LINE, sparse_kacrice.Quadrature(rel_tol=value)),
        "alpha0": sparse_kacrice.psi(SQUARE, aug, [0.2, -0.4]).psi,
        "t_max": [e.psi for e in sparse_kacrice.ray_scan_unbounded(LINE, Augmentation([3.0]), [1.0], value, 3)],
        "tol": sparse_kacrice.interior_contains(SQUARE.support, [0.5, 0.6], value),
    }


@pytest.mark.parametrize("value", REALS, ids=[type(v).__name__ for v in REALS])
def test_real_parameters_give_the_float_result(value):
    assert _real_parameter_results(value) == _real_parameter_results(float(value))


@pytest.mark.parametrize("resolution", RESOLUTIONS, ids=[type(r).__name__ for r in RESOLUTIONS])
@pytest.mark.parametrize("space", ["p", "x"])
def test_resolutions_give_the_same_scan(resolution, space):
    aug = Augmentation([0.3, 0.6])
    got = sparse_kacrice.region_scan(kostlan(2, 1), aug, resolution=resolution, space=space)
    want = sparse_kacrice.region_scan(kostlan(2, 1), aug, resolution=8, space=space)
    assert got.resolution == want.resolution == (8, 8)
    assert all(type(n) is int for n in got.resolution)
    assert got.psi.tobytes() == want.psi.tobytes()
    np.testing.assert_array_equal(got.classes, want.classes)
    assert got.to_json() == want.to_json()
