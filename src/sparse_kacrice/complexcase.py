"""Complex Gaussian exponential sums: zero density and the volume check.

For complex Gaussian coefficients the expected density of zeros in C^n
is (n!/pi^n) det of the complex Hessian of the complex potential.  That
Hessian, evaluated on the real slice (the density is invariant under
imaginary translations), is exactly the weighted covariance of the
support — the same matrix as the real metric g — so evaluation reuses
the real machinery.  Integrating the density over R^n and one imaginary
fundamental cell (-pi, pi)^n gives n! times the volume of the Newton
polytope for every full-dimensional support, by the moment map's volume
identity; :func:`bkk_total` performs that integral.  Only for integer
exponents is that number the root count of Bernstein–Kushnirenko.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
# ``evaluate`` is imported for perfbench's tracer, which wraps it as a
# complexcase boundary; the densities here use the batched kernel.
from .expsum import ExpSum, _det_g, _softmax, evaluate  # noqa: F401
from .integrate import IntegralResult, Quadrature, _integral, _over_rm
from .geometry import _check_vector, hull_volume

__all__ = ["ComplexExpSum", "bkk_density", "bkk_total", "n_factorial_volume"]


class ComplexExpSum(ExpSum):
    """Exponential sum with complex Gaussian coefficient law.

    Same data as :class:`ExpSum` — real exponents, positive coefficient
    scales (taking them real and positive loses no generality).  The
    class only switches which density formulas apply.
    """


def bkk_density(E: ComplexExpSum, x) -> float:
    """Expected zero density of the complex sum at the real point x.

    (n!/pi^n) det(sum_a lambda_a a a^T - mu mu^T), with the weights
    lambda built from e^{2<a,x>}; the determinant factor is the same
    weighted covariance as the real metric.  Degenerate supports give 0.
    """
    x = _check_vector(x, E.dim, "x")
    return float(_bkk_density_many(E, x[:, None])[0])


def _bkk_density_many(E: ComplexExpSum, X: np.ndarray) -> np.ndarray:
    """:func:`bkk_density` at each column of the coordinate-major X (m, N)."""
    return math.factorial(E.dim) / math.pi**E.dim * _det_g(E, *_softmax(E, X)[1:])


def n_factorial_volume(E: ComplexExpSum) -> float:
    """n! times the Newton-polytope volume: for integer exponents, the
    classical root count."""
    return math.factorial(E.dim) * hull_volume(E.support)


def bkk_total(E: ComplexExpSum, q: Quadrature | None = None) -> IntegralResult:
    """Expected zeros in R^n x i(-pi, pi)^n: the density route.

    (2 pi)^n times the integral of :func:`bkk_density` over R^n, taken as
    ``esol_total`` takes its own: over the Newton polytope through the
    facet-log map for a sum with a facet-log start on a simple polytope (in
    up to three variables), on a metric-normalized cube and shells
    otherwise.  It is
    n! vol(P) for every full-dimensional real support (the moment map
    carries the density onto the polytope), which counts roots only for
    integer exponents.  At most three variables.
    """
    if E.dim > 3:
        raise InputError("quadrature is limited to three variables")
    # The imaginary cell (-pi, pi)^n multiplies the integral over R^n by its
    # volume.
    factor = (2.0 * math.pi) ** E.dim
    return _integral(E, q, "bkk", lambda X: factor * _bkk_density_many(E, X), _over_rm)
