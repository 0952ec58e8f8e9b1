"""Complex Gaussian exponential sums: zero density and the volume check.

For complex Gaussian coefficients the expected density of zeros in C^n
is (n!/pi^n) det of the complex Hessian of the complex potential.  That
Hessian, evaluated on the real slice (the density is invariant under
imaginary translations), is exactly the weighted covariance of the
support — the same matrix as the real metric g — so evaluation reuses
the real machinery.  Integrating the density over R^n and one imaginary
fundamental cell (-pi, pi)^n must reproduce n! times the volume of the
Newton polytope when the support is integral; :func:`bkk_total` performs
that integral.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
# ``evaluate`` is imported for perfbench's tracer, which wraps it as a
# complexcase boundary; the densities here use the batched kernel.
from .expsum import ExpSum, _log_det, _softmax, evaluate  # noqa: F401
from .integrate import IntegralResult, Quadrature, _over_rm
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
    n = E.dim
    _, W, total = _softmax(E, X)
    return math.factorial(n) / math.pi**n * np.exp(_log_det(E, W, total))


def n_factorial_volume(E: ComplexExpSum) -> float:
    """n! times the Newton-polytope volume — the classical root count."""
    return math.factorial(E.dim) * hull_volume(E.support)


def bkk_total(E: ComplexExpSum, q: Quadrature | None = None) -> IntegralResult:
    """Expected zeros in R^n x i(-pi, pi)^n: the density route.

    (2 pi)^n times the integral of :func:`bkk_density` over R^n, on the
    same metric-normalized cube and shells as ``esol_total``.  Requires
    integer exponents (the volume identity is asserted only there) and at
    most three variables.
    """
    q = q or Quadrature()
    pts = E.support.points
    if not np.allclose(pts, np.round(pts), atol=1e-9, rtol=0.0):
        raise InputError("the volume identity requires integer exponents")
    if E.dim > 3:
        raise InputError("quadrature is limited to three variables")
    if E.support.degenerate:
        return IntegralResult(0.0, 0.0, "bkk", 0, 0)
    factor = (2.0 * math.pi) ** E.dim

    def f(X):
        return factor * _bkk_density_many(E, X)

    value, error, cells, nodes = _over_rm(f, E, q.abs_tol, q.rel_tol)
    return IntegralResult(value, error, "bkk", cells, nodes)
