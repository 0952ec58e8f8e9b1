"""Operations on coefficient systems: tensor and Aronszajn products.

The tensor product juxtaposes variables (support A x B, coefficients
multiply), the Aronszajn product shares them (support A + B Minkowski,
squared coefficients convolve).  Both obey exact laws for the potential
and the metric — additivity across blocks for the tensor product,
pointwise additivity for the Aronszajn product — which the test suite
checks through direct evaluation.

Results carry a canonical lexicographically sorted support so that
algebraic identities can be compared structurally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .expsum import ExpSum, evaluate
from .geometry import SupportSet, _check_vector

__all__ = [
    "CoeffSystem",
    "tensor",
    "aronszajn",
    "aronszajn_power",
    "kostlan",
    "DensityBoundsReport",
    "density_bounds_check",
]

#: Operand alias: a coefficient system is an exponential sum's data.
CoeffSystem = ExpSum


def _lex_sorted(points: np.ndarray, coeffs: np.ndarray):
    """Order support points lexicographically (first coordinate primary)."""
    order = np.lexsort(points.T[::-1])
    return points[order], coeffs[order]


def tensor(E_a: ExpSum, E_b: ExpSum) -> ExpSum:
    """Tensor product: support A x B in concatenated coordinates.

    Coefficients multiply termwise, so the potential splits as
    phi(x, y) = phi_a(x) + phi_b(y) and the metric is block diagonal.
    """
    A, B = E_a.support.points, E_b.support.points
    n_a, n_b = A.shape[0], B.shape[0]
    points = np.hstack([np.repeat(A, n_b, axis=0), np.tile(B, (n_a, 1))])
    coeffs = np.repeat(E_a.coeffs, n_b) * np.tile(E_b.coeffs, n_a)
    return ExpSum(*_lex_sorted(points, coeffs))


def _merge_clusters(points: np.ndarray, sq_weights: np.ndarray, merge_tol: float):
    """Group points within merge_tol; squared weights accumulate per group."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    n = points.shape[0]
    pairs = cKDTree(points).query_pairs(merge_tol, output_type="ndarray")
    if len(pairs) == 0:
        return points, sq_weights
    adjacency = coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
    )
    n_groups, labels = connected_components(adjacency, directed=False)
    counts = np.bincount(labels, minlength=n_groups).astype(float)
    merged_points = np.zeros((n_groups, points.shape[1]))
    np.add.at(merged_points, labels, points)
    merged_points /= counts[:, None]
    merged_sq = np.zeros(n_groups)
    np.add.at(merged_sq, labels, sq_weights)
    return merged_points, merged_sq


def aronszajn(E_a: ExpSum, E_b: ExpSum, merge_tol: float | None = None) -> ExpSum:
    """Aronszajn product: support A + B (Minkowski sums), same variables.

    The squared coefficient at c accumulates alpha_a^2 beta_b^2 over all
    decompositions a + b = c; sums that land within merge_tol of each
    other are treated as the same point (cluster mean).  The potential and
    the metric of the product are the pointwise sums of the factors'.
    """
    if E_a.dim != E_b.dim:
        raise InputError(
            f"operands live in different dimensions ({E_a.dim} vs {E_b.dim})"
        )
    A, B = E_a.support.points, E_b.support.points
    n_a, n_b = A.shape[0], B.shape[0]
    sums = (A[:, None, :] + B[None, :, :]).reshape(n_a * n_b, -1)
    sq = (np.repeat(E_a.coeffs, n_b) * np.tile(E_b.coeffs, n_a)) ** 2
    if merge_tol is None:
        merge_tol = SupportSet.dedup_tolerance(sums)
    points, sq = _merge_clusters(sums, sq, merge_tol)
    return ExpSum(*_lex_sorted(points, np.sqrt(sq)))


def _two_term_power(E: ExpSum, d: int) -> ExpSum:
    """Closed form for the d-th Aronszajn power of a two-term sum.

    The k-th merged coefficient squares to C(d,k) alpha_p^{2(d-k)}
    alpha_q^{2k}, evaluated in log domain so large d stays exact.
    """
    from scipy.special import gammaln

    (p, q), (cp, cq) = E.support.points, E.coeffs
    k = np.arange(d + 1)
    log_coeffs = 0.5 * (
        gammaln(d + 1) - gammaln(k + 1) - gammaln(d - k + 1)
    ) + (d - k) * math.log(cp) + k * math.log(cq)
    if not np.all(log_coeffs < math.log(np.finfo(float).max)):
        raise InputError(f"power {d} overflows double-precision coefficients")
    points = d * p + k[:, None] * (q - p)
    return ExpSum(*_lex_sorted(points, np.exp(log_coeffs)))


def aronszajn_power(E: ExpSum, d: int) -> ExpSum:
    """d-th Aronszajn power of E (d >= 1).

    Two-term sums use an exact binomial closed form (safe to d = 500 and
    beyond, log-domain); other supports iterate the product.  The metric
    of the result is d times the base metric, so the zero density scales
    by d^{m/2}.
    """
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise InputError("power must be a positive integer")
    d = int(d)
    if E.n_terms == 2:
        return _two_term_power(E, d)
    result = E
    for _ in range(d - 1):
        result = aronszajn(result, E)
    return ExpSum(*_lex_sorted(result.support.points, result.coeffs))


def kostlan(m: int, d: int) -> ExpSum:
    """The Kostlan system in m variables of degree d.

    Support {0, ..., d}^m with coefficient sqrt(prod_i C(d, c_i)) at c —
    the d-th Aronszajn power of the tensor m-th power of the two-term seed
    on {0, 1}, built directly from binomials (log domain; degrees beyond
    double range raise InputError, d <= 500 is safe).
    """
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise InputError("dimension must be a positive integer")
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise InputError("degree must be a positive integer")
    from scipy.special import gammaln

    m, d = int(m), int(d)
    k = np.arange(d + 1)
    half_log_binom = 0.5 * (gammaln(d + 1) - gammaln(k + 1) - gammaln(d - k + 1))
    grids = np.meshgrid(*([k] * m), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1).astype(float)
    log_coeffs = half_log_binom[points.astype(int)].sum(axis=1)
    if not np.all(log_coeffs < math.log(np.finfo(float).max)):
        raise InputError(f"degree {d} overflows double-precision coefficients")
    return ExpSum(*_lex_sorted(points, np.exp(log_coeffs)))


@dataclass(frozen=True)
class DensityBoundsReport:
    """Two-sided bounds on the combined metric against its factors.

    For each sampled direction u, with s_i = sqrt(Q_i(u)) and
    s = sqrt((Q_1+Q_2)(u)), the inclusions read
    (s_1 + s_2)/sqrt(2) <= s <= s_1 + s_2.  ``lower_margin`` and
    ``upper_margin`` are the worst (smallest) slacks of the left and right
    inequalities over the sample; both are nonnegative when ``passed``.
    In one variable this is the pointwise density bound for the Aronszajn
    product; in higher dimension it is the dual-ellipsoid inclusion.
    """

    lower_margin: float
    upper_margin: float
    n_directions: int
    passed: bool


def density_bounds_check(
    E_a: ExpSum,
    E_b: ExpSum,
    x,
    n_directions: int = 50,
    seed: int = 0,
    tol: float = 1e-12,
) -> DensityBoundsReport:
    """Check the two-sided metric bounds for a sum of two systems at x.

    In one variable a single direction suffices; otherwise n_directions
    random unit vectors are sampled with the given seed.
    """
    if E_a.dim != E_b.dim:
        raise InputError(
            f"operands live in different dimensions ({E_a.dim} vs {E_b.dim})"
        )
    m = E_a.dim
    x = _check_vector(x, m, "x")
    Q1 = evaluate(E_a, x).g.entries
    Q2 = evaluate(E_b, x).g.entries
    if m == 1:
        directions = np.ones((1, 1))
    else:
        rng = np.random.default_rng(seed)
        directions = rng.standard_normal((n_directions, m))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    s1 = np.sqrt(np.einsum("ni,ij,nj->n", directions, Q1, directions))
    s2 = np.sqrt(np.einsum("ni,ij,nj->n", directions, Q2, directions))
    mid = np.sqrt(np.einsum("ni,ij,nj->n", directions, Q1 + Q2, directions))
    lower_margin = float((mid - (s1 + s2) / math.sqrt(2.0)).min())
    upper_margin = float(((s1 + s2) - mid).min())
    scale = max(1.0, float(mid.max()))
    passed = lower_margin >= -tol * scale and upper_margin >= -tol * scale
    return DensityBoundsReport(
        lower_margin=lower_margin,
        upper_margin=upper_margin,
        n_directions=int(directions.shape[0]),
        passed=passed,
    )
