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

import numpy as np

from .errors import InputError
from .expsum import ExpSum
from .geometry import SupportSet, _as_count

__all__ = [
    "tensor",
    "aronszajn",
    "aronszajn_power",
    "kostlan",
]


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


def aronszajn(E_a: ExpSum, E_b: ExpSum) -> ExpSum:
    """Aronszajn product: support A + B (Minkowski sums), same variables.

    The squared coefficient at c accumulates alpha_a^2 beta_b^2 over all
    decompositions a + b = c; sums within ``SupportSet.dedup_tolerance``
    (of all the sums) of each other are treated as the same point (cluster
    mean).  That is the one merge radius that gives a valid product:
    ``ExpSum`` refuses closer points as near-duplicates, and a wider radius
    would merge distinct points.  The potential and the metric of the
    product are the pointwise sums of the factors'.
    """
    if E_a.dim != E_b.dim:
        raise InputError(
            f"operands live in different dimensions ({E_a.dim} vs {E_b.dim})"
        )
    A, B = E_a.support.points, E_b.support.points
    n_a, n_b = A.shape[0], B.shape[0]
    sums = (A[:, None, :] + B[None, :, :]).reshape(n_a * n_b, -1)
    sq = (np.repeat(E_a.coeffs, n_b) * np.tile(E_b.coeffs, n_a)) ** 2
    points, sq = _merge_clusters(sums, sq, SupportSet.dedup_tolerance(sums))
    return ExpSum(*_lex_sorted(points, np.sqrt(sq)))


def _binomial_sum(d: int, what: str, m: int, row, place) -> ExpSum:
    """The sum over the multi-indices c in {0, ..., d}^m: the point
    ``place(c)`` with log coefficient sum_i r[c_i], where r = ``row(k, h)``
    is formed from k = 0, ..., d and h_k = log C(d, k) / 2, in log domain so
    large d stays exact.  InputError naming ``what`` d when a coefficient
    overflows a double, raised from the row before any (d+1)^m array exists."""
    from scipy.special import gammaln

    k = np.arange(d + 1)
    r = row(k, 0.5 * (gammaln(d + 1) - gammaln(k + 1) - gammaln(d - k + 1)))
    # The largest log coefficient is m copies of r's largest, summed as below.
    if not r[np.full((1, m), np.argmax(r))].sum(axis=1)[0] < math.log(np.finfo(float).max):
        raise InputError(f"{what} {d} overflows double-precision coefficients")
    c = np.stack([g.ravel() for g in np.meshgrid(*([k] * m), indexing="ij")], axis=1)
    return ExpSum(*_lex_sorted(place(c), np.exp(r[c].sum(axis=1))))


def _two_term_power(E: ExpSum, d: int) -> ExpSum:
    """Closed form for the d-th Aronszajn power of a two-term sum: the k-th
    merged coefficient squares to C(d,k) alpha_p^{2(d-k)} alpha_q^{2k}."""
    (p, q), (cp, cq) = E.support.points, E.coeffs
    return _binomial_sum(d, "power", 1, lambda k, h: h + (d - k) * math.log(cp) + k * math.log(cq),
                         lambda c: d * p + c * (q - p))


def aronszajn_power(E: ExpSum, d: int) -> ExpSum:
    """d-th Aronszajn power of E (d >= 1).

    Two-term sums use an exact binomial closed form (safe to d = 500 and
    beyond, log-domain); other supports iterate the product.  The metric
    of the result is d times the base metric, so the zero density scales
    by d^{m/2}.
    """
    d = _as_count(d, "power must be a positive integer")
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
    on {0, 1}, built directly from binomials (log domain; the coefficients
    stay in double range for d up to about 2050 / m, and a larger degree
    raises InputError before the support is formed).  For m >= 2 the
    support is the limit instead: ``SupportSet``'s pairwise pass holds a
    (k, k, m) array, k = (d+1)^m, of at most ``geometry.PAIRWISE_LIMIT``
    entries (128 MiB), so kostlan(2, 45), kostlan(3, 12) and kostlan(2, 52)
    peak at 184, 258 and 315 MiB (tracemalloc), while kostlan(2, 53),
    kostlan(3, 13) and kostlan(2, 500) raise InputError before the array
    is built.  Densities need the Cauchy-Binet block's C(k-m+1, 2)
    C(k-2, m-1) entries, k = (d+1)^m, within
    ``geometry.SIMPLEX_FORM_LIMIT``: kostlan(3, 2) and kostlan(2, 10) fit,
    kostlan(3, 3) and kostlan(2, 11) raise InputError.
    """
    m = _as_count(m, "dimension must be a positive integer")
    d = _as_count(d, "degree must be a positive integer")
    return _binomial_sum(d, "degree", m, lambda k, h: h, lambda c: c.astype(float))
