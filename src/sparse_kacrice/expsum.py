"""Gaussian exponential sums and their pointwise analytic quantities.

An exponential sum is the random function

    E(x) = sum over a in A of  xi_a * alpha_a * exp(<a, x>),

with iid standard Gaussian xi_a, finite support A in R^m and positive
weights alpha_a.  Everything pointwise lives here: the covariance K, the
potential Phi = (1/2) log K, the softmax weights, the moment map mu
(gradient of Phi, a diffeomorphism onto the interior of the Newton
polytope), the metric g (half the Hessian of Phi), the expected-zero
density (2/s_m) sqrt(det g), moment-map inversion, the polytope-side
density and directional asymptotics.  The identities these obey
(grad Phi = mu, Hess Phi = 2 g, the Veronese pull-back of the round
metric) are checked by the test suite, not computed here.

Batched kernels compute all of it.  :func:`_softmax` takes N points
coordinate-major, as an (m, N) array, and gives their weights terms-major,
as a (k, N) array, so every max, sum and contraction over the k terms runs
along the long axis of points.  Every caller hands it that layout: the
quadrature cells build their nodes in it, and callers that hold points as
rows pass a transposed view.  From that one triple, :func:`_moments` gives
Phi, mu and g coordinate-major (mu as (m, N), g as (m, m, N)) and
:func:`_det_g` a cancellation-free det g for every density.
:func:`_invert_moment_many` inverts the moment map for many targets by
damped Newton in the kernel's own layout: the rows hold x, p and mu as
(m, N) and the softmax weights as (k, N), and each iteration forms the
metric (m, m, N) of the rows it holds once (:func:`_metric`, the one place
the metric is formed) for one stacked Cholesky factor-and-solve
(:mod:`.geometry`) on contiguous rows with no per-matrix LAPACK call.
Every target starts at the sum's cached balancing point, or at the
facet-log predictor (the gradient of Guillemin's symplectic potential,
from the support's one hull) where that is close enough, and its start is
the loop's first iterate.  A row is written out in the iteration it
settles, converges or fails, and done rows are packed away only once they
are half of those held, so most iterations copy nothing.  Trials and
backtracks read mu alone, so the canonical toric sums, whose rows all
settle at their predicted start, invert with no Newton step and no
metric.  The scalar API (:func:`potential`,
:func:`evaluate`, :func:`density`, :func:`invert_moment`) is these kernels
on one row, so a scalar call and a one-row batch give the same numbers bit
for bit; :func:`evaluate` takes g and the density from one softmax and
forms no dual: the dual form and its gate are :func:`.geometry.dual_form`,
called only where a dual is read.

Every kernel reads the support centred at its barycenter c, the points
A - c that the support stores once (``ExpSum._c`` and ``ExpSum._points``
are the support's own arrays), as its hull, facet rows and exposed faces
do (:mod:`.geometry`).  Translating the support multiplies every
realization of E by e^<c, x> > 0, which keeps the softmax weights, the
metric and every density, and moves mu by -c; on the centred points the
kernels carry eps diam(P) of rounding, not eps |a|, and a sum and its
translate by an exactly representable vector give the same densities,
integrals, preimages and exposed faces bit for bit.  The potential and
the moment map take c back where they leave the kernels in user
coordinates (:func:`potential`, :func:`evaluate`), and moment-map
targets enter :func:`_invert_moment_many` relative to c.

All evaluation is done in the log domain with a softmax shift, so points
with coordinates far beyond the overflow range of exp stay finite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DegenerateMetricError, DomainError, InputError
from .geometry import (
    QuadForm,
    SupportSet,
    _as_floats,
    _check_vector,
    _cholesky_solve,
    _face_mask,
    _facet_slack,
    _is_int,
    _read_only,
    _shared_support,
    ball_sphere_constants,
    diameter,
    interior_contains,
)
# ``dual_form``, ``form_det`` and ``support_function`` are imported for
# perfbench's tracer, which wraps them as expsum boundaries; nothing here
# calls them.
from .geometry import dual_form, form_det, support_function  # noqa: F401

__all__ = [
    "ExpSum",
    "EvalBundle",
    "evaluate",
    "density",
    "density_many",
    "invert_moment",
    "legendre_density",
    "asymptotic_moment",
    "face_metric_limit",
    "potential",
]

#: Interior margin of every moment target, scaled by (1 + diam P): the
#: targets of invert_moment and legendre_density, and the p-grid nodes of
#: region_scan, lie at least this far inside every facet.
INVERT_MARGIN = 1e-9

#: Newton iterations of moment-map inversion before a row counts as failed.
INVERT_MAX_ITER = 80

#: The one share of the facet-log start (_invert_moment_many): a row starts
#: at the predictor only where its moment residual there is below the
#: balancing point's and at most this share of the target's least facet
#: distance, and a sum has a predictor only where its Jacobian at the start
#: is right to this share (ExpSum._facet_start).  Measured with the sum test
#: lifted, on 3 000 Dirichlet and 1 200-2 400 near-facet targets on each of
#: twelve generic supports: shares 0.01 to 0.3 lose no row that converges
#: from the balancing point, a share of 1 costs up to 0.8 % more Newton rows,
#: and a bare "closer" test loses up to 918 rows of 3 000.
FACET_START_SHARE = 0.01

#: Moment residual of every moment-map inversion, scaled by (1 + diam P) and
#: measured about the barycenter, where the kernels work: a preimage of a
#: point at distance d from a facet keeps a relative error near INVERT_TOL / d.
INVERT_TOL = 1e-14


class ExpSum:
    """A Gaussian exponential sum: support set A plus positive coefficients.

    Everything that depends on the support alone is built once per
    support, not once per sum: points given as an array take their
    :class:`.geometry.SupportSet` from one bounded, process-wide table
    (:func:`.geometry._shared_support`), keyed by the shape and exact bytes
    of the float64 points, so every sum on the same points, such as the
    reweightings of a weight study, shares its hull, vertex corners,
    Cauchy-Binet block, rank and facet-log chart terms.  The table holds at
    most 64 supports, each with at most 512 KiB of block and chart terms and
    under 32 KiB of other arrays, 34 MiB at worst.  A SupportSet passed in
    is used as it is and never enters the table.  The weights, and what
    depends on them (the balancing point and the facet-log start), stay on
    the sum.

    Parameters
    ----------
    support : SupportSet or array_like
        The exponents A, shape (k, m); a flat sequence is k points in R^1.
    coeffs : array_like, optional
        Positive weights alpha_a aligned with the support; default all ones.
    """

    def __init__(self, support, coeffs=None):
        self.support = support if isinstance(support, SupportSet) else _shared_support(support)
        k = self.support.size
        if coeffs is None:
            arr = np.ones(k)
        else:
            arr = _as_floats(coeffs, "coefficients must be real numbers").reshape(-1)
        if arr.shape[0] != k:
            raise InputError(f"{arr.shape[0]} coefficients for {k} support points")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise InputError("coefficients must be finite and strictly positive")
        self.coeffs, self.log_coeffs = _read_only(arr.copy(), np.log(arr))
        # The support's barycenter c and centred points A - c, the
        # coordinates of every kernel; read-only.
        self._c, self._points = self.support._c, self.support._centred
        # The last grid scanned in each space ("p", "x"), with its scan
        # points and the sum's part of Psi there, kept read-only by
        # :func:`.monotonicity._scan_grid`; empty until the first scan.
        self._scan_grids = {}
        # The last added exponent's cone-determinant block, kept by
        # :func:`.monotonicity._psi_many`: (a_0 bytes, M), M read-only; None
        # until the first Psi evaluation.
        self._cone_block = None

    @cached_property
    def _newton_start(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x0, mu0, lam0): the Newton start of moment-map inversion, its
        moment map (m,) about the barycenter and its softmax weights (k,),
        taken once per sum; the state of every row of
        :func:`_invert_moment_many` that does not start at the facet-log
        predictor (:attr:`_facet_start`).

        x0 is the balancing point, the x minimizing
        sum_a (<a, x> + log alpha_a - s)^2 over x and s.  There the terms'
        magnitudes are as close to equal as a least-squares fit makes them,
        so the softmax weights are spread and the metric is well
        conditioned.  It is x = 0 for unit weights.
        """
        design = np.hstack([self._points, -np.ones((self.n_terms, 1))])
        x0 = np.linalg.lstsq(design, -self.log_coeffs, rcond=None)[0][:-1]
        lam0, mu0 = _mu(self, *_softmax(self, x0[:, None])[1:])
        return _read_only(x0, mu0[:, 0], lam0[:, 0])

    @cached_property
    def _facet_start(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(S, rows, log d0): the facets of the facet-log predictor
        (:func:`_facet_log_map`), taken once per sum from the support's
        one hull (``SupportSet._hull``).

        For each of the F facets, the hull's row (n, offset) about the
        barycenter gives the inward unit normal nu = -n and h = offset, the
        least <nu, a - c>, so that d(p) = <nu, p> - h is the distance of a
        target p, taken about the barycenter, to the facet; S (F, m) is
        nu / (2 gap) and log d0 (F,) the log distance of the start's moment
        mu0 (:attr:`_newton_start`).

        None when the hull has no interior, when mu0 is not inside every
        facet, or when the predictor's Jacobian at mu0,
        J = sum_j S_j nu_j^T / d0_j, is not the inverse of 2 g(x0) (the
        start's one-column :func:`_metric`, formed here for this test alone)
        to within ``FACET_START_SHARE`` (the spectral norm of 2 g(x0) J - I,
        from an SVD only where its upper bound, the Frobenius norm, exceeds
        it).  The predictor is then not the inverse of the sum's moment map
        even at first order at the start.  With this test lifted, on 3 000 Dirichlet
        targets on each of twelve generic supports, it changed their total
        Newton rows by under 0.1 % and added about 15 % to the inversion
        time.
        """
        hull = self.support._hull
        if hull is None:
            return None
        rows, gaps = hull[1], hull[2]
        _, mu0, lam0 = self._newton_start
        nu = -rows[:, :-1]
        d0 = nu @ mu0 - rows[:, -1]
        if not np.all(d0 > 0.0):
            return None
        S = nu / (2.0 * gaps[:, None])
        G0 = _metric(self, lam0[:, None], mu0[:, None])[..., 0]
        off = 2.0 * G0 @ ((S / d0[:, None]).T @ nu) - np.eye(self.dim)
        if np.linalg.norm(off) > FACET_START_SHARE and np.linalg.norm(off, 2) > FACET_START_SHARE:
            return None
        return _read_only(S, rows, np.log(d0))

    @property
    def dim(self) -> int:
        """Ambient dimension m of the exponents."""
        return self.support.dim

    @property
    def n_terms(self) -> int:
        return self.support.size

    def __repr__(self) -> str:
        return f"ExpSum({self.support.points.tolist()!r}, {self.coeffs.tolist()!r})"

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready mapping {"dim", "support", "coeffs"}."""
        return {
            "dim": self.dim,
            "support": self.support.points.tolist(),
            "coeffs": self.coeffs.tolist(),
        }

    @classmethod
    def from_dict(cls, data) -> "ExpSum":
        """Build from the mapping produced by :meth:`to_dict`.

        ``dim`` must be an integer, as :meth:`to_dict` writes it (no float,
        bool or string); ``coeffs`` may be omitted (all ones).  Values are
        converted by the package's one rule for outside numbers
        (:func:`.geometry._as_floats`: no strings, no complex entries);
        bit-exact round trips are not promised.
        """
        if not isinstance(data, dict):
            raise InputError("expected a JSON object with 'dim' and 'support'")
        coeffs = data.get("coeffs")
        dim = data.get("dim")
        if not _is_int(dim):
            raise InputError(f"bad exponential-sum record: dim must be an integer, got {dim!r}")
        if "support" not in data:
            raise InputError("bad exponential-sum record: no 'support'")
        support = _as_floats(data["support"], "bad exponential-sum record: support must be real numbers")
        if coeffs is not None:
            coeffs = _as_floats(coeffs, "bad exponential-sum record: coeffs must be real numbers")
        if support.ndim == 1:
            support = support.reshape(-1, 1)
        if support.ndim != 2 or support.shape[1] != dim:
            raise InputError(
                f"support shape {support.shape} does not match dim = {dim}"
            )
        return cls(support, coeffs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ExpSum":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)


@dataclass(frozen=True, eq=False)
class EvalBundle:
    """Everything pointwise about an exponential sum at one x.

    Fields
    ------
    x : the evaluation point
    K : covariance sum(alpha_a^2 exp(2<a,x>)); may overflow to inf for
        extreme x — ``phi`` is the overflow-safe carrier
    phi : potential (1/2) log K
    weights : softmax weights lambda_a (probability vector over A)
    mu : moment map, the weighted barycenter sum lambda_a a
    g : the metric, the lambda-weighted covariance of A about mu; its dual
        form, where it has one, is ``geometry.dual_form(g)``
    density : expected-zero density (2/s_m) sqrt(det g), from :func:`density`
    """

    x: np.ndarray
    K: float
    phi: float
    weights: np.ndarray
    mu: np.ndarray
    g: QuadForm
    density: float


# -- the batched kernel (grid scans, quadrature, and the scalar API) -------


def _potential(E: ExpSum, X: np.ndarray, top: np.ndarray, total: np.ndarray) -> np.ndarray:
    """phi = (1/2) log K at each row of X from its softmax (top, total):
    the log-sum-exp on the centred points plus <c, x>, which the centring
    took out."""
    return top + 0.5 * np.log(total) + X @ E._c


def _softmax(E: ExpSum, X: np.ndarray):
    """(top = max T, W = exp(2 (T - top)), sum W) with
    T = <a - c, x> + log alpha_a, on the centred points, at each column x of
    the coordinate-major X (m, N), terms-major: W is (k, N), so the max and
    the sum over the k terms run along the long axis of N points.  Callers
    that hold points as rows pass ``X.T``."""
    T = E._points @ X
    T += E.log_coeffs[:, None]
    top = T.max(axis=0)
    T -= top
    T *= 2.0
    W = np.exp(T, out=T)
    return top, W, W.sum(axis=0)


def _moments(E: ExpSum, W: np.ndarray, total: np.ndarray):
    """(lam, mu, G) from the softmax (W, total), coordinate-major: lam
    (k, N), mu (m, N) about the barycenter and G (m, m, N), so every entry
    is a contiguous row of N points.  (The potential is :func:`_potential`,
    from the log-sum-exp that gives the weights.)

    lam = W / total is written over W, which the caller gives up, and mu is
    one (m, k)@(k, N) product (:func:`_mu`); G is :func:`_metric` of them.
    """
    lam, mu = _mu(E, W, total)
    return lam, mu, _metric(E, lam, mu)


def _mu(E: ExpSum, W: np.ndarray, total: np.ndarray):
    """(lam, mu) of :func:`_moments`, with no metric: lam = W / total,
    written over W, and mu = (A - c)^T lam."""
    lam = np.divide(W, total, out=W)
    return lam, E._points.T @ lam


def _metric(E: ExpSum, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The metric G (m, m, N) at each column of (lam, mu), the one place G
    is formed: G_ij = sum_a lam_a C_ia C_ja of the centred support
    C = a - mu (m, k, N), one three-operand einsum over the terms for all N
    points at once, with no (m, k, N) product of C and lam held, which
    keeps the Newton loop's peak low (see :func:`_invert_moment_many`).
    The einsum has no BLAS call, so a column's G does not depend on its
    batch.  G is not symmetrized: the Cholesky factorization reads its
    lower triangle and :class:`.QuadForm` symmetrizes it.  No determinant
    is taken of it."""
    C = E._points.T[:, :, None] - mu[:, None, :]
    return np.einsum("ikn,kn,jkn->ijn", C, lam, C)


def _det_g(E: ExpSum, W: np.ndarray, total: np.ndarray):
    """det g at each column of the softmax (W, total); 0 where it
    underflows.

    By Cauchy-Binet (Horn & Johnson, Matrix Analysis, 0.8.7), det g is the
    sum over (m+1)-subsets S of A of prod_S lambda_a D_S^2, with no
    cancellation: total^(m+1) det g is :func:`_simplex_sum` of the softmax
    weights with the block ``E.support._simplex_form``, which holds each
    subset once.  det g is their plain ratio: W <= 1 and total lies in
    [1, k], so neither the sum nor total^(m+1) overflows.
    """
    return _simplex_sum(W, E.support._simplex_form, E.dim) / total ** (E.dim + 1)


def _sorted_products(W: np.ndarray, r: int, out: np.ndarray | None = None) -> np.ndarray:
    """prod_t W over the sorted r-tuples t of W's rows (k, N), r >= 1, in
    lexicographic order: shape (C(k, r), N), written to ``out`` if given.
    W itself for r = 1; for r >= 2 by row slices, one product per first
    index i: the r-tuples that start at i are i followed by the last
    C(k-1-i, r-1) rows of the (r-1)-tuple products, those that start above i."""
    if r == 1:
        return W
    k, N = W.shape
    prev = _sorted_products(W, r - 1)
    R = np.empty((math.comb(k, r), N)) if out is None else out
    row = 0
    for i in range(k - r + 1):
        tail = math.comb(k - 1 - i, r - 1)
        np.multiply(W[i], prev[len(prev) - tail:], out=R[row:row + tail])
        row += tail
    return R


def _simplex_sum(W: np.ndarray, B: np.ndarray, m: int) -> np.ndarray:
    """sum over S of D_S^2 prod_S W at each column of the terms-major W
    (k, N), from the Cauchy-Binet block B (``SupportSet._simplex_form``),
    which splits each S once into its lowest pair a < b and the (m-1)-tuple
    t of the rest: sum over t of R_t (B^T @ P)_t, with P the products of
    the pairs of W[:k-m+1] and R those of the sorted (m-1)-tuples of W[2:]
    (:func:`_sorted_products`; one row of ones for m = 1, W[2:] for m = 2).

    One GEMM of C(k-m+1, 2) C(k-2, m-1) multiply-adds per column, whose
    output Z has C(k-2, m-1) rows.  P, Z and R share one allocation: as the
    call's largest array it keeps glibc's dynamic trim threshold above the
    call's other temporaries, which would otherwise be handed back to the
    kernel and page-faulted in again on every call.
    """
    pairs, tuples = B.shape
    work = np.empty((pairs + 2 * tuples, W.shape[1]))
    P = _sorted_products(W[:max(len(W) - m + 1, 0)], 2, out=work[:pairs])
    Z = np.matmul(B.T, P, out=work[pairs:pairs + tuples])
    if m == 1:
        return Z[0]
    return np.einsum("tn,tn->n", _sorted_products(W[2:], m - 1, out=work[pairs + tuples:]), Z)


def _density(E: ExpSum, W: np.ndarray, total: np.ndarray) -> np.ndarray:
    """(2/s_m) sqrt(det g) at each column of the softmax (W, total)."""
    return (2.0 / ball_sphere_constants(E.dim)[1]) * np.sqrt(_det_g(E, W, total))


def density_many(E: ExpSum, X) -> np.ndarray:
    """Expected-zero density (2/s_m) sqrt(det g), one value per row of X
    (shape (N, m)), from the Cauchy-Binet kernel :func:`_det_g`;
    InputError for k support points in R^m whose block,
    C(k-m+1, 2) C(k-2, m-1) entries, is past ``geometry.SIMPLEX_FORM_LIMIT``.
    The kernel reads X coordinate-major, so the transposed view of an
    (m, N) array, as the quadrature cells pass it, costs no copy."""
    X = np.atleast_2d(_as_floats(X, "points must give real numbers"))
    if X.shape[1] != E.dim:
        raise InputError(f"points have dimension {X.shape[1]}, expected {E.dim}")
    _, W, total = _softmax(E, X.T)
    return _density(E, W, total)


# -- the scalar API: the batched kernel on one row ---------------------------


def potential(E: ExpSum, x) -> float:
    """The potential Phi(x) = (1/2) log K(x): the batched kernel's
    log-sum-exp (:func:`_softmax`, :func:`_potential`) on one row, with no
    moments or metric."""
    x = _check_vector(x, E.dim, "x")
    top, _, total = _softmax(E, x[:, None])
    return float(_potential(E, x[None], top, total)[0])


def evaluate(E: ExpSum, x) -> EvalBundle:
    """Compute the full pointwise bundle at x (overflow-safe): the batched
    kernels on one row.

    No dual form is taken here; callers that read one pass ``g`` to
    :func:`.geometry.dual_form`, which decides whether it exists.
    """
    x = _check_vector(x, E.dim, "x")
    top, W, total = _softmax(E, x[:, None])
    density = float(_density(E, W, total)[0])
    lam, mu, G = _moments(E, W, total)
    phi = float(_potential(E, x[None], top, total)[0])
    with np.errstate(over="ignore"):
        K = float(np.exp(2.0 * phi))
    return EvalBundle(
        x=x, K=K, phi=phi, weights=lam[:, 0], mu=mu[:, 0] + E._c, g=QuadForm(G[..., 0]), density=density
    )


def density(E: ExpSum, x) -> float:
    """Expected-zero density (2/s_m) sqrt(det g) at x: :func:`density_many`
    on one row."""
    x = _check_vector(x, E.dim, "x")
    return float(density_many(E, x[None])[0])


# -- moment-map inversion ---------------------------------------------------


def invert_moment(E: ExpSum, p) -> np.ndarray:
    """Solve mu(x) = p for x by damped Newton iteration: the batched
    kernel on one row.

    The moment map is a diffeomorphism onto the interior of the Newton
    polytope; the Jacobian of mu is 2 g.  Starts at the facet-log predictor
    where that passes the start rule of :func:`_invert_moment_many`, else
    at the balancing point of the weights, and halves the step whenever
    the residual would not decrease.  The residual is the one of every
    inversion, ``INVERT_TOL`` (1 + diam P) (:func:`_invert_moment_many`).

    Raises DomainError for p outside the interior (with margin
    ``INVERT_MARGIN`` (1 + diam P)) and ConvergenceError (carrying the last
    iterate and its residual) when the residual is not reached: past
    ``INVERT_MAX_ITER`` iterations, on a stalled line search, or where the
    Cholesky factorization of the metric fails.
    """
    p = _check_vector(p, E.dim, "p")
    if E.support.degenerate:
        raise DegenerateMetricError("support is not full-dimensional; moment map is not open")
    margin = INVERT_MARGIN * (1.0 + diameter(E.support))
    if not interior_contains(E.support, p, margin):
        raise DomainError(f"target {p.tolist()} is not interior to the Newton polytope")
    q = p - E._c
    X, ok = _invert_moment_many(E, q[None])
    if not ok[0]:
        residual = float(np.linalg.norm(_mu(E, *_softmax(E, X.T)[1:])[1][:, 0] - q))
        message = f"damped Newton stopped at residual {residual:.3e}"
        raise ConvergenceError(message, value=X[0], residual=residual)
    return X[0]


def _invert_moment_many(E: ExpSum, P: np.ndarray):
    """Vectorized damped Newton for many interior targets at once, each row
    of P a target relative to the barycenter, as the kernels' mu is.

    Returns (X, ok) where ok flags rows whose residual |mu(x) - p| reached
    ``INVERT_TOL`` (1 + diam P), the one residual rule, within
    ``INVERT_MAX_ITER`` iterations.  Each held row carries its state
    coordinate-major: x, p and mu as (m, n), the softmax weights lam as
    (k, n) and the squared residual r2 as (n,).

    Rows already within the residual at the balancing point x0 are done
    there.  Every other row starts at the facet-log predictor x_hat
    (:func:`_facet_log_map`) where the sum has one (``_facet_start``: a
    hull with interior and a predictor whose Jacobian at the start is right
    to ``FACET_START_SHARE``), mu(x_hat) is closer to p than mu0 is, and
    |mu(x_hat) - p| is at most ``FACET_START_SHARE`` of p's least facet
    distance; the rest start at (x0, mu0, lam0) (``_newton_start``), as
    without a predictor.  The starts are checked on mu alone (:func:`_mu`),
    and the predictor's own arrays hold the start state.  The predictor is
    exact on the canonical toric sums (two-term, Kostlan box and simplex
    sums, their reweightings and affine images), whose rows all settle at
    their start.  A start that merely brings mu closer is not safe: near a
    small facet gap x_hat can sit where the metric saturates and Newton
    stalls.

    The start is the loop's first iterate: a row is done once it meets the
    residual rule, has no accepted step or fails its factorization, the
    last two as failed, and the start counts as an accepted step.  A done
    row is written out in the iteration it is done and stops being held: it
    takes a zero step from then on, and done rows are packed away only once
    they make up at least half of the arrays.  Packing them away in the
    iteration they are done, as the Monte-Carlo Newton loop does, gives the
    same bits and no gain: on Dirichlet(0.05) targets on a weighted
    pentagon and a weighted unit cube it was 5-15 % slower on batches of
    300 (one BLAS thread, best of 9), and within noise on batches of 2 000,
    about a quadrature pass, and on eight normal points in R^2.  Each
    iteration forms the metric (:func:`_metric`) of the arrays it holds,
    once, and solves 2 g delta = p - mu on them by one stacked Cholesky
    factor-and-solve (:func:`._cholesky_solve`); it halves the step (at
    most 44 times) only on the held rows whose residual did not fall.
    Trials and backtracks take the weights and mu alone, so no start, trial
    or backtrack forms a metric, and a batch whose rows all settle at their
    start forms none.
    No interior check is performed here — callers own the masking.

    A row settled at the balancing point or at the predicted start keeps
    that start's bits in any batch (the predictor is summed without BLAS).
    A Newton row's bits depend on its batch, through the BLAS products in
    :func:`_softmax` and :func:`_mu`, which round by batch size.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    p = np.ascontiguousarray(P.T)
    x0, mu0, lam0 = E._newton_start
    X = np.repeat(x0[None], P.shape[0], axis=0)
    res2 = ((mu0[:, None] - p) ** 2).sum(axis=0)
    tol2 = (INVERT_TOL * (1.0 + diameter(E.support))) ** 2
    far = res2 > tol2
    idx = np.flatnonzero(far)
    p, r2 = p.compress(far, axis=1), res2.compress(far)
    n = idx.size
    if n == 0:
        return X, res2 <= tol2
    if E._facet_start is not None:
        x, d = _facet_log_map(E, p)
        lam, mu = _mu(E, *_softmax(E, x)[1:])
        r2_t = ((mu - p) ** 2).sum(axis=0)
        # A target on or past a facet (least distance not positive) keeps x0.
        d_min = np.maximum(d.min(axis=0), 0.0)
        take = (r2_t < r2) & (r2_t <= (FACET_START_SHARE * d_min) ** 2)
        for new, start in ((x, x0), (mu, mu0), (lam, lam0)):
            np.copyto(new, start[:, None], where=~take)
        np.copyto(r2, r2_t, where=take)
    else:
        x, mu, lam = (np.repeat(start[:, None], n, axis=1) for start in (x0, mu0, lam0))

    def write(done, x, r2):
        # The rows done among those held (idx), from their coordinate-major
        # iterates x and residuals r2: one 1-D scatter per coordinate,
        # several times faster than one scatter of rows of m floats.
        out = idx.compress(done)
        for column, values in zip(X.T, x.compress(done, axis=1)):
            column[out] = values
        res2[out] = r2.compress(done)

    held = np.ones(n, dtype=bool)
    accepted = True  # every row's start counts as its first accepted step
    for iteration in range(INVERT_MAX_ITER + 1):
        done = held & ~(accepted & (r2 > tol2))
        if done.any():
            write(done, x, r2)
            held ^= done  # done rows are held rows
            n = np.count_nonzero(held)
            if 2 * n <= held.size:
                idx, x, p, mu, lam, r2 = (a.compress(held, axis=-1) for a in (idx, x, p, mu, lam, r2))
                held = np.ones(n, dtype=bool)
        if n == 0 or iteration == INVERT_MAX_ITER:
            break
        delta, ok = _cholesky_solve(_metric(E, lam, mu), p - mu)
        ok &= held
        delta = np.where(ok, 0.5 * delta, 0.0)
        trial = x + delta
        lam_t, mu_t = _mu(E, *_softmax(E, trial)[1:])
        r2_t = ((mu_t - p) ** 2).sum(axis=0)
        accepted = ok & (r2_t < r2)
        stay = held & ~accepted
        todo = ()
        if stay.any():
            for new, old in ((trial, x), (mu_t, mu), (lam_t, lam), (r2_t, r2)):
                np.copyto(new, old, where=stay)
            # Backtrack only the held rows whose full step did not lower the residual.
            todo = np.flatnonzero(ok & stay)
        x, mu, lam, r2 = trial, mu_t, lam_t, r2_t
        step = 1.0
        for _ in range(44):
            if len(todo) == 0:
                break
            step *= 0.5
            trial = x[:, todo] + step * delta[:, todo]
            lam_t, mu_t = _mu(E, *_softmax(E, trial)[1:])
            r2_t = ((mu_t - p[:, todo]) ** 2).sum(axis=0)
            better = r2_t < r2[todo]
            sub = todo[better]
            x[:, sub], mu[:, sub], lam[:, sub] = trial[:, better], mu_t[:, better], lam_t[:, better]
            r2[sub] = r2_t[better]
            accepted[sub] = True
            todo = todo[~better]
    write(held, x, r2)
    return X, res2 <= tol2


def _facet_log_map(E: ExpSum, p: np.ndarray):
    """(x_hat, d): the facet-log map at each column of p (m, n), relative
    to the barycenter, and the facet distances d (F, n) it reads: its
    support part (:func:`_facet_distances`) and its weights part
    (:func:`_facet_log_x`).

    x_hat = x0 + (1/2) sum_j (nu_j / gap_j) (log d_j(p) - log d_j(mu0)) is
    the gradient of Guillemin's symplectic potential (1/2) sum_j l_j log l_j,
    l_j = d_j / gap_j, moved to pass through the start (x0, mu0)
    (``E._facet_start``).  It inverts the moment map of the canonical toric
    sums exactly and has the right slope along every facet.  A column with
    a facet distance that is not positive (a target on or past a facet
    through rounding) gets x0; its callers read that from d.
    """
    d, log_d = _facet_distances(E._facet_start[1], p)
    return _facet_log_x(E, log_d, ~(d.min(axis=0) > 0.0)), d


def _facet_distances(rows: np.ndarray, p: np.ndarray):
    """(d, log d) of the facet-log map at each column of p (m, n): the
    distances d = -slack (F, n) to the hull's facet rows
    (:func:`.geometry._facet_slack`, the interior test's loop, without
    BLAS, so a column's distances do not depend on its batch) and their
    logs, which depend on the support alone; -inf or NaN where a distance
    is not positive."""
    d = _facet_slack(rows, p)
    np.negative(d, out=d)
    with np.errstate(divide="ignore", invalid="ignore"):
        return d, np.log(d)


def _facet_log_x(E: ExpSum, log_d: np.ndarray, on_facet: np.ndarray) -> np.ndarray:
    """x_hat of :func:`_facet_log_map` from the log distances (F, n) of
    :func:`_facet_distances`, the part of the map that reads the weights:
    x0 plus S_j (log d_j - log d0_j) summed over the facets in row order,
    one outer product each, without BLAS, so a column's x_hat does not
    depend on its batch; x0 where ``on_facet`` (n,) is set."""
    S, _, log_d0 = E._facet_start
    x0 = E._newton_start[0][:, None]
    x_hat = np.repeat(x0, log_d.shape[1], axis=1)
    with np.errstate(invalid="ignore"):
        rel = log_d - log_d0[:, None]
        for j in range(len(S)):
            x_hat += np.multiply.outer(S[j], rel[j])
    np.copyto(x_hat, x0, where=on_facet)
    return x_hat


# -- polytope-side density --------------------------------------------------


def _legendre_density_many(E: ExpSum, Q: np.ndarray) -> np.ndarray:
    """1/sqrt(det 2g) at the moment preimage of each row of Q, a target
    relative to the support's barycenter (``E._c``); NaN where the
    inversion fails.  The inversion is :func:`_invert_moment_many`'s, at
    its one residual.  No interior check is performed here.
    """
    X, ok = _invert_moment_many(E, Q)
    det = _det_g(E, *_softmax(E, X.T)[1:])
    return 1.0 / np.sqrt(2.0**E.dim * np.where(ok, det, np.nan))


def legendre_density(E: ExpSum, p) -> float:
    """Density of the polytope-side volume form at an interior point p:
    1/sqrt(det 2 g) at x = :func:`invert_moment` (E, p), from :func:`_det_g`
    on that one row, the value of :func:`_legendre_density_many` bit for bit.

    It is the square-rooted Hessian determinant of the convex conjugate of
    the potential.  The inversion is the moment route's, at its one residual
    ``INVERT_TOL`` (1 + diam P): at distance d from a facet the value keeps a
    relative error of about ``INVERT_TOL`` (1 + diam P) / (2 d).  Raises what
    :func:`invert_moment` raises: DegenerateMetricError for a support that
    is not full-dimensional, DomainError for p within ``INVERT_MARGIN``
    (1 + diam P) of the boundary, where the value diverges, and
    ConvergenceError, with the last iterate and its residual, for a failed
    inversion; and ConvergenceError where det g underflows at x, so the
    value is not finite.
    """
    x = invert_moment(E, p)
    det = _det_g(E, *_softmax(E, x[:, None])[1:])
    if not det[0] > 0.0:
        raise ConvergenceError(f"det g underflows at the preimage {x.tolist()}", value=x)
    return float(1.0 / np.sqrt(2.0**E.dim * det)[0])


# -- asymptotics ------------------------------------------------------------


def asymptotic_moment(E: ExpSum, x_dir) -> np.ndarray:
    """Limit of mu(t x_dir) as t grows: the face barycenter weighted by
    alpha_a^2 over the exposed face A^{x_dir}."""
    x_dir = _check_vector(x_dir, E.dim, "x_dir")
    if np.linalg.norm(x_dir) == 0.0:
        raise InputError("x_dir must be nonzero")
    mask = _face_mask(E.support, x_dir)[0]
    sq = E.coeffs[mask] ** 2
    return (sq / sq.sum()) @ E.support.points[mask]


def face_metric_limit(E: ExpSum, x_dir, y) -> QuadForm:
    """Limit of the metric along y + t x_dir: the metric of the sum
    restricted to the exposed face (A^{x_dir}, alpha^{x_dir}), at y.

    The restricted metric is constant along x_dir itself, so y only
    matters through its component transverse to the ray.
    """
    x_dir = _check_vector(x_dir, E.dim, "x_dir")
    if np.linalg.norm(x_dir) == 0.0:
        raise InputError("x_dir must be nonzero")
    y = _check_vector(y, E.dim, "y")
    mask = _face_mask(E.support, x_dir)[0]
    restricted = ExpSum(E.support.points[mask], E.coeffs[mask])
    return evaluate(restricted, y).g
