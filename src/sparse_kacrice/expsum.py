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
:func:`_log_det` a cancellation-free log det g for every density.
:func:`_batch_moments` returns the moments per row, shape (N, ...), as
transposed views.  :func:`_invert_moment_many` inverts the
moment map for many targets by damped Newton in the kernel's own layout:
x, p and mu are (m, N) and g is (m, m, N), so one stacked Cholesky
factor-and-solve (:mod:`.geometry`) works on contiguous rows with no
per-matrix LAPACK call.  Every target starts at the sum's cached
balancing point; a row is written out in the iteration it converges or
fails, and done rows are packed away only once they are half of those
held, so most iterations copy nothing.  The scalar API (:func:`potential`,
:func:`evaluate`, :func:`density`, :func:`invert_moment`) is these kernels
on one row, so a scalar call and a one-row batch give the same numbers bit
for bit; :func:`evaluate` takes g and the density from one softmax and
forms no dual: the dual form and its gate are :func:`.geometry.dual_form`,
called only where a dual is read.

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
    _check_vector,
    _cholesky_solve,
    _face_mask,
    _is_int,
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
]

#: Default interior margin for moment-map inversion, scaled by (1 + diam P).
INVERT_MARGIN = 1e-9

#: Newton iterations of moment-map inversion before a row counts as failed.
INVERT_MAX_ITER = 80

#: Points closer than this fraction of diam(P) to the polytope boundary are
#: rejected by legendre_density (the metric blows up at the faces).
LEGENDRE_MARGIN = 1e-6

#: Moment residual of every moment-map inversion, scaled by (1 + diam P) and
#: measured on the centred copy ``ExpSum._centred``: a preimage of a point at
#: distance d from a facet keeps a relative error near INVERT_TOL / d.
INVERT_TOL = 1e-14


class ExpSum:
    """A Gaussian exponential sum: support set A plus positive coefficients.

    Parameters
    ----------
    support : SupportSet or array_like
        The exponents A, shape (k, m); a flat sequence is k points in R^1.
    coeffs : array_like, optional
        Positive weights alpha_a aligned with the support; default all ones.
    """

    def __init__(self, support, coeffs=None):
        self.support = support if isinstance(support, SupportSet) else SupportSet(support)
        k = self.support.size
        if coeffs is None:
            arr = np.ones(k)
        else:
            arr = np.asarray(coeffs, dtype=float).reshape(-1)
        if arr.shape[0] != k:
            raise InputError(f"{arr.shape[0]} coefficients for {k} support points")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise InputError("coefficients must be finite and strictly positive")
        arr = arr.copy()
        arr.flags.writeable = False
        self.coeffs = arr
        log_coeffs = np.log(arr)
        log_coeffs.flags.writeable = False
        self.log_coeffs = log_coeffs

    @cached_property
    def _centred(self) -> tuple[np.ndarray, "ExpSum"]:
        """(c, the sum on A - c), c the barycenter of A: built once per sum,
        the one copy on which the moment map is inverted.  Translation keeps
        the softmax weights and preimages and moves mu by -c, which on the
        copy carries eps * diam(P) of rounding, not eps * |a|.  Targets are
        translated once, on the way in, never back; densities read E's own
        Cauchy-Binet block (D_S is translation-invariant).  The copy is its
        own centred copy, with c = 0."""
        c = self.support.points.mean(axis=0)
        copy = ExpSum(self.support.points - c, self.coeffs)
        copy._centred = (np.zeros_like(c), copy)
        return c, copy

    @cached_property
    def _newton_start(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x0, mu0, G0): the Newton start of moment-map inversion and its
        moment map (m,) and metric (m, m), taken once per sum; read on the
        centred copy (:func:`_invert_moment_many`).

        x0 is the balancing point, the x minimizing
        sum_a (<a, x> + log alpha_a - c)^2 over x and c.  There the terms'
        magnitudes are as close to equal as a least-squares fit makes them,
        so the softmax weights are spread and the metric is well
        conditioned.  It is x = 0 for unit weights.
        """
        design = np.hstack([self.support.points, -np.ones((self.n_terms, 1))])
        x0 = np.linalg.lstsq(design, -self.log_coeffs, rcond=None)[0][:-1]
        _, mu0, G0 = _moments(self, *_softmax(self, x0[:, None])[1:])
        start = (x0, mu0[:, 0], G0[..., 0])
        for array in start:
            array.flags.writeable = False
        return start

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
        parsed as doubles; bit-exact round trips are not promised.
        """
        if not isinstance(data, dict):
            raise InputError("expected a JSON object with 'dim' and 'support'")
        coeffs = data.get("coeffs")
        dim = data.get("dim")
        if not _is_int(dim):
            raise InputError(f"bad exponential-sum record: dim must be an integer, got {dim!r}")
        try:
            support = np.asarray(data["support"], dtype=float)
            if coeffs is not None:
                coeffs = np.asarray(coeffs, dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad exponential-sum record: {exc}") from exc
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


def _batch_moments(E: ExpSum, X: np.ndarray):
    """Potential, softmax weights, moment map, and metric at each row of X:
    :func:`_moments` of the terms-major :func:`_softmax`.

    Returns (phi (N,), lam (N, k), mu (N, m), G (N, m, m)), transposed views
    of the (k, N), (m, N) and (m, m, N) arrays the kernel works on.
    """
    top, W, total = _softmax(E, X.T)
    lam, mu, G = _moments(E, W, total)
    return top + 0.5 * np.log(total), lam.T, mu.T, G.transpose(2, 0, 1)


def _softmax(E: ExpSum, X: np.ndarray):
    """(top = max T, W = exp(2 (T - top)), sum W) with T = <a, x> + log alpha_a
    at each column x of the coordinate-major X (m, N), terms-major: W is
    (k, N), so the max and the sum over the k terms run along the long axis
    of N points.  Callers that hold points as rows pass ``X.T``."""
    T = E.support.points @ X
    T += E.log_coeffs[:, None]
    top = T.max(axis=0)
    T -= top
    T *= 2.0
    W = np.exp(T, out=T)
    return top, W, W.sum(axis=0)


def _moments(E: ExpSum, W: np.ndarray, total: np.ndarray):
    """(lam, mu, G) from the softmax (W, total), coordinate-major: lam
    (k, N), mu (m, N) and G (m, m, N), so every entry is a contiguous row of
    N points.  (The potential phi = (1/2) log K is top + (1/2) log total, from
    the log-sum-exp that gives the weights.)

    lam = W / total is written over W, which the caller gives up; mu is one
    (m, k)@(k, N) product, and the metric G_ij = sum_a lam_a C_ia C_ja of the
    centred support C = a - mu (m, k, N) is one three-operand einsum over the
    terms for all N points at once, with no (m, k, N) product of C and lam
    held.  Both keep the Newton loop's peak low (see
    :func:`_invert_moment_many`).  G is not symmetrized: the Cholesky
    factorization reads its lower triangle and :class:`.QuadForm`
    symmetrizes it.  No determinant is taken of it.
    """
    points = E.support.points.T
    lam = np.divide(W, total, out=W)
    mu = points @ lam
    C = points[:, :, None] - mu[:, None, :]
    G = np.einsum("ikn,kn,jkn->ijn", C, lam, C)
    return lam, mu, G


def _log_det(E: ExpSum, W: np.ndarray, total: np.ndarray):
    """log det g at each column of the softmax (W, total); -inf where det g
    underflows.

    By Cauchy-Binet (Horn & Johnson, Matrix Analysis, 0.8.7), det g is the
    sum over (m+1)-subsets S of A of prod_S lambda_a D_S^2, with no
    cancellation: total^(m+1) det g is :func:`_simplex_sum` of the softmax
    weights with the block ``E.support._simplex_form``, which holds each
    subset once.
    """
    with np.errstate(divide="ignore"):
        log_sum = np.log(_simplex_sum(W, E.support._simplex_form, E.dim))
    return log_sum - (E.dim + 1) * np.log(total)


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
    (k, N), from the Cauchy-Binet block B (``SupportSet._simplex_form``):
    sum over pairs i < j of W_i W_j (B @ R)_ij, with R the products of W over
    sorted (m-1)-tuples (:func:`_sorted_products`; one row of ones for
    m = 1, W for m = 2, the pair products for m = 3).

    It is taken as sum_t R_t (B^T @ P)_t, with P the pair products: one GEMM
    of C(k, 2) C(k, m-1) multiply-adds per column, whose output Z has
    C(k, m-1) rows, not C(k, 2).  P and Z share one allocation: as the
    call's largest array it keeps glibc's dynamic trim threshold above the
    call's other temporaries, which would otherwise be handed back to the
    kernel and page-faulted in again on every call.
    """
    pairs, tuples = B.shape
    work = np.empty((pairs + tuples, W.shape[1]))
    P = _sorted_products(W, 2, out=work[:pairs])
    Z = np.matmul(B.T, P, out=work[pairs:])
    if m == 1:
        return Z[0]
    return np.einsum("tn,tn->n", P if m == 3 else _sorted_products(W, m - 1), Z)


def _density(E: ExpSum, W: np.ndarray, total: np.ndarray) -> np.ndarray:
    """(2/s_m) sqrt(det g) at each column of the softmax (W, total)."""
    _, s_m = ball_sphere_constants(E.dim)
    return (2.0 / s_m) * np.exp(0.5 * _log_det(E, W, total))


def density_many(E: ExpSum, X) -> np.ndarray:
    """Expected-zero density (2/s_m) sqrt(det g), one value per row of X
    (shape (N, m)), from the Cauchy-Binet kernel :func:`_log_det`;
    InputError for k support points in R^m whose block, C(k, 2) C(k, m-1)
    entries, is past ``geometry.SIMPLEX_FORM_LIMIT``.  The kernel reads X
    coordinate-major, so the transposed view of an (m, N) array, as the
    quadrature cells pass it, costs no copy."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != E.dim:
        raise InputError(f"points have dimension {X.shape[1]}, expected {E.dim}")
    _, W, total = _softmax(E, X.T)
    return _density(E, W, total)


# -- the scalar API: the batched kernel on one row ---------------------------


def potential(E: ExpSum, x) -> float:
    """The potential Phi(x) = (1/2) log K(x): the batched kernel on one row."""
    x = _check_vector(x, E.dim, "x")
    return float(_batch_moments(E, x[None])[0][0])


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
    phi = float((top + 0.5 * np.log(total))[0])
    with np.errstate(over="ignore"):
        K = float(np.exp(2.0 * phi))
    return EvalBundle(
        x=x, K=K, phi=phi, weights=lam[:, 0], mu=mu[:, 0], g=QuadForm(G[..., 0]), density=density
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
    polytope; the Jacobian of mu is 2 g.  Starts at the balancing point
    of the weights and halves the step whenever the residual would not
    decrease.  The residual is the one of every inversion,
    ``INVERT_TOL`` (1 + diam P) (:func:`_invert_moment_many`).

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
    X, ok = _invert_moment_many(E, p[None])
    if not ok[0]:
        c, centred = E._centred
        residual = float(np.linalg.norm(_batch_moments(centred, X)[2][0] - (p - c)))
        message = f"damped Newton stopped at residual {residual:.3e}"
        raise ConvergenceError(message, value=X[0], residual=residual)
    return X[0]


def _invert_moment_many(E: ExpSum, P: np.ndarray):
    """Vectorized damped Newton for many interior targets at once, on ``E._centred``.

    Returns (X, ok) where ok flags rows whose residual |mu(x) - p| on the
    centred copy reached ``INVERT_TOL`` (1 + diam P), the one residual rule,
    within ``INVERT_MAX_ITER`` iterations.  The rows are kept
    coordinate-major: x, p and mu as (m, n) and the metric G as (m, m, n).
    Each iteration solves 2 g delta = p - mu on every row by one stacked
    Cholesky factor-and-solve (:func:`._cholesky_solve`) and halves the step
    (at most 44 times) only on the held rows whose residual did not fall.
    A row is done once it converges, has no accepted step or fails its
    factorization, the last two as failed.  It is written out in the
    iteration it is done and stops being held: it takes a zero step from
    then on, and done rows are packed away only once they make up at least
    half of the arrays.  No interior check is performed here — callers own
    the masking.
    """
    c, E = E._centred
    P = np.atleast_2d(np.asarray(P, dtype=float))
    p = np.subtract(P.T, c[:, None], order="C")
    x0, mu0, G0 = E._newton_start
    X = np.tile(x0, (P.shape[0], 1))
    res2 = ((mu0[:, None] - p) ** 2).sum(axis=0)
    tol2 = (INVERT_TOL * (1.0 + diameter(E.support))) ** 2
    far = res2 > tol2
    idx = np.flatnonzero(far)
    n = idx.size
    p, r2 = p.compress(far, axis=1), res2.compress(far)
    x, mu = np.repeat(x0[:, None], n, axis=1), np.repeat(mu0[:, None], n, axis=1)
    G = np.repeat(G0[:, :, None], n, axis=2)
    held = np.ones(n, dtype=bool)
    for _ in range(INVERT_MAX_ITER):
        if n == 0:
            break
        delta, ok = _cholesky_solve(G, p - mu)
        ok &= held
        delta = np.where(ok, 0.5 * delta, 0.0)
        trial = x + delta
        _, mu_t, G_t = _moments(E, *_softmax(E, trial)[1:])
        r2_t = ((mu_t - p) ** 2).sum(axis=0)
        accepted = ok & (r2_t < r2)
        stay = held & ~accepted
        if stay.any():
            for new, old in ((trial, x), (mu_t, mu), (G_t, G), (r2_t, r2)):
                np.copyto(new, old, where=stay)
        x, mu, G, r2 = trial, mu_t, G_t, r2_t
        # Backtrack only the held rows whose full step did not lower the residual.
        todo = np.flatnonzero(ok & stay)
        step = 1.0
        for _ in range(44):
            if todo.size == 0:
                break
            step *= 0.5
            trial = x[:, todo] + step * delta[:, todo]
            _, mu_t, G_t = _moments(E, *_softmax(E, trial)[1:])
            r2_t = ((mu_t - p[:, todo]) ** 2).sum(axis=0)
            better = r2_t < r2[todo]
            sub = todo[better]
            x[:, sub], mu[:, sub], G[..., sub] = trial[:, better], mu_t[:, better], G_t[..., better]
            r2[sub] = r2_t[better]
            accepted[sub] = True
            todo = todo[~better]
        done = held & ~(accepted & (r2 > tol2))
        if not done.any():
            continue
        out = idx.compress(done)
        X[out], res2[out] = x.compress(done, axis=1).T, r2.compress(done)
        held &= ~done
        n = np.count_nonzero(held)
        if 2 * n <= held.size:
            idx, x, p, mu, G, r2 = (a.compress(held, axis=-1) for a in (idx, x, p, mu, G, r2))
            held = np.ones(n, dtype=bool)
    out = idx.compress(held)
    X[out], res2[out] = x.compress(held, axis=1).T, r2.compress(held)
    return X, res2 <= tol2


# -- polytope-side density --------------------------------------------------


def _legendre_density_many(E: ExpSum, Q: np.ndarray) -> np.ndarray:
    """1/sqrt(det 2g) at the moment preimage of each row of Q, a target
    relative to the support's barycenter (``E._centred``); NaN where the
    inversion fails.  The inversion is :func:`_invert_moment_many`'s, at
    its one residual.  No interior check is performed here.
    """
    centred = E._centred[1]
    X, ok = _invert_moment_many(centred, Q)
    _, W, total = _softmax(centred, X.T)
    log_det = _log_det(E, W, total)
    return np.where(ok, np.exp(-0.5 * (log_det + E.dim * math.log(2.0))), np.nan)


def legendre_density(E: ExpSum, p) -> float:
    """Density of the polytope-side volume form at an interior point p.

    Equals 1/sqrt(det 2 g) at the moment preimage x of p — the square-rooted
    Hessian determinant of the convex conjugate of the potential — by the
    same inversion as the moment route.  Points within ``1e-6 * diam(P)``
    of the boundary are rejected (DomainError): the value diverges there.
    A failed inversion raises ConvergenceError.
    """
    p = _check_vector(p, E.dim, "p")
    margin = LEGENDRE_MARGIN * diameter(E.support)
    if margin == 0.0 or not interior_contains(E.support, p, margin):
        raise DomainError(f"{p.tolist()} is outside the interior margin of the polytope")
    value = float(_legendre_density_many(E, (p - E._centred[0])[None, :])[0])
    if not math.isfinite(value):
        raise ConvergenceError(f"moment inversion failed at {p.tolist()}")
    return value


# -- asymptotics ------------------------------------------------------------


def asymptotic_moment(E: ExpSum, x_dir) -> np.ndarray:
    """Limit of mu(t x_dir) as t grows: the face barycenter weighted by
    alpha_a^2 over the exposed face A^{x_dir}."""
    x_dir = _check_vector(x_dir, E.dim, "x_dir")
    if np.linalg.norm(x_dir) == 0.0:
        raise InputError("x_dir must be nonzero")
    mask = _face_mask(E.support, x_dir)
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
    mask = _face_mask(E.support, x_dir)
    restricted = ExpSum(E.support.points[mask], E.coeffs[mask])
    return evaluate(restricted, y).g
