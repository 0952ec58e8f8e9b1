"""Gaussian exponential sums and their pointwise analytic quantities.

An exponential sum is the random function

    E(x) = sum over a in A of  xi_a * alpha_a * exp(<a, x>),

with iid standard Gaussian xi_a, finite support A in R^m and positive
weights alpha_a.  Everything pointwise lives here: the covariance K, the
potential Phi = (1/2) log K, the softmax weights, the moment map mu
(gradient of Phi, a diffeomorphism onto the interior of the Newton
polytope), the metric g (half the Hessian of Phi), the expected-zero
density (2/s_m) sqrt(det g), moment-map inversion, the polytope-side
density, directional asymptotics, and the Veronese embedding.

All evaluation is done in the log domain with a softmax shift, so points
with coordinates far beyond the overflow range of exp stay finite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateMetricError, DomainError, InputError
from .errors import SingularFormError
from .geometry import (
    QuadForm,
    SupportSet,
    ball_sphere_constants,
    diameter,
    dual_form,
    form_det,
    interior_contains,
    support_function,
)

__all__ = [
    "ExpSum",
    "EvalBundle",
    "HessianReport",
    "PullbackReport",
    "evaluate",
    "density",
    "density_many",
    "hessian_check",
    "invert_moment",
    "legendre_density",
    "asymptotic_moment",
    "face_metric_limit",
    "veronese",
    "veronese_pullback_check",
]

#: Below this determinant the metric counts as flat: no dual form, density 0.
DET_FLOOR = 1e-300

#: Default interior margin for moment-map inversion, scaled by (1 + diam P).
INVERT_MARGIN = 1e-9

#: Points closer than this fraction of diam(P) to the polytope boundary are
#: rejected by legendre_density (the metric blows up at the faces).
LEGENDRE_MARGIN = 1e-6


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

        ``coeffs`` may be omitted (all ones).  Values are parsed as doubles;
        bit-exact round trips are not promised.
        """
        if not isinstance(data, dict):
            raise InputError("expected a JSON object with 'dim' and 'support'")
        try:
            dim = int(data["dim"])
            support = np.asarray(data["support"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad exponential-sum record: {exc}") from exc
        if support.ndim == 1:
            support = support.reshape(-1, 1)
        if support.ndim != 2 or support.shape[1] != dim:
            raise InputError(
                f"support shape {support.shape} does not match dim = {dim}"
            )
        coeffs = data.get("coeffs")
        if coeffs is not None:
            coeffs = np.asarray(coeffs, dtype=float)
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
    Kbar : exp(-2 h_P(x)) K(x), always finite
    phi : potential (1/2) log K
    weights : softmax weights lambda_a (probability vector over A)
    mu : moment map, the weighted barycenter sum lambda_a a
    g : the metric, the lambda-weighted covariance of A about mu
    g_dual : dual form of g, or None when g degenerates
    density : expected-zero density (2/s_m) sqrt(det g)
    """

    x: np.ndarray
    K: float
    Kbar: float
    phi: float
    weights: np.ndarray
    mu: np.ndarray
    g: QuadForm
    g_dual: QuadForm | None
    density: float


def _check_point(x, m: int, name: str = "x") -> np.ndarray:
    vec = np.asarray(x, dtype=float).reshape(-1)
    if vec.shape[0] != m:
        raise InputError(f"{name} has length {vec.shape[0]}, expected {m}")
    if not np.all(np.isfinite(vec)):
        raise InputError(f"{name} must be finite")
    return vec


def potential(E: ExpSum, x) -> float:
    """The potential Phi(x) = (1/2) log K(x), evaluated with a softmax shift."""
    x = _check_point(x, E.dim)
    t = E.support.points @ x + E.log_coeffs
    top = t.max()
    return float(top + 0.5 * np.log(np.exp(2.0 * (t - top)).sum()))


def evaluate(E: ExpSum, x) -> EvalBundle:
    """Compute the full pointwise bundle at x (overflow-safe)."""
    x = _check_point(x, E.dim)
    points = E.support.points
    t = points @ x + E.log_coeffs
    top = t.max()
    w = np.exp(2.0 * (t - top))
    total = w.sum()
    weights = w / total
    phi = float(top + 0.5 * np.log(total))
    h = support_function(E.support, x)
    with np.errstate(over="ignore"):
        K = float(np.exp(2.0 * phi))
    Kbar = float(np.exp(2.0 * (phi - h)))
    mu = weights @ points
    centered = points - mu
    g = QuadForm((centered * weights[:, None]).T @ centered)
    det_g = form_det(g)
    if det_g < DET_FLOOR:
        g_dual = None
        dens = 0.0
    else:
        try:
            g_dual = dual_form(g)
        except SingularFormError:
            g_dual = None
        _, s_m = ball_sphere_constants(E.dim)
        dens = (2.0 / s_m) * math.sqrt(det_g)
    return EvalBundle(
        x=x, K=K, Kbar=Kbar, phi=phi, weights=weights, mu=mu, g=g, g_dual=g_dual, density=dens
    )


def density(E: ExpSum, x) -> float:
    """Expected-zero density (2/s_m) sqrt(det g) at x; 0 when g degenerates."""
    return evaluate(E, x).density


# -- vectorized kernels (grid scans, quadrature, Monte Carlo) --------------


def _batch_moments(E: ExpSum, X: np.ndarray):
    """Potential, moment map, and metric at each row of X.

    Returns (phi (N,), mu (N,m), G (N,m,m)); phi = (1/2) log K comes from
    the log-sum-exp that gives the softmax weights of mu and G.
    """
    points = E.support.points
    T = X @ points.T + E.log_coeffs
    top = T.max(axis=1, keepdims=True)
    W = np.exp(2.0 * (T - top))
    total = W.sum(axis=1, keepdims=True)
    lam = W / total
    mu = lam @ points
    centered = points[None, :, :] - mu[:, None, :]
    G = np.einsum("nk,nki,nkj->nij", lam, centered, centered, optimize=True)
    return (top + 0.5 * np.log(total))[:, 0], mu, G


def density_many(E: ExpSum, X) -> np.ndarray:
    """Vectorized density: one value per row of X (shape (N, m))."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != E.dim:
        raise InputError(f"points have dimension {X.shape[1]}, expected {E.dim}")
    _, _, G = _batch_moments(E, X)
    det = np.linalg.det(G)
    _, s_m = ball_sphere_constants(E.dim)
    return (2.0 / s_m) * np.sqrt(np.clip(det, 0.0, None))


# -- derivative checks ------------------------------------------------------


@dataclass(frozen=True)
class HessianReport:
    """Residuals of the finite-difference identities grad Phi = mu and
    Hess Phi = 2 g."""

    grad_residual: float
    hess_residual: float
    step: float

    @property
    def max_residual(self) -> float:
        return max(self.grad_residual, self.hess_residual)


def hessian_check(E: ExpSum, x, h: float = 1e-4) -> HessianReport:
    """Central-difference check of the potential's derivatives at x."""
    if not h > 0:
        raise InputError("step h must be positive")
    x = _check_point(x, E.dim)
    m = E.dim
    eye = np.eye(m)
    phi0 = potential(E, x)
    grad_fd = np.empty(m)
    hess_fd = np.empty((m, m))
    for i in range(m):
        plus = potential(E, x + h * eye[i])
        minus = potential(E, x - h * eye[i])
        grad_fd[i] = (plus - minus) / (2.0 * h)
        hess_fd[i, i] = (plus - 2.0 * phi0 + minus) / h**2
    for i in range(m):
        for j in range(i + 1, m):
            pp = potential(E, x + h * eye[i] + h * eye[j])
            pm = potential(E, x + h * eye[i] - h * eye[j])
            mp = potential(E, x - h * eye[i] + h * eye[j])
            mm = potential(E, x - h * eye[i] - h * eye[j])
            hess_fd[i, j] = hess_fd[j, i] = (pp - pm - mp + mm) / (4.0 * h**2)
    bundle = evaluate(E, x)
    grad_res = float(np.abs(grad_fd - bundle.mu).max())
    hess_res = float(np.abs(hess_fd - 2.0 * bundle.g.entries).max())
    return HessianReport(grad_residual=grad_res, hess_residual=hess_res, step=h)


# -- moment-map inversion ---------------------------------------------------


def _balancing_point(E: ExpSum) -> np.ndarray:
    """The x minimizing sum_a (<a, x> + log alpha_a - c)^2 over x and c.

    There the terms' magnitudes are as close to equal as a least-squares
    fit makes them, so the softmax weights are spread and the metric is
    well conditioned: the Newton start for moment-map inversion.  It is
    x = 0 for unit weights.
    """
    design = np.hstack([E.support.points, -np.ones((E.n_terms, 1))])
    return np.linalg.lstsq(design, -E.log_coeffs, rcond=None)[0][:-1]


def invert_moment(E: ExpSum, p, tol: float = 1e-10, max_iter: int = 80) -> np.ndarray:
    """Solve mu(x) = p for x by damped Newton iteration.

    The moment map is a diffeomorphism onto the interior of the Newton
    polytope; the Jacobian of mu is 2 g.  Starts at the balancing point
    of the weights and halves the step whenever the residual would not
    decrease.

    Raises DomainError for p outside the interior (with margin) and
    ConvergenceError (carrying the last iterate and residual) past
    ``max_iter``, on a stalled line search, or on a singular Newton system.
    """
    if not tol > 0:
        raise InputError("tol must be positive")
    p = _check_point(p, E.dim, name="p")
    if E.support.degenerate:
        raise DegenerateMetricError("support is not full-dimensional; moment map is not open")
    margin = INVERT_MARGIN * (1.0 + diameter(E.support))
    if not interior_contains(E.support, p, margin):
        raise DomainError(f"target {p.tolist()} is not interior to the Newton polytope")
    x = _balancing_point(E)
    _, mu, G = _batch_moments(E, x[None, :])
    residual = float(np.linalg.norm(mu[0] - p))
    for _ in range(max_iter):
        if residual <= tol:
            return x
        try:
            delta = np.linalg.solve(2.0 * G[0], p - mu[0])
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "singular Newton system", value=x, residual=residual
            ) from None
        step = 1.0
        while True:
            trial = x + step * delta
            _, mu_t, G_t = _batch_moments(E, trial[None, :])
            trial_residual = float(np.linalg.norm(mu_t[0] - p))
            if trial_residual < residual:
                x, mu, G, residual = trial, mu_t, G_t, trial_residual
                break
            step *= 0.5
            if step < 2.0**-45:
                raise ConvergenceError(
                    "damped Newton stalled", value=x, residual=residual
                )
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations", value=x, residual=residual
    )


def _invert_moment_many(E: ExpSum, P: np.ndarray, tol: float = 1e-10, max_iter: int = 80):
    """Vectorized damped Newton for many interior targets at once.

    Returns (X, ok) where ok flags rows that reached ``tol``; rows whose
    Newton system turns singular are retired as failed.  No interior
    check is performed here — callers own the masking.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    X = np.tile(_balancing_point(E), (P.shape[0], 1))
    _, mu, G = _batch_moments(E, X)
    residual = np.linalg.norm(mu - P, axis=1)
    alive = residual > tol
    for _ in range(max_iter):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        try:
            delta = np.linalg.solve(2.0 * G[idx], (P[idx] - mu[idx])[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # Retire the rows whose Newton system is exactly singular, then retry.
            alive[idx[np.linalg.slogdet(G[idx])[0] == 0.0]] = False
            continue
        current_x, current_res, current_mu, current_G = X[idx], residual[idx], mu[idx], G[idx]
        step = np.ones(idx.size)
        accepted = np.zeros(idx.size, dtype=bool)
        for _ in range(45):
            todo = ~accepted
            trial = current_x[todo] + step[todo, None] * delta[todo]
            _, mu_t, G_t = _batch_moments(E, trial)
            trial_res = np.linalg.norm(mu_t - P[idx][todo], axis=1)
            better = trial_res < current_res[todo]
            sub = np.flatnonzero(todo)[better]
            current_x[sub] = trial[better]
            current_res[sub] = trial_res[better]
            current_mu[sub] = mu_t[better]
            current_G[sub] = G_t[better]
            accepted[sub] = True
            if accepted.all():
                break
            step[~accepted] *= 0.5
        # Accepted trials carry their moments forward; rows with none are stuck.
        X[idx], residual[idx], mu[idx], G[idx] = current_x, current_res, current_mu, current_G
        alive[idx[~accepted]] = False
        alive &= residual > tol
    return X, residual <= tol


# -- polytope-side density --------------------------------------------------


def legendre_density(E: ExpSum, p) -> float:
    """Density of the polytope-side volume form at an interior point p.

    Equals 1/sqrt(det 2 g) at x = invert_moment(p) — the square-rooted
    Hessian determinant of the convex conjugate of the potential.  Points
    within ``1e-6 * diam(P)`` of the boundary are rejected (DomainError):
    the value diverges there.
    """
    p = _check_point(p, E.dim, name="p")
    margin = LEGENDRE_MARGIN * diameter(E.support)
    if margin == 0.0 or not interior_contains(E.support, p, margin):
        raise DomainError(f"{p.tolist()} is outside the interior margin of the polytope")
    x = invert_moment(E, p)
    _, _, G = _batch_moments(E, x[None, :])
    det2g = float(np.linalg.det(2.0 * G[0]))
    return 1.0 / math.sqrt(det2g)


# -- asymptotics ------------------------------------------------------------


def _face_mask(E: ExpSum, x_dir: np.ndarray) -> np.ndarray:
    """Boolean mask of the exposed face A^x over the support points."""
    values = E.support.points @ x_dir
    scale = float(np.linalg.norm(x_dir)) * float(
        np.linalg.norm(E.support.points, axis=1).max()
    )
    tol = 1e-12 * max(1.0, scale)
    return values >= values.max() - tol


def asymptotic_moment(E: ExpSum, x_dir) -> np.ndarray:
    """Limit of mu(t x_dir) as t grows: the face barycenter weighted by
    alpha_a^2 over the exposed face A^{x_dir}."""
    x_dir = _check_point(x_dir, E.dim, name="x_dir")
    if np.linalg.norm(x_dir) == 0.0:
        raise InputError("x_dir must be nonzero")
    mask = _face_mask(E, x_dir)
    sq = E.coeffs[mask] ** 2
    return (sq / sq.sum()) @ E.support.points[mask]


def face_metric_limit(E: ExpSum, x_dir, y) -> QuadForm:
    """Limit of the metric along y + t x_dir: the metric of the sum
    restricted to the exposed face (A^{x_dir}, alpha^{x_dir}), at y.

    The restricted metric is constant along x_dir itself, so y only
    matters through its component transverse to the ray.
    """
    x_dir = _check_point(x_dir, E.dim, name="x_dir")
    if np.linalg.norm(x_dir) == 0.0:
        raise InputError("x_dir must be nonzero")
    y = _check_point(y, E.dim, name="y")
    mask = _face_mask(E, x_dir)
    restricted = ExpSum(E.support.points[mask], E.coeffs[mask])
    return evaluate(restricted, y).g


# -- Veronese embedding -----------------------------------------------------


def veronese(E: ExpSum, x) -> np.ndarray:
    """The point (sqrt(lambda_a(x)))_a on the unit sphere of R^A."""
    return np.sqrt(evaluate(E, x).weights)


@dataclass(frozen=True)
class PullbackReport:
    """Residual of the spherical-pullback identity |D nu (u)|^2 = g(u)."""

    residual: float
    step: float
    n_directions: int


def veronese_pullback_check(
    E: ExpSum, x, h: float, n_directions: int = 4, seed: int = 0
) -> PullbackReport:
    """Finite-difference check that the round sphere metric pulls back to g.

    Differentiates the Veronese map along ``n_directions`` seeded random
    unit directions and compares squared norms against g(u).
    """
    if not h > 0:
        raise InputError("step h must be positive")
    x = _check_point(x, E.dim)
    rng = np.random.default_rng(seed)
    bundle = evaluate(E, x)
    worst = 0.0
    for _ in range(n_directions):
        u = rng.standard_normal(E.dim)
        u /= np.linalg.norm(u)
        derivative = (veronese(E, x + h * u) - veronese(E, x - h * u)) / (2.0 * h)
        worst = max(worst, abs(float(derivative @ derivative) - bundle.g(u)))
    return PullbackReport(residual=worst, step=h, n_directions=n_directions)
