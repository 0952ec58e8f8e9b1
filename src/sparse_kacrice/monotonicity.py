"""Effect of adjoining one exponent to an exponential sum.

Adding a term alpha_0 * exp(<a_0, x>) multiplies the expected-zero density
pointwise by a computable factor Psi(x).  The region where Psi < 1 is where
zeros become less likely, the region where Psi > 1 is where they become
more likely; both are computed here, along with interior witnesses for
"the decrease region is nonempty", ray scans into the tails, rectangular
region scans for plotting, the metric of the augmented sum, and the exact
shrink factor of the projected dual ellipsoid on level sets.

All formulas are evaluated through the log-domain quantities of
:mod:`.expsum`, so far-tail points stay finite.  One batched kernel gives
Psi to :func:`psi`, ray scans and region scans alike, so a scan node and
a scalar call cannot disagree: det g and g^x(tau) det g are Cauchy-Binet
sums of non-negative terms over simplices of the support, formed from the
softmax weights of :mod:`.expsum` without a metric, and Psi is defined
wherever det g does not underflow.
:func:`psi_via_phi0` and :func:`classify` go through :func:`.evaluate`
instead, and read the formed metric and its dual form from
:func:`.geometry.dual_form`, the one dual-form gate: they check the
logistic in phi0, the dual form and the closed-form decrease criterion
against a route that shares none of them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError, DomainError, InputError, SingularFormError
from .errors import SparseKacRiceError
from .expsum import LEGENDRE_MARGIN, ExpSum, _invert_moment_many, _simplex_sum, _softmax
from .expsum import _sorted_products, evaluate, invert_moment
from .geometry import QuadForm, SupportSet, _check_box, _check_vector, _cone_dets, _grid, _is_int
from .geometry import _interior_mask, _sorted_tuples, diameter, dual_form
from .geometry import interior_contains  # noqa: F401 (perfbench's tracer wraps it)

__all__ = [
    "U_MINUS",
    "U_PLUS",
    "BOUNDARY",
    "OUTSIDE",
    "Augmentation",
    "PsiEval",
    "RegionScan",
    "LevelsetReport",
    "augment",
    "psi",
    "psi_via_phi0",
    "classify",
    "witness_interior",
    "ray_scan_unbounded",
    "region_scan",
    "augmented_metric",
    "levelset_projection_check",
]

U_MINUS = "U_minus"
U_PLUS = "U_plus"
BOUNDARY = "boundary"
#: Region-scan marker for grid nodes outside the scan domain.
OUTSIDE = "outside"

#: |Psi - 1| at or below this band classifies as "boundary" rather than
#: forcing a side; the decrease/increase regions are open sets.
BOUNDARY_BAND = 1e-10

#: The label of each class code of :func:`_classify_psi`.
_LABELS = np.array([BOUNDARY, U_MINUS, U_PLUS, OUTSIDE], dtype=object)


@dataclass(frozen=True)
class Augmentation:
    """One extra exponent a_0 with positive weight alpha_0."""

    a0: np.ndarray
    alpha0: float = 1.0

    def __post_init__(self):
        a0 = np.asarray(self.a0, dtype=float).reshape(-1)
        if not np.all(np.isfinite(a0)):
            raise InputError("a0 must be finite")
        object.__setattr__(self, "a0", a0)
        if not (np.isfinite(self.alpha0) and self.alpha0 > 0):
            raise InputError("alpha0 must be finite and positive")


@dataclass(frozen=True, eq=False)
class PsiEval:
    """The density-ratio evaluation at one point.

    ``ratio`` is K/K_0 in (0, 1); ``tau_normsq`` is the dual-metric square
    norm of the one-form tau; ``psi = ratio^{m/2} sqrt(1 + tau_normsq)``.
    """

    x: np.ndarray
    phi0: float
    tau_normsq: float
    ratio: float
    psi: float
    classification: str


def _classify_psi(values: np.ndarray) -> np.ndarray:
    """Labels of Psi values against 1, with the ``BOUNDARY_BAND`` margin,
    and OUTSIDE for NaN: an object array of ``_LABELS``, taken by int8
    codes (NaN compares false both ways, so it keeps only its own code)."""
    codes = np.isnan(values).view(np.int8) * np.int8(3)
    codes += values < 1.0 - BOUNDARY_BAND
    codes += (values > 1.0 + BOUNDARY_BAND).view(np.int8) * np.int8(2)
    return _LABELS.take(codes)


def _check_augmentation(E: ExpSum, aug: Augmentation) -> np.ndarray:
    a0 = np.asarray(aug.a0, dtype=float).reshape(-1)
    if a0.shape[0] != E.dim:
        raise InputError(f"a0 has length {a0.shape[0]}, expected {E.dim}")
    gap = np.linalg.norm(E.support.points - a0, axis=1).min()
    if gap <= SupportSet.dedup_tolerance(np.vstack([E.support.points, a0])):
        raise InputError("a0 coincides with an existing support point")
    return a0


def augment(E: ExpSum, aug: Augmentation) -> ExpSum:
    """The exponential sum with the extra exponent adjoined to the support."""
    a0 = _check_augmentation(E, aug)
    return ExpSum(
        np.vstack([E.support.points, a0]),
        np.append(E.coeffs, aug.alpha0),
    )


def _checked_bundle(E: ExpSum, aug: Augmentation, x):
    """(a0, evaluate(E, x), phi0, K/K_0, tau) on the routes that go through
    :func:`evaluate`.  No dual form is taken here: see :func:`_metric_dual`."""
    a0 = _check_augmentation(E, aug)
    bundle = evaluate(E, x)
    log_f0 = math.log(aug.alpha0) + float(a0 @ bundle.x)
    log_K0 = float(np.logaddexp(2.0 * bundle.phi, 2.0 * log_f0))
    tau = math.exp(log_f0 - 0.5 * log_K0) * (bundle.mu - a0)
    return a0, bundle, bundle.phi - log_f0, math.exp(2.0 * bundle.phi - log_K0), tau


def _metric_dual(bundle) -> QuadForm:
    """The dual form of the bundle's metric; DegenerateMetricError where
    :func:`.geometry.dual_form` refuses it."""
    try:
        return dual_form(bundle.g)
    except SingularFormError as exc:
        raise DegenerateMetricError("metric degenerates at x; density ratio undefined") from exc


def _psi_many(E: ExpSum, aug: Augmentation, X: np.ndarray):
    """Psi, phi0, g^x(tau) and K/K_0 at each row of X (shape (N, m)).

    g^x(tau) = (f_0^2 / K_0) q with q = (mu - a_0)^T g^-1 (mu - a_0), and
    by Cauchy-Binet on g + (mu - a_0)(mu - a_0)^T, q det g is the sum over
    sorted (m-1)-tuples s of prod_s lambda (sum_j lambda_j M_sj)^2, with
    M_sj = det[a_s - a_0, a_j - a_0]: one (C(k, m-1), k) @ (k, N) product,
    squared, against the tuple products of :func:`.expsum._sorted_products`.
    It and det g (:func:`.expsum._simplex_sum`) are sums of non-negative
    terms on E's own softmax scale, so g^x(tau) and Psi keep their relative
    accuracy in every tail, whichever term dominates; no metric is formed
    or solved.  Raises DegenerateMetricError where det g underflows to 0.
    """
    a0 = _check_augmentation(E, aug)
    top, W, total = _softmax(E, X)
    m, k = E.dim, E.n_terms
    det_sum = _simplex_sum(W, E.support._simplex_form, m)
    flat = det_sum == 0.0
    if flat.any():
        raise DegenerateMetricError(f"det g underflows at x = {X[flat][0].tolist()}; Psi undefined")
    s = _sorted_tuples(k, m - 1)
    tuples = np.hstack([np.repeat(s, k, axis=0), np.tile(np.arange(k), len(s))[:, None]])
    M = _cone_dets(E.support.points, tuples, a0).reshape(len(s), k)
    MW = M @ W
    np.square(MW, out=MW)
    q = (MW[0] if m == 1 else np.einsum("tn,tn->n", _sorted_products(W, m - 1), MW)) / det_sum
    phi = top + 0.5 * np.log(total)
    log_f0 = math.log(aug.alpha0) + X @ a0
    log_K0 = np.logaddexp(2.0 * phi, 2.0 * log_f0)
    log_ratio = 2.0 * phi - log_K0
    tau_normsq = np.exp(2.0 * log_f0 - log_K0) * q
    values = np.exp(0.5 * (E.dim * log_ratio + np.log1p(tau_normsq)))
    return values, phi - log_f0, tau_normsq, np.exp(log_ratio)


def _psi_evals(E: ExpSum, aug: Augmentation, X: np.ndarray) -> list[PsiEval]:
    """:func:`psi` at each row of X, from one :func:`_psi_many` call."""
    values, phi0, tau_normsq, ratio = _psi_many(E, aug, X)
    rows = zip(X, phi0.tolist(), tau_normsq.tolist(), ratio.tolist(), values.tolist())
    return [PsiEval(*row, label) for row, label in zip(rows, _classify_psi(values))]


def psi(E: ExpSum, aug: Augmentation, x) -> PsiEval:
    """Evaluate the pointwise density ratio Psi at x.

    Built from the one-form tau = (f_0/sqrt(K_0)) (mu - a_0):
    Psi = (K/K_0)^{m/2} sqrt(1 + g^x(tau)), the ratio of the two densities;
    DegenerateMetricError where det g underflows to 0.  This is the batched
    kernel of the grid scans on one row, so the two cannot drift.
    """
    x = _check_vector(x, E.dim, "x")
    return _psi_evals(E, aug, x[None, :])[0]


def _logistic(t: float) -> float:
    """1 / (1 + e^-t), from the exponential of -|t| so that neither tail
    overflows and both keep full relative precision."""
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def psi_via_phi0(E: ExpSum, aug: Augmentation, x) -> float:
    """Alternate route to Psi through phi0 alone.

    Psi = (1 - s)^{m/2} sqrt(1 + s * g^x(mu - a_0)) with the logistic
    s = 1/(1 + e^{2 phi0}); the factor 1 - s is evaluated as its own
    logistic so the far tail keeps full precision.  Used to
    cross-validate :func:`psi`: this route forms g and its dual form
    (:func:`.geometry.dual_form`, from one symmetric eigendecomposition),
    where psi sums det g and g^x(tau) det g by Cauchy-Binet.  They agree to
    about 1e-12 where g is well conditioned and to about cond(g) * eps near
    the condition gate; DegenerateMetricError where dual_form refuses g.
    """
    a0, bundle, phi0, _, _ = _checked_bundle(E, aug, x)
    s = _logistic(-2.0 * phi0)
    ratio = _logistic(2.0 * phi0)
    return ratio ** (E.dim / 2.0) * math.sqrt(1.0 + s * _metric_dual(bundle)(bundle.mu - a0))


def classify(E: ExpSum, aug: Augmentation, x) -> str:
    """Classify x against the closed-form decrease criterion.

    x is in the decrease region iff

        g^x(mu - a_0)  <  m + sum_{k=1}^{m-1} C(m+1, k+1) r^k + r^m,

    with r = e^{-2 phi0}; the right side equals ((1+r)^m - 1)(1 + 1/r),
    which is algebraically equivalent to Psi < 1.  The two sides count as
    equal ("boundary") within ``BOUNDARY_BAND`` * max(1, |lhs|, |rhs|), the
    band of the Psi-vs-1 classification, with which it agrees whenever
    |Psi - 1| > ``BOUNDARY_BAND``.
    """
    a0, bundle, phi0, _, _ = _checked_bundle(E, aug, x)
    lhs = _metric_dual(bundle)(bundle.mu - a0)
    m = E.dim
    with np.errstate(over="ignore"):
        r = float(np.exp(-2.0 * phi0))
        rhs = float(m)
        for k in range(1, m):
            rhs += math.comb(m + 1, k + 1) * r**k
        rhs += r**m
    if not math.isfinite(rhs):
        return U_MINUS
    band = BOUNDARY_BAND * max(1.0, abs(lhs), abs(rhs))
    if lhs < rhs - band:
        return U_MINUS
    if lhs > rhs + band:
        return U_PLUS
    return BOUNDARY


def witness_interior(E: ExpSum, aug: Augmentation) -> np.ndarray:
    """A point where the density ratio certifiably drops below 1.

    For a_0 interior to the Newton polytope, x_0 = invert_moment(a_0) makes
    tau vanish, so Psi(x_0) = (K/K_0)^{m/2} < 1.  Returns x_0 after
    checking that inequality numerically; :func:`.invert_moment` refuses a_0
    outside the interior.
    """
    a0 = _check_augmentation(E, aug)
    x0 = invert_moment(E, a0)
    result = psi(E, aug, x0)
    if not result.psi < 1.0:
        raise SparseKacRiceError(
            f"interior witness failed numerically: Psi(x0) = {result.psi!r}"
        )
    return x0


def ray_scan_unbounded(
    E: ExpSum, aug: Augmentation, x_dir, t_max: float, n_steps: int
) -> list[PsiEval]:
    """Psi along the ray t * x_dir for t in (0, t_max], n_steps samples.

    Raw empirical data: when a_0 is far outside the polytope and the ray
    points away from it through a vertex, the tail classifications land in
    the decrease region; no certification of unboundedness is attempted.
    The whole ray is one batched evaluation; a sample where det g
    underflows to 0 raises DegenerateMetricError.
    """
    x_dir = _check_vector(x_dir, E.dim, "x_dir")
    norm = float(np.linalg.norm(x_dir))
    if norm == 0.0:
        raise InputError("x_dir must be nonzero")
    if not (t_max > 0 and math.isfinite(t_max) and _is_int(n_steps) and n_steps >= 1):
        raise InputError("need a finite t_max > 0 and an integer n_steps >= 1")
    ts = np.linspace(t_max / n_steps, t_max, n_steps)
    return _psi_evals(E, aug, ts[:, None] * (x_dir / norm))


@dataclass(frozen=True, eq=False)
class RegionScan:
    """Rectangular grid of Psi values with decrease/increase classification.

    ``psi`` is NaN and ``classes`` is "outside" at grid nodes outside the
    scan domain (only possible for moment-coordinate scans, where the
    domain is the polytope interior).
    """

    space: str
    box: tuple
    resolution: tuple
    axes: tuple
    psi: np.ndarray
    classes: np.ndarray

    def _column_names(self) -> list[str]:
        prefix = "p" if self.space == "p" else "x"
        return [f"{prefix}{i + 1}" for i in range(len(self.axes))]

    def to_csv(self) -> str:
        """Serialize as CSV with a header row, nodes in row-major order."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self._column_names() + ["psi", "class"])
        coords = _grid(self.box, self.resolution)[2]
        flat_psi = self.psi.ravel()
        flat_cls = self.classes.ravel()
        for row, value, label in zip(coords, flat_psi, flat_cls):
            writer.writerow([repr(float(c)) for c in row] + [repr(float(value)), str(label)])
        return out.getvalue()

    def to_json(self) -> str:
        """Serialize with grid metadata; NaN encodes as null."""
        flat = [None if math.isnan(v) else v for v in self.psi.ravel().tolist()]
        payload = {
            "schema": 1,
            "space": self.space,
            "box": [list(b) for b in self.box],
            "resolution": list(self.resolution),
            "axes": [axis.tolist() for axis in self.axes],
            "columns": self._column_names() + ["psi", "class"],
            "psi": flat,
            "class": self.classes.ravel().tolist(),
        }
        return json.dumps(payload)


def region_scan(
    E: ExpSum,
    aug: Augmentation,
    box=None,
    resolution=64,
    space: str = "p",
) -> RegionScan:
    """Psi on a rectangular grid, in moment coordinates or x coordinates.

    In the default moment-coordinate scan ("p" space) the nodes at least
    ``LEGENDRE_MARGIN`` diam(P) inside every facet of the Newton polytope
    (tested against the support's cached facet rows) are mapped back by one
    batched Newton solve on ``E._centred``; the other nodes, and any whose
    inversion fails, are marked "outside".  The inversion is the one rule of
    every inversion, residual ``INVERT_TOL`` (1 + diam P), so near a facet
    Psi is taken at the preimage, not at a nearby point: 2.4e-5 inside the
    facet of an affine square it is 9e-13 relative off the Psi of a 50-digit
    preimage.  An "x" space scan evaluates the grid directly.  Either way
    Psi is evaluated once for the whole grid by the kernel behind
    :func:`psi`, with no per-node Python call; a node where det g underflows
    to 0 raises DegenerateMetricError for the scan.  ``box`` defaults to the
    support's bounding box ("p") or [-5, 5]^m ("x"), and any box must be
    finite with lo < hi per axis; ``resolution`` is a whole number or one
    per axis, at least 2 each.  Both follow :func:`.geometry._check_box`
    and :func:`.geometry._grid` and raise InputError where those do.
    """
    _check_augmentation(E, aug)
    if space not in ("p", "x"):
        raise InputError("space must be 'p' or 'x'")
    if E.support.degenerate:
        raise DegenerateMetricError("support is not full-dimensional; Psi undefined")
    m = E.dim
    if box is None:
        points = E.support.points
        box = np.column_stack([points.min(0), points.max(0)]) if space == "p" else [(-5.0, 5.0)] * m
    box = _check_box(box, m)
    resolution, axes, nodes = _grid(box, resolution)
    values = np.full(nodes.shape[0], np.nan)
    if space == "x":
        values[:] = _psi_many(E, aug, nodes)[0]
    else:
        margin = LEGENDRE_MARGIN * diameter(E.support)
        usable = np.flatnonzero(_interior_mask(E.support, nodes, margin))
        X, ok = _invert_moment_many(E, nodes[usable])
        usable = usable[ok]
        if usable.size:
            values[usable] = _psi_many(E, aug, X[ok])[0]
    return RegionScan(
        space=space,
        box=box,
        resolution=resolution,
        axes=axes,
        psi=values.reshape(resolution),
        classes=_classify_psi(values).reshape(resolution),
    )


def augmented_metric(E: ExpSum, aug: Augmentation, x) -> QuadForm:
    """Metric of the augmented sum, via the rank-one update formula.

    (g_0)_x = (K/K_0) (g_x + tau tau^T).  Evaluating the augmented sum
    directly gives the same form; this route never materializes it.  No
    dual form is read, so an ill-conditioned g is no error here.
    """
    _, bundle, _, ratio, tau = _checked_bundle(E, aug, x)
    return QuadForm(ratio * (bundle.g.entries + np.outer(tau, tau)))


@dataclass(frozen=True)
class LevelsetReport:
    """Result of the projected-dual-ellipsoid shrink check.

    On the tangent space of the level set of phi0 through x (the orthogonal
    complement of mu - a_0), the augmented form is exactly (K/K_0) times
    the base form — equivalently the projected dual ellipsoid shrinks by
    sqrt(K/K_0).  ``residual`` is the largest entrywise mismatch of the
    restricted Gram arrays, relative to their scale.
    """

    residual: float
    ratio: float
    vacuous: bool
    passed: bool


def levelset_projection_check(E: ExpSum, aug: Augmentation, x) -> LevelsetReport:
    """Verify the exact shrink of the projected dual ellipsoid at x.

    Restricts both metrics to the orthogonal complement of mu(x) - a_0 and
    compares the augmented restriction (the form of :func:`augmented_metric`,
    from the same one evaluation of E) against (K/K_0) times the base
    restriction; it passes below a relative residual of 1e-10.  At a
    critical point of phi0 (mu = a_0) the tangent space is undefined and a
    DomainError is raised; in one variable the complement is trivial and
    the check passes vacuously.
    """
    a0, bundle, _, ratio, tau = _checked_bundle(E, aug, x)
    grad0 = bundle.mu - a0
    if np.linalg.norm(grad0) <= 1e-12 * (1.0 + np.linalg.norm(a0)):
        raise DomainError("x is a critical point of phi0; level set has no tangent space")
    if E.dim == 1:
        return LevelsetReport(residual=0.0, ratio=ratio, vacuous=True, passed=True)
    from scipy.linalg import null_space

    basis = null_space(grad0[None, :])
    g0 = ratio * (bundle.g.entries + np.outer(tau, tau))
    restricted_aug = basis.T @ g0 @ basis
    restricted_base = ratio * (basis.T @ bundle.g.entries @ basis)
    scale = max(1.0, float(np.abs(restricted_base).max()))
    residual = float(np.abs(restricted_aug - restricted_base).max()) / scale
    return LevelsetReport(
        residual=residual, ratio=ratio, vacuous=False, passed=residual < 1e-10
    )
