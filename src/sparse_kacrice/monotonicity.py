"""Effect of adjoining one exponent to an exponential sum.

Adding a term alpha_0 * exp(<a_0, x>) multiplies the expected-zero density
pointwise by a computable factor Psi(x).  The region where Psi < 1 is where
zeros become less likely, the region where Psi > 1 is where they become
more likely; both are computed here, along with interior witnesses for
"the decrease region is nonempty", ray scans into the tails and
rectangular region scans for plotting.

All formulas are evaluated through the log-domain quantities of
:mod:`.expsum`, so far-tail points stay finite.  One batched kernel gives
Psi to :func:`psi`, ray scans and region scans alike, so a scan node and
a scalar call cannot disagree: det g and g^x(tau) det g are Cauchy-Binet
sums of non-negative terms over simplices of the support, formed from the
softmax weights of :mod:`.expsum` without a metric, and Psi is defined
wherever det g does not underflow.  No metric is formed or inverted on
this route; the test suite checks it against one that does.

A moment-coordinate region scan inverts its grid once per sum: the sum
keeps the preimages of its last p-grid (m N floats and N node indices)
and every later scan of that grid, under any added exponent, evaluates
Psi on them alone.  Scanning another grid replaces them.  Likewise the
sum keeps the cone-determinant block of its last added exponent, which
every Psi evaluation under that exponent reads.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError, InputError, SparseKacRiceError
from .expsum import INVERT_MARGIN, ExpSum, _invert_moment_many, _simplex_sum, _softmax
from .expsum import _sorted_products, invert_moment
from .expsum import evaluate  # noqa: F401 (perfbench's tracer wraps it)
from .geometry import SupportSet, _cauchy_binet_tables, _check_box, _check_vector, _cone_dets, _csv_text, _grid
from .geometry import _interior_mask, _is_int, _read_only, diameter
from .geometry import interior_contains  # noqa: F401 (perfbench's tracer wraps it)

__all__ = [
    "Augmentation",
    "PsiEval",
    "RegionScan",
    "augment",
    "psi",
    "witness_interior",
    "ray_scan_unbounded",
    "region_scan",
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
    """One extra exponent a_0 with positive weight alpha_0; InputError for a
    field that is not a finite real number (alpha0 also positive, and not a
    bool) or an a0 that is neither a scalar nor 1-D."""

    a0: np.ndarray
    alpha0: float = 1.0

    def __post_init__(self):
        if isinstance(self.alpha0, (bool, np.bool_)):
            raise InputError("alpha0 must be a real number, not a bool")
        try:
            a0 = np.asarray(self.a0, dtype=float)
            positive = bool(np.isfinite(self.alpha0) and self.alpha0 > 0)
        except (TypeError, ValueError) as exc:
            raise InputError(f"a0 and alpha0 must be real numbers: {exc}") from exc
        if a0.ndim > 1:
            raise InputError(f"a0 must be a scalar or 1-D, got shape {a0.shape}")
        a0 = a0.reshape(-1)
        if not np.all(np.isfinite(a0)):
            raise InputError("a0 must be finite")
        object.__setattr__(self, "a0", a0)
        if not positive:
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


def _psi_many(E: ExpSum, aug: Augmentation, a0: np.ndarray, X: np.ndarray):
    """Psi, phi0, g^x(tau) and log K/K_0 at each row of X (shape (N, m));
    a0 is aug's exponent as :func:`_check_augmentation` returns it, checked
    once per scan by the caller.  The ratio stays a log: only :func:`psi`'s
    evaluations take its exp, not a scan's nodes.

    g^x(tau) = (f_0^2 / K_0) q with q = (mu - a_0)^T g^-1 (mu - a_0), and
    by Cauchy-Binet on g + (mu - a_0)(mu - a_0)^T, q det g is the sum over
    sorted (m-1)-tuples s of prod_s lambda (sum_j lambda_j M_sj)^2, with
    M_sj = det[a_s - a_0, a_j - a_0]: one (C(k, m-1), k) @ (k, N) product,
    squared, against the tuple products of :func:`.expsum._sorted_products`.
    It and det g (:func:`.expsum._simplex_sum`) are sums of non-negative
    terms on E's own softmax scale, so g^x(tau) and Psi keep their relative
    accuracy in every tail, whichever term dominates; no metric is formed
    or solved.  Raises DegenerateMetricError where det g underflows to 0.

    Like the kernels, M and log f_0 are taken about the barycenter c, M on
    the centred points with apex a_0 - c and log f_0 with <a_0 - c, x>,
    against phi without its <c, x>: Psi, phi0, g^x(tau) and K/K_0 keep
    their values, since K and f_0^2 both lose the factor e^(2 <c, x>).
    M depends on E and a_0 alone, so E keeps the last a_0's block,
    read-only (``E._cone_block``): the p- and x-scans of one a_0, scalar
    :func:`psi` and :func:`ray_scan_unbounded` build it once; another a_0
    replaces it.
    """
    top, W, total = _softmax(E, X.T)
    m, k = E.dim, E.n_terms
    det_sum = _simplex_sum(W, E.support._simplex_form, m)
    flat = det_sum == 0.0
    if flat.any():
        raise DegenerateMetricError(f"det g underflows at x = {X[flat][0].tolist()}; Psi undefined")
    key, apex = a0.tobytes(), a0 - E._c
    if E._cone_block is None or E._cone_block[0] != key:
        M = _cone_dets(E._points, _cauchy_binet_tables(k, m)[1], apex).reshape(-1, k)
        M.flags.writeable = False
        E._cone_block = (key, M)
    MW = E._cone_block[1] @ W
    np.square(MW, out=MW)
    q = (MW[0] if m == 1 else np.einsum("tn,tn->n", _sorted_products(W, m - 1), MW)) / det_sum
    phi = top + 0.5 * np.log(total)
    log_f0 = math.log(aug.alpha0) + X @ apex
    log_K0 = np.logaddexp(2.0 * phi, 2.0 * log_f0)
    log_ratio = 2.0 * phi - log_K0
    tau_normsq = np.exp(2.0 * log_f0 - log_K0) * q
    values = np.exp(0.5 * (E.dim * log_ratio + np.log1p(tau_normsq)))
    return values, phi - log_f0, tau_normsq, log_ratio


def _psi_evals(E: ExpSum, aug: Augmentation, X: np.ndarray) -> list[PsiEval]:
    """:func:`psi` at each row of X, from one :func:`_psi_many` call."""
    values, phi0, tau_normsq, log_ratio = _psi_many(E, aug, _check_augmentation(E, aug), X)
    rows = zip(X, phi0.tolist(), tau_normsq.tolist(), np.exp(log_ratio).tolist(), values.tolist())
    return [PsiEval(*row, label) for row, label in zip(rows, _classify_psi(values))]


def psi(E: ExpSum, aug: Augmentation, x) -> PsiEval:
    """Evaluate the pointwise density ratio Psi at x.

    Built from the one-form tau = (f_0/sqrt(K_0)) (mu - a_0):
    Psi = (K/K_0)^{m/2} sqrt(1 + g^x(tau)), the ratio of the two densities;
    DegenerateMetricError where det g underflows to 0.  This is the batched
    kernel of the grid scans on one row, so the two cannot drift; the
    kernel gives log K/K_0, and ``ratio`` is its exp, taken here.
    """
    x = _check_vector(x, E.dim, "x")
    return _psi_evals(E, aug, x[None, :])[0]


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
    real = isinstance(t_max, numbers.Real) and not isinstance(t_max, bool)  # numpy's bool is not Real
    if not (real and 0.0 < t_max < math.inf and _is_int(n_steps) and n_steps >= 1):
        raise InputError("need a finite real t_max > 0 and an integer n_steps >= 1")
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
        """Serialize as CSV with a header row, nodes in row-major order
        (:func:`.geometry._csv_text`)."""
        nodes = _grid(self.box, self.resolution)[2]
        rows = ((*x, value, label) for x, value, label in zip(nodes, self.psi.ravel(), self.classes.ravel()))
        return _csv_text(self._column_names() + ["psi", "class"], rows)

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


def _moment_preimages(E: ExpSum, box: tuple, resolution: tuple, nodes: np.ndarray):
    """(usable, X): the indices of the p-grid nodes at least
    ``INVERT_MARGIN`` (1 + diam P) inside every facet whose inversion
    converged, and their preimages X (rows, in node order).

    They depend on E, the box and the resolution alone, not on a_0, so they
    are kept read-only on E (``E._grid_preimages``) and serve every later
    scan of the same grid; a scan of another grid replaces them.
    """
    key = (box, resolution)
    stored = E._grid_preimages
    if stored is None or stored[0] != key:
        margin = INVERT_MARGIN * (1.0 + diameter(E.support))
        usable = np.flatnonzero(_interior_mask(E.support, nodes, margin))
        # The targets about the barycenter, written coordinate-major, as the
        # inversion holds them, and passed as rows by a transposed view:
        # fancy indexing and broadcasting over rows of m floats cost several
        # times as much.
        Q = np.subtract(nodes.take(usable, axis=0).T, E._c[:, None], order="C")
        X, ok = _invert_moment_many(E, Q.T)
        stored = (key, *_read_only(usable.compress(ok), X.compress(ok, axis=0)))
        E._grid_preimages = stored
    return stored[1:]


def region_scan(
    E: ExpSum,
    aug: Augmentation,
    box=None,
    resolution=64,
    space: str = "p",
) -> RegionScan:
    """Psi on a rectangular grid, in moment coordinates or x coordinates.

    In the default moment-coordinate scan ("p" space) the nodes at least
    ``INVERT_MARGIN`` (1 + diam P) inside every facet of the Newton polytope
    (tested against the support's cached facet rows) are mapped back by one
    batched Newton solve about the barycenter; the other nodes, and any whose
    inversion fails, are marked "outside".  The inversion is the one rule of
    every inversion, residual ``INVERT_TOL`` (1 + diam P), so near a facet
    Psi is taken at the preimage, not at a nearby point: 2.4e-5 inside the
    facet of an affine square it is 9e-13 relative off the Psi of a 50-digit
    preimage.  The usable node indices and their preimages depend on E and
    the grid alone, so E keeps those of its last p-grid, keyed by (box,
    resolution): m N floats and N indices, read-only.  A later p-scan of
    the same sum and grid, under any a_0, reuses them and only evaluates
    Psi, with the same numbers bit for bit; a p-scan of another grid
    replaces them.  An "x" space scan evaluates the grid directly.  Either way
    Psi is evaluated once for the whole grid by the kernel behind
    :func:`psi`, with no per-node Python call; a node where det g underflows
    to 0 raises DegenerateMetricError for the scan.  ``box`` defaults to the
    support's bounding box ("p") or [-5, 5]^m ("x"), and any box must be
    finite with lo < hi per axis; ``resolution`` is a whole number or one
    per axis, at least 2 each.  Both follow :func:`.geometry._check_box`
    and :func:`.geometry._grid` and raise InputError where those do.
    """
    a0 = _check_augmentation(E, aug)
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
    if space == "x":
        values = _psi_many(E, aug, a0, nodes)[0]
    else:
        values = np.full(nodes.shape[0], np.nan)
        usable, X = _moment_preimages(E, box, resolution, nodes)
        if usable.size:
            values[usable] = _psi_many(E, aug, a0, X)[0]
    return RegionScan(
        space=space,
        box=box,
        resolution=resolution,
        axes=axes,
        psi=values.reshape(resolution),
        classes=_classify_psi(values).reshape(resolution),
    )
