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

A region scan keeps its grid.  Psi splits into the sum's part, which
depends on the sum and the point alone (:func:`_sum_part`: the potential,
the softmax weights and the det g sum), and the exponent's part
(:func:`_psi_many`).  Each sum keeps, read-only, its last grid in each
space ("p" and "x"): the request, the resolved box, axes and resolution,
the scan points (the x nodes, or the p-grid's usable node indices and
their preimages) and the sum's part there.  A later scan of that grid,
under any added exponent, runs only the exponent's part: no grid, default
box, inversion or softmax, with the same numbers bit for bit.  Scanning
another grid replaces that space's entry.  The trade is memory: about
k + m + 2 floats per scan point per space, 0.3 MB for a 64^2 grid with
k = 4 terms and about 60 MB for a 512^2 grid with k = 25.  Likewise the
sum keeps the cone-determinant block of its last added exponent, which
every Psi evaluation under that exponent reads; its key marks that
exponent as checked against the sum, so a re-scan skips that check too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError, InputError, SparseKacRiceError
from .expsum import INVERT_MARGIN, ExpSum, _invert_moment_many, _simplex_sum, _softmax
from .expsum import _sorted_products, invert_moment
from .expsum import evaluate  # noqa: F401 (perfbench's tracer wraps it)
from .geometry import SupportSet, _cauchy_binet_tables, _check_box, _check_vector, _cone_dets, _csv_text, _grid
from .geometry import _as_count, _as_floats, _as_real, _counts, _interior_mask, _read_only, diameter
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
    """One extra exponent a_0 with positive weight alpha_0.  alpha0 is a
    real number by :func:`.geometry._as_real` (finite, above 0, not a bool),
    stored as a float; a0 is converted by :func:`.geometry._as_floats`, must
    be finite and a scalar or 1-D, and is kept as a read-only 1-D float
    copy, so no later write reaches it.  InputError otherwise."""

    a0: np.ndarray
    alpha0: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha0", _as_real(self.alpha0, "alpha0 must be a finite real number > 0, not a bool"))
        a0 = _as_floats(self.a0, "a0 must give real numbers")
        if a0.ndim > 1:
            raise InputError(f"a0 must be a scalar or 1-D, got shape {a0.shape}")
        a0 = a0.reshape(-1).copy()
        if not np.all(np.isfinite(a0)):
            raise InputError("a0 must be finite")
        _read_only(a0)
        object.__setattr__(self, "a0", a0)


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
    a0 = aug.a0
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


def _checked_a0(E: ExpSum, aug: Augmentation) -> np.ndarray:
    """aug's exponent checked against E by :func:`_check_augmentation`,
    unless it is the exponent of E's cone block, which only a checked
    exponent builds (:func:`_psi_many`)."""
    block = E._cone_block
    if block is not None and block[0] == aug.a0.tobytes():
        return aug.a0
    return _check_augmentation(E, aug)


def _sum_part(E: ExpSum, X: np.ndarray):
    """(phi, W, det_sum) at each row of X (shape (N, m)): the part of Psi
    that depends on E and the points alone, not on a_0.  phi is the
    potential top + (1/2) log total without its <c, x>, W the softmax
    weights (k, N) of :func:`.expsum._softmax` and det_sum the Cauchy-Binet
    sum total^(m+1) det g of :func:`.expsum._simplex_sum`.  Raises
    DegenerateMetricError where det g underflows to 0."""
    top, W, total = _softmax(E, X.T)
    det_sum = _simplex_sum(W, E.support._simplex_form, E.dim)
    if E.dim == 1:
        # a row of _simplex_sum's work buffer, which a stored grid would
        # otherwise keep whole: C(k, 2) + 2 rows of N floats
        det_sum = det_sum.copy()
    flat = det_sum == 0.0
    if flat.any():
        raise DegenerateMetricError(f"det g underflows at x = {X[flat][0].tolist()}; Psi undefined")
    return top + 0.5 * np.log(total), W, det_sum


def _psi_many(E: ExpSum, aug: Augmentation, a0: np.ndarray, X: np.ndarray, part):
    """Psi, phi0, g^x(tau) and log K/K_0 at each row of X (shape (N, m)),
    the exponent's part of Psi from the sum's part ``part`` there
    (:func:`_sum_part`, which it only reads); a0 is aug's exponent as
    :func:`_checked_a0` returns it, checked once per call by the caller.
    The ratio stays a log: only :func:`psi`'s evaluations take its exp,
    not a scan's nodes.

    g^x(tau) = (f_0^2 / K_0) q with q = (mu - a_0)^T g^-1 (mu - a_0), and
    by Cauchy-Binet on g + (mu - a_0)(mu - a_0)^T, q det g is the sum over
    sorted (m-1)-tuples s of prod_s lambda (sum_j lambda_j M_sj)^2, with
    M_sj = det[a_s - a_0, a_j - a_0]: one (C(k, m-1), k) @ (k, N) product,
    squared, against the tuple products of :func:`.expsum._sorted_products`.
    It and det g are sums of non-negative terms on E's own softmax scale,
    so g^x(tau) and Psi keep their relative accuracy in every tail,
    whichever term dominates; no metric is formed or solved.

    Like the kernels, M and log f_0 are taken about the barycenter c, M on
    the centred points with apex a_0 - c and log f_0 with <a_0 - c, x>,
    against phi without its <c, x>: Psi, phi0, g^x(tau) and K/K_0 keep
    their values, since K and f_0^2 both lose the factor e^(2 <c, x>).
    M depends on E and a_0 alone, so E keeps the last a_0's block,
    read-only (``E._cone_block``): the p- and x-scans of one a_0, scalar
    :func:`psi` and :func:`ray_scan_unbounded` build it once; another a_0
    replaces it.
    """
    phi, W, det_sum = part
    m, k = E.dim, E.n_terms
    key, apex = a0.tobytes(), a0 - E._c
    if E._cone_block is None or E._cone_block[0] != key:
        M = _cone_dets(E._points, _cauchy_binet_tables(k, m)[1], apex).reshape(-1, k)
        M.flags.writeable = False
        E._cone_block = (key, M)
    MW = E._cone_block[1] @ W
    np.square(MW, out=MW)
    q = (MW[0] if m == 1 else np.einsum("tn,tn->n", _sorted_products(W, m - 1), MW)) / det_sum
    log_f0 = math.log(aug.alpha0) + X @ apex
    log_K0 = np.logaddexp(2.0 * phi, 2.0 * log_f0)
    log_ratio = 2.0 * phi - log_K0
    tau_normsq = np.exp(2.0 * log_f0 - log_K0) * q
    values = np.exp(0.5 * (E.dim * log_ratio + np.log1p(tau_normsq)))
    return values, phi - log_f0, tau_normsq, log_ratio


def _psi_evals(E: ExpSum, aug: Augmentation, X: np.ndarray) -> list[PsiEval]:
    """:func:`psi` at each row of X, from one :func:`_psi_many` call on the
    sum's part taken here."""
    values, phi0, tau_normsq, log_ratio = _psi_many(E, aug, _checked_a0(E, aug), X, _sum_part(E, X))
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
    underflows to 0 raises DegenerateMetricError.  t_max is a real number
    by :func:`.geometry._as_real` (finite, above 0, not a bool) and n_steps
    a count of at least 1 by :func:`.geometry._as_count`; InputError
    otherwise.
    """
    x_dir = _check_vector(x_dir, E.dim, "x_dir")
    norm = float(np.linalg.norm(x_dir))
    if norm == 0.0:
        raise InputError("x_dir must be nonzero")
    t_max = _as_real(t_max, "t_max must be a finite real number > 0")
    n_steps = _as_count(n_steps, "need an integer n_steps >= 1")
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


def _scan_grid(E: ExpSum, space: str, box, resolution) -> tuple:
    """E's grid in ``space`` for the request (box, counts), box checked or
    None and counts the resolution as :func:`.geometry._counts` resolves
    it: (request, box, resolution, axes, usable, X, phi, W, det_sum), every
    array read-only.  X holds the scan points as rows, the x nodes (usable
    None) or the preimages of the p-nodes at the indices usable, and (phi,
    W, det_sum) is :func:`_sum_part` there.

    None of it depends on a_0, so E keeps its last grid in each space
    (``E._scan_grids``), matched at two levels: a request equal to the
    stored one is served with no grid, default box or sum's part, and one
    that resolves to the stored grid keeps its scan points and sum's part
    (resolving the default box alone costs about 10-15 us, on re-scans of
    about 200 us at 64^2).  A grid of another box or resolution replaces
    the space's entry; an entry is stored only once its sum's part is
    taken, so a DegenerateMetricError stores nothing.

    The usable p-nodes lie at least ``INVERT_MARGIN`` (1 + diam P) inside
    every facet, and their inversion converged.
    """
    request = (box, _counts(resolution, E.dim))
    stored = E._scan_grids.get(space)
    if stored is not None and stored[0] == request:
        return stored
    if box is None:
        points = E.support.points
        box = np.column_stack([points.min(0), points.max(0)]) if space == "p" else [(-5.0, 5.0)] * E.dim
        box = _check_box(box, E.dim)
    resolution, axes, nodes = _grid(box, request[1])
    if stored is not None and stored[1:3] == (box, resolution):
        grid = (request, *stored[1:])
    else:
        usable, X = None, nodes
        if space == "p":
            margin = INVERT_MARGIN * (1.0 + diameter(E.support))
            usable = np.flatnonzero(_interior_mask(E.support, nodes, margin))
            # The targets about the barycenter, written coordinate-major, as
            # the inversion holds them, and passed as rows by a transposed
            # view: fancy indexing and broadcasting over rows of m floats
            # cost several times as much.
            Q = np.subtract(nodes.take(usable, axis=0).T, E._c[:, None], order="C")
            X, ok = _invert_moment_many(E, Q.T)
            usable, X = _read_only(usable.compress(ok), X.compress(ok, axis=0))
        part = _read_only(X, *_sum_part(E, X))
        grid = (request, box, resolution, _read_only(*axes), usable, *part)
    E._scan_grids[space] = grid
    return grid


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
    preimage.  An "x" space scan evaluates the grid directly.  Either way
    Psi is evaluated once for the whole grid by the kernel behind
    :func:`psi`, with no per-node Python call; a node where det g underflows
    to 0 raises DegenerateMetricError for the scan.

    E keeps its last grid in each space (:func:`_scan_grid`): the resolved
    box, axes and resolution, the scan points (the x nodes, or the usable
    p-node indices and their preimages) and the sum's part of Psi there
    (:func:`_sum_part`), read-only.  A later scan of the same grid, under
    any a_0, skips the grid, the default box, the inversion and the sum's
    part, and the a_0 check too for the a_0 of E's cone block; it runs only
    the exponent's part (:func:`_psi_many`), with the same numbers bit for
    bit.  A scan of another grid replaces that space's entry.  The store
    costs about k + m + 2 floats per scan point per space (0.3 MB at 64^2
    with k = 4, about 60 MB at 512^2 with k = 25), kept as long as E is.

    ``box`` defaults to the support's bounding box ("p") or [-5, 5]^m
    ("x"), and any box must be finite with lo < hi per axis;
    ``resolution`` is a count, or one count per axis as a tuple, list or
    1-D array, at least 2 each, counts by :func:`.geometry._is_int` (8.0 is
    not one).  Both follow :func:`.geometry._check_box` and
    :func:`.geometry._counts` and raise InputError where those do.
    """
    a0 = _checked_a0(E, aug)
    if space not in ("p", "x"):
        raise InputError("space must be 'p' or 'x'")
    if E.support.degenerate:
        raise DegenerateMetricError("support is not full-dimensional; Psi undefined")
    box = None if box is None else _check_box(box, E.dim)
    _, box, resolution, axes, usable, X, *part = _scan_grid(E, space, box, resolution)
    values = _psi_many(E, aug, a0, X, part)[0]
    if usable is not None:
        values, inner = np.full(math.prod(resolution), np.nan), values
        values[usable] = inner
    return RegionScan(
        space=space,
        box=box,
        resolution=resolution,
        axes=axes,
        psi=values.reshape(resolution),
        classes=_classify_psi(values).reshape(resolution),
    )
