"""Expected number of real zeros, by numerical integration.

Two routes to the same number:

* the x-space route integrates the zero density (2/s_m) sqrt(det g_x)
  over R^m (:func:`esol_total`) through a chart, which takes cell
  coordinates to nodes x and gives its Jacobian, so the integrand is the
  sum's own density at x times |det Dx| in either region.  A sum with a
  facet-log start (``ExpSum._facet_start``) whose Newton polytope P is
  simple (``SupportSet._vertex_corners``: every P in one or two
  variables; in three, each vertex on three facets) takes that integral
  over P, by the change of variables x = x_hat(p) through the facet-log
  map, the gradient of Guillemin's symplectic potential (Guillemin 1994,
  J. Differential Geom. 40), on one multilinear cube per vertex of P (the
  moment route's cells): the Jacobian is
  det Dx_hat(p) times the cell's, and on the canonical toric sums x_hat
  is the inverse moment map.  Every other sum is integrated in
  metric-normalized coordinates, the chart x = x0 + W y with Jacobian
  |det W|, where x0 is the moment preimage of the support's barycenter
  and W = L^-T from the Cholesky factor g(x0) = L L^T, so W^T g(x0) W = I
  and the region sits in the same place relative to the support under
  every affine map of it, thin supports included: the cube [-4, 4]^m,
  then shells [-2r, 2r]^m minus [-r, r]^m for as long as the newest shell
  outweighs the error of the cells already in hand (:func:`esol_region`
  integrates the same density over a box alone);
* the moment-space route integrates the Legendre-transform density over
  the Newton polytope (m <= 3, simple P) on the same vertex cells, mapped
  so that the square-root boundary layer and the vertex corners are
  smooth up to the boundary.

The routes invert the moment map by the kernel's one rule
(:func:`.expsum._invert_moment_many`, residual ``INVERT_TOL`` (1 + diam P)
about the barycenter): the x route once, for x0, where it builds a frame
(over P it inverts nothing), and the moment route at every integrand
node.  All work where the kernels do, about the support's barycenter c
(``ExpSum._points``): the frame's moment target, the facet rows and the
polytope cells are taken relative to it, so a sum and its translate by an
exactly representable vector give the same integrals and cells.

Every integral goes through one driver (:func:`_integral`): the default
budget, the zero of a degenerate support, the integrand f(x) |det Dx| of
its region's chart and the result.  Every integral, in every dimension, is
one adaptive set of cells, each with an embedded pair of rules whose
difference is its error estimate.  The dimension alone picks the pair: in
one and two variables, the tensor Gauss-Legendre rule of 8 points per axis
for the value (degree 15) and that of 5 points for the error (degree 9),
and a cell is halved along its longest side; from three on, the Genz-Malik
degree-7/5 pair (33 nodes against 637 in 3-D), and a cell is halved along
the axis of largest fourth difference.  Each pair is one node set with a
weight column per rule, built once per dimension (``_cell_rule``), so
every batch of cells costs one integrand call.  The nodes of a batch go to
the integrand coordinate-major, as one (m, N) array, the layout of the
kernel's :func:`.expsum._softmax`.  The cells are the rows of one
append-only array, where a popped cell keeps its row with error -inf; each
pass halves the worst of them, 16 a pass for the Gauss-Legendre pairs and
64 for Genz-Malik, chosen by one cut on the errors and ordered by (-error,
row), as a heap keyed on error would pop them, until the summed cell
error, plus the newest shell's value when the region grows, meets one
budget max(abs_tol, rel_tol |total|); the leaf cells may hold at most
``MAX_NODES`` integrand nodes.  Final sums are compensated (math.fsum),
so results do not depend on evaluation order.

What a solve builds, and how often:

* once per support, cached on the :class:`.geometry.SupportSet` that
  every sum on the same points shares (``geometry._shared_support``: at
  most 64 supports, 34 MiB at worst) and read by every later solve on any
  of them: the barycenter and the centred points, with the diameter, at
  construction; the rank test, the Cauchy-Binet block of the density, the
  merged hull where a solve reads it (``SupportSet._hull``: vertices, one
  facet row per facet about the barycenter, gaps and volume, from one
  Qhull run), the corners of the vertex cells
  (``SupportSet._vertex_corners``), read where a sum with a facet-log
  start picks its region and by the moment route, and the support part of
  the chart over P (``SupportSet._chart``, :func:`_facet_log_chart`): the
  vertex cells' coefficients, the Cauchy-Binet coefficients of the facets'
  m-subsets and the seed pass's log facet distances, on-facet mask and
  Jacobian, kept where they fit the bytes the support leaves beside its
  block (``SupportSet._spare_bytes``, 512 KiB for both: 57 KiB of terms
  for a square, 15 KiB for a cube, 438 KiB for a 12-gon, none past it),
  so a solve's seed pass over P computes only x_hat and the density;
* once per sum, cached on it: the balancing point
  (``ExpSum._newton_start``) and the facet-log start built from the hull
  (``ExpSum._facet_start``), read where ``esol_total`` or ``bkk_total``
  picks its region and where a target is not already at the balancing
  point's moment, which maps the closed-form sums onto P and inverts their
  nodes with no Newton step;
* once per solve: the cell store, the x route's frame (x0, W and the
  Jacobian |det W|) and its cube's seed cells where it is not over P, and
  the moment route's vertex cells; once per process, for each of the 8
  most recent (vertex count, dimension) pairs, the seed cells
  (``_vertex_seeds``, 128 bytes a polygon vertex);
* once per integrand call: one (m, N) node array, written in place, the
  chart's nodes x and the kernel's own arrays; over R^m the chart is one
  (m, m)(m, N) product plus x0, and the integrand one multiply by |det W|;
  over P it maps the nodes into P, a sine and a cosine per node and axis,
  and one pass of facet distances serves x_hat and det Dx_hat, or, on the
  seed pass of a support that keeps its terms (a chart's first call),
  x_hat alone is formed from the kept log distances; the moment
  route's inversion checks each start on mu alone, writes out the nodes
  that settle there (every node of the closed-form sums) in its first
  iteration, and forms the metric once per Newton iteration for the nodes
  it still holds, never for a trial or a backtrack;
* once per pass: one partition of the errors of every row the store
  holds, popped ones too, one gather of the popped rows, the rows of their
  children and one append of them; popped rows are never packed away.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, InputError
from .expsum import (
    ExpSum, _facet_distances, _facet_log_x, _invert_moment_many, _legendre_density_many, _moments, _softmax,
    _sorted_products, _term_sum, density_many,
)
# ``invert_moment`` is imported for perfbench's tracer, which wraps it as an
# integrate boundary; nothing here calls it.
from .expsum import invert_moment  # noqa: F401
from .geometry import _as_real, _check_box, _grid, _read_only, _sorted_tuples
from .geometry import ball_sphere_constants, diameter, hull_volume

__all__ = [
    "Quadrature",
    "IntegralResult",
    "esol_total",
    "esol_region",
    "esol_pspace",
    "lower_bound_check",
]

#: Budget of one adaptive integral, in integrand nodes held by its leaf
#: cells: 35 955 cells of the two-variable rule, which has 89 nodes.
MAX_NODES = 3_200_000
#: Half-width of the first cube over R^m, in metric-normalized coordinates.
AUTO_RADIUS = 4.0
#: Maximum number of shells over R^m.  Each doubles the radius; the density
#: reaches out to about 1/(smallest gap) in units of the frame that the
#: largest gaps set, so 2^24 covers gaps spanning about seven decades.
MAX_DOUBLINGS = 24
#: Summed cell errors cannot fall below this multiple of the summed
#: absolute cell values: the rounding of the rule sums themselves.
ROUNDOFF = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class Quadrature:
    """Error budget of one integral: max(abs_tol, rel_tol |value|).

    Both tolerances are real numbers by :func:`.geometry._as_real` (finite,
    above 0, not bools, else InputError) and are stored as floats.  The
    region is the integrator's: R^m for :func:`esol_total`, the Newton
    polytope for :func:`esol_pspace`, a box only through
    :func:`esol_region`.
    """

    abs_tol: float = 1e-7
    rel_tol: float = 1e-7

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol"):
            object.__setattr__(self, name, _as_real(getattr(self, name), f"{name} must be a finite real number > 0"))


@dataclass(frozen=True)
class IntegralResult:
    """Converged integral with its error estimate and work counters.

    ``error`` meets the request's budget max(abs_tol, rel_tol |value|)
    (an integral that cannot meet it raises ConvergenceError);
    ``cells`` counts the leaf cells of the adaptive integral, and ``nodes``
    the integrand evaluations spent on every cell it ever held: cells
    evaluated times the nodes of the rule (13, 89 and 33 a cell in one,
    two and three variables).  A pass splits 16 cells in one and two
    variables and 64 in three, so the last pass may split more cells than
    the budget needed.  The budget counts nodes too: the leaf cells may
    hold at most ``MAX_NODES`` of them."""

    value: float
    error: float
    route: str
    cells: int
    nodes: int


# ---------------------------------------------------------------------------
# One adaptive integral; the rule for its cells depends on the dimension alone

_GL_FINE = leggauss(8)
_GL_COARSE = leggauss(5)
#: Genz-Malik generators: nodes at +-L2 e_i, +-L3 e_i, +-L3 e_i +- L3 e_j
#: and (+-L5, ..., +-L5) around the centre of [-1, 1]^m.
_GM_L2, _GM_L3, _GM_L5 = math.sqrt(9.0 / 70.0), math.sqrt(9.0 / 10.0), math.sqrt(9.0 / 19.0)


def _gauss_legendre_rule(m):
    """The 8- and 5-point tensor Gauss-Legendre rules on [-1, 1]^m as one
    node set: nodes (8^m + 5^m, m), none shared (13 in one variable, 89 in
    two), and weights (n, 2), column 0 the 8-point rule (zero on the
    5-point nodes) and column 1 the 5-point rule (zero on the 8-point
    nodes).  They are exact for degrees 15 and 9 per axis.

    The 8-point sum is a cell's value and |I8 - I5| its error: about the
    5-point rule's own error, so conservative for the 8-point value, yet
    falling as fast as a degree-9 rule's.  A 4-point error column (degree
    7) would keep cells splitting long after the 8-point value has
    converged."""
    nodes, weights = [], []
    for nodes1, weights1 in (_GL_FINE, _GL_COARSE):
        nodes.append(np.stack(np.meshgrid(*[nodes1] * m, indexing="ij"), axis=-1).reshape(-1, m))
        weights.append(np.prod(np.meshgrid(*[weights1] * m, indexing="ij"), axis=0).ravel())
    fine = len(weights[0])
    rules = np.zeros((fine + len(weights[1]), 2))
    rules[:fine, 0], rules[fine:, 1] = weights
    return np.vstack(nodes), rules


def _genz_malik_rule(m):
    """Genz-Malik degree-7 rule on [-1, 1]^m with its embedded degree-5 rule
    and the fourth differences along each axis (Genz & Malik 1980,
    J. Comput. Appl. Math. 6(4)).

    Returns nodes (n, m) and weights (n, 2 + m), n = 2^m + 2m^2 + 2m + 1
    (33 in three variables): column 0 is the degree-7 rule, column 1 the
    degree-5 rule, and column 2 + i the fourth difference along axis i,
    d2 - (L2/L3)^2 d3 with dk = f(Lk e_i) + f(-Lk e_i) - 2 f(0), which
    vanishes on quadratics.
    """
    eye = np.eye(m)
    pairs = [s * eye[i] + t * eye[j] for i, j in itertools.combinations(range(m), 2)
             for s in (1.0, -1.0) for t in (1.0, -1.0)]
    corners = np.array(list(itertools.product((1.0, -1.0), repeat=m)))
    nodes = np.vstack([np.zeros((1, m)), _GM_L2 * eye, -_GM_L2 * eye, _GM_L3 * eye, -_GM_L3 * eye,
                       _GM_L3 * np.reshape(pairs, (-1, m)), _GM_L5 * corners])
    counts = [1, 2 * m, 2 * m, len(pairs), len(corners)]
    w7 = [(12824 - 9120 * m + 400 * m * m) / 19683, 980 / 6561, (1820 - 400 * m) / 19683,
          200 / 19683, 6859 / 19683 / 2**m]
    w5 = [(729 - 950 * m + 50 * m * m) / 729, 245 / 486, (265 - 100 * m) / 1458, 25 / 729, 0.0]
    ratio = (_GM_L2 / _GM_L3) ** 2
    fourth = np.vstack([np.full((1, m), 2.0 * ratio - 2.0), eye, eye, -ratio * eye, -ratio * eye,
                        np.zeros((len(pairs) + len(corners), m))])
    rules = 2.0**m * np.stack([np.repeat(w7, counts), np.repeat(w5, counts)], axis=1)
    return nodes, np.hstack([rules, fourth])


@lru_cache(maxsize=None)
def _cell_rule(m):
    """The rule pair for m-dimensional cells: (nodes per cell, cells per
    pass, apply, nodes), where apply(f, los, his) gives each cell's value,
    error and split axis from one call of f on the nodes of every cell.
    Built once per dimension; apply is ``functools.partial(_apply_rule,
    nodes, weights)`` on read-only arrays, nodes coordinate-major (m, n),
    which :func:`_chart_part` reads to build a seed pass's nodes.

    A pass of :func:`_adaptive` splits 16 cells of a Gauss-Legendre pair
    (2 x 16 x 89 = 2848 nodes in two variables) and 64 of the Genz-Malik
    pair (4224 nodes in three, against 1056 at 16).  On the 40
    three-variable solves of the quadrature benchmark's op sets at seeds
    10 and 11 (best of 3 each), passes of 16, 32, 48, 64 and 96 cells took
    0.66, 0.55, 0.52, 0.49 and 0.54 s, 96 splitting 16 % more cells than
    64; two variables took 7 % longer at 32 than at 16, and one variable
    at 110 (a two-variable pass's nodes) split 18 % more cells for no gain.
    Those three-variable timings were taken while the closed forms ran over
    R^3 in frame coordinates.  Over P, where a cube or a tetrahedron seeds
    8 or 4 cells (:func:`_vertex_seeds`), so that the first passes split
    every live cell, 64 is still the fastest of 16, 32 and 64 (fresh sums,
    medians of 7 alternating rounds, 2 CPUs, one BLAS thread).  The
    benchmark's 13 three-variable solves over P (reweighted kostlan(3, 1),
    reweighted simplex(3, 1) and affine kostlan(3, 1) at 1e-4 and
    reweighted kostlan(3, 1) at 1e-7, each at seeds 10-12, and the unit
    cube's ``bkk_total`` at 1e-4) all end on their seed pass, 92 cells in
    3.1 ms at every size.  On 11 that take passes (reweighted simplex(3, 1)
    by ``esol_total`` and reweighted kostlan(3, 1) by ``esol_pspace`` at
    1e-7, each at seeds 10-12, the unit cube's ``bkk_total`` at 1e-7, and
    ``esol_pspace`` at 1e-5 on two weighted unit cubes and two weighted
    prisms), passes of 16, 32 and 64 took 218, 185 and 178 ms, splitting
    1640, 1720 and 2072 cells.

    Each pair is one node set with a weight column per rule, so a batch of
    cells costs one integrand call.  One and two variables take the 8- and
    5-point tensor Gauss-Legendre rules (:func:`_gauss_legendre_rule`): the
    value is the 8-point sum, the error |I8 - I5|, and a cell splits along
    its longest side.  From three variables on, that pair costs 637 nodes a
    cell and the Genz-Malik 7/5 pair 33: the value is the degree-7 sum, the
    error |I7 - I5|, and a cell splits along the axis of largest fourth
    difference (Berntsen, Espelid & Genz 1991, ACM TOMS 17).  Its
    degree-5 error needs several times more cells, which two variables do
    not win back: on the 30 two-variable ``esol_total`` and ``bkk_total``
    solves of the first two quadrature benchmark op sets at seed 7, the
    17-node Genz-Malik pair took 4.6 to 10.7 times the cells of the 89-node
    pair and was slower on all 30, by a median factor of 4.7 (best of 5
    runs each, one BLAS thread).
    """
    nodes, weights = (_gauss_legendre_rule if m < 3 else _genz_malik_rule)(m)
    nodes, weights = _read_only(np.ascontiguousarray(nodes.T), weights)
    return len(weights), (16 if m < 3 else 64), partial(_apply_rule, nodes, weights), nodes


def _cell_nodes(nodes, half, los, his):
    """The (m, C n) nodes of the rule's nodes (m, n) in every cell (los,
    his), each (C, m), with half-widths ``half``, cell by cell: built in one
    array, half-width times rule node and then plus the centre, in place."""
    m, n = nodes.shape
    pts = np.multiply(half.T[:, :, None], nodes[:, None, :], out=np.empty((m, len(los), n)))
    pts += (0.5 * (his + los)).T[:, :, None]
    return pts.reshape(m, -1)


def _apply_rule(nodes, weights, f, los, his):
    """Value, error and split axis of each cell (los, his), each (C, m),
    from one call of f on the (m, C n) array of every cell's nodes
    (:func:`_cell_nodes`); see :func:`_cell_rule`.  los and his may be
    column views of the cell store's rows."""
    m, n = nodes.shape
    width = his - los
    half = 0.5 * width
    vals = f(_cell_nodes(nodes, half, los, his)).reshape(len(los), n)
    sums = np.multiply.reduce(half, axis=1) * (vals @ weights).T
    if m < 3:
        axes = width.argmax(axis=1)
    else:
        # The Jacobian scales a cell's differences alike, so it leaves the argmax.
        axes = np.abs(sums[2:]).argmax(axis=0)
    errs = np.subtract(sums[0], sums[1])
    return sums[0], np.abs(errs, out=errs), axes


def _seed_grid(box, per_axis):
    """Initial subdivision: roughly isotropic cells, per_axis on the longest
    axis; returns the lower and upper corners of the cells, row-major."""
    m = len(box)
    lengths = np.array([b - a for a, b in box])
    counts = np.maximum(1, np.round(per_axis * lengths / lengths.max()).astype(int))
    resolution, _, edges = _grid(box, counts + 1)
    edges = edges.reshape(resolution + (m,))
    return edges[(slice(-1),) * m].reshape(-1, m), edges[(slice(1, None),) * m].reshape(-1, m)


def _cube_cells(r, m):
    """Seeded cells of the cube [-r, r]^m, read-only; built per frame solve."""
    return _read_only(*_seed_grid(((-r, r),) * m, 4))


# The region over R^m only ever takes r = AUTO_RADIUS * 2^j, so the cache stays
# small: one entry per (r, m) a solve reaches, shared by every later solve.
@lru_cache(maxsize=None)
def _shell_cells(r, m):
    """Seeded cells of the 2m slabs that tile [-2r, 2r]^m minus [-r, r]^m;
    cached, read-only."""
    grids = []
    for axis in range(m):
        for side in ((-2.0 * r, -r), (r, 2.0 * r)):
            slab = [(-2.0 * r, 2.0 * r)] * axis + [side] + [(-r, r)] * (m - axis - 1)
            grids.append(_seed_grid(slab, 4))
    return _read_only(np.concatenate([g[0] for g in grids]), np.concatenate([g[1] for g in grids]))


class _Cells:
    """The cells of one adaptive integral in insertion order, as the rows of
    one growable (rows, 2m + 3) array: lower corner, upper corner, value,
    error and split axis.  A push is one write of such rows after the last
    and a pop one gather.  The store only appends: a popped cell stays in
    its row with error -inf, so ``rows`` counts every cell ever pushed and
    ``live`` the cells held."""

    def __init__(self, m):
        self.data = np.empty((64, 2 * m + 3))
        self.rows = self.live = 0

    def push(self, block):
        """Append the cells of block, (count, 2m + 3), after every cell pushed."""
        start, count = self.rows, len(block)
        if start + count > len(self.data):
            grown = np.empty((max(2 * len(self.data), start + count), self.data.shape[1]))
            grown[:start] = self.data[:start]
            self.data = grown
        self.data[start:start + count] = block
        self.rows, self.live = start + count, self.live + count

    def pop(self, count):
        """Remove the ``count`` worst cells (every cell, when fewer are held)
        and return their rows, ordered by error downwards and, among equal
        errors, by row: the order in which a heap keyed on (-error,
        insertion) pops them.  One rule: the cut is the error of rank
        min(count, live) from the top, popped rows (-inf) lowest; of the
        rows at or above it, the first ``count`` in that order go."""
        error = self.data[:self.rows, -2]
        kth = self.rows - min(count, self.live)
        idx = np.flatnonzero(error >= np.partition(error, kth)[kth])
        idx = idx[np.lexsort((idx, -error[idx]))][:count]
        batch = self.data[idx]
        error[idx] = -np.inf
        self.live -= len(idx)
        return batch

    def held(self):
        """Values and errors of the cells held, as lists."""
        block = self.data[:self.rows]
        block = block[block[:, -2] >= 0.0]
        return block[:, -3].tolist(), block[:, -2].tolist()


def _adaptive(f, los, his, abs_tol, rel_tol, grow=False):
    """Adaptive cubature of vectorized f from the seed cells (los, his);
    returns (value, error, cells, nodes): the leaf cells and the integrand
    evaluations spent on every cell the store ever held, its rows times
    the rule's nodes.

    Each cell carries its value, error and split axis from ``_cell_rule``,
    in an append-only store (:class:`_Cells`); each pass halves the rule's
    number of worst cells, and the running totals drop them in order of
    error, as a heap would pop them.  A pass builds its children as store
    rows, two per popped cell, by copying the popped rows and moving one
    bound of each to the midpoint; the rule reads their corners in place,
    their value, error and axis are written into the same rows, and one
    push appends them.  With ``grow`` the seeds tile a cube [-r, r]^m and
    the region grows over R^m: a shell enters the store while the newest
    one's value exceeds the summed cell error, and that value counts as the
    error of truncating there.  The first shell always enters, in the pass
    after the seed cube's.  Raises
    ConvergenceError with the partial value when the integrand is not
    finite (the value then sums the finite cells), when the leaf cells
    hold ``MAX_NODES`` integrand nodes, or when the error budget lies below
    the roundoff floor of the cell sums.
    """
    m = los.shape[1]
    per_cell, per_pass, rule, _ = _cell_rule(m)
    cells = _Cells(m)
    axis_ids = np.arange(m)

    def push(block):
        """Evaluate the cells whose corners fill block's first 2m columns,
        fill in the rest and store them; returns the sums of value, error
        and |value| over the block's rows."""
        values, errs, axes = rule(f, block[:, :m], block[:, m:-3])
        value, err = float(values.sum()), float(errs.sum())
        # A finite sum has finite terms: only a non-finite one needs the test.
        if not math.isfinite(err):
            finite = np.isfinite(errs)
            if not finite.all():
                raise ConvergenceError(
                    f"integrand is not finite on {int((~finite).sum())} of {len(errs)} new cells",
                    value=math.fsum(cells.held()[0]) + math.fsum(values[finite]),
                )
        block[:, -3], block[:, -2], block[:, -1] = values, errs, axes
        cells.push(block)
        return value, err, float(np.abs(values).sum())

    def seeded(los, his):
        """Evaluate and store the seed cells (los, his); returns their sums."""
        block = np.empty((len(los), 2 * m + 3))
        block[:, :m], block[:, m:-3] = los, his
        return push(block)

    total, error, mass = seeded(los, his)
    # The tail is unknown until a first shell measures it: with ``grow`` the
    # shell branch takes the first pass.
    radius, shells, shell = float(his.max()), 0, (math.inf if grow else 0.0)
    while error + abs(shell) > max(abs_tol, rel_tol * abs(total), ROUNDOFF * mass):
        if abs(shell) > error:
            if shells == MAX_DOUBLINGS:
                raise ConvergenceError(
                    "region over R^m kept growing without the tail shells dying off",
                    value=total,
                    residual=abs(shell),
                )
            shell, de, dm = seeded(*_shell_cells(radius, m))
            total, error, mass = total + shell, error + de, mass + dm
            radius, shells = 2.0 * radius, shells + 1
            continue
        if cells.live * per_cell >= MAX_NODES:
            raise ConvergenceError(
                f"node budget {MAX_NODES} exhausted ({cells.live} cells of {per_cell} nodes)",
                value=total,
                residual=error + abs(shell),
            )
        batch = cells.pop(per_pass)
        for value, err in batch[:, -3:-1].tolist():
            total, error, mass = total - value, error - err, mass - abs(value)
        # Children in the order (lo, hi_mid), (lo_mid, hi) per popped cell.
        split = batch[:, -1:] == axis_ids
        mid = 0.5 * (batch[:, :m] + batch[:, m:-3])
        children = np.repeat(batch, 2, axis=0)
        np.copyto(children[0::2, m:-3], mid, where=split)
        np.copyto(children[1::2, :m], mid, where=split)
        dv, de, dm = push(children)
        total, error, mass = total + dv, error + de, mass + dm

    if error + abs(shell) > max(abs_tol, rel_tol * abs(total)):
        raise ConvergenceError(
            "tolerance lies below the roundoff floor of the cell sums",
            value=total,
            residual=error + abs(shell),
        )
    values, errs = cells.held()
    return math.fsum(values), math.fsum(errs) + abs(shell), len(values), cells.rows * per_cell


def _frame(E: ExpSum):
    """The chart of the region over R^m: metric-normalized coordinates
    x = x0 + W y, as ``functools.partial(_affine_chart, x0, W, jac)`` with
    x0 a column and jac = |det W|.

    x0 is the moment preimage of the support's barycenter, the target 0
    about it, by the kernel's inversion (:func:`.expsum._invert_moment_many`)
    at its one residual: the barycenter of a full-dimensional support is
    interior, so no margin gate applies and a thin support inverts like any
    other.
    W = L^-T from the Cholesky factor g(x0) = L L^T, so W^T g(x0) W = I;
    unlike an eigenbasis, which follows roundoff where g(x0) has a repeated
    eigenvalue, L is continuous in g, so a roundoff change in x0 cannot
    rotate the frame and reorder the cells.  An inversion
    that fails raises ConvergenceError, with the residual read from the
    same row as g(x0), before any cell is integrated.  Built once per
    solve.
    """
    X, ok = _invert_moment_many(E, np.zeros((1, E.dim)))
    _, mu, G = _moments(E, *_softmax(E, X.T)[1:])
    if not ok[0]:
        residual = float(np.linalg.norm(mu[:, 0]))
        message = f"no frame over R^m: damped Newton stopped at residual {residual:.3e}"
        raise ConvergenceError(message, residual=residual)
    L = np.linalg.cholesky(G[..., 0])
    jac = 1.0 / math.prod(L.diagonal().tolist())
    return partial(_affine_chart, X.T, np.linalg.inv(L).T, jac)


def _affine_chart(x0, W, jac, Y):
    """(X, jac): the nodes x0 + W Y of the (m, N) coordinates Y and the
    chart's constant Jacobian jac = |det W|."""
    X = W @ Y
    X += x0
    return X, jac


def _vertex_cells(E: ExpSum):
    """(cell_map, seeds): the Newton polytope P, simple and m <= 3
    (``SupportSet._vertex_corners``), about the support's barycenter
    (``ExpSum._c``), as one combinatorial cube per hull vertex v_i.  Its
    corners are the centroids of the faces of P at v_i: the centroid c of
    P, the facet centroids g_j (in three variables), the midpoints M of the
    edges and v_i itself.  That is the quadrilateral (c, M_{i-1}, v_i, M_i)
    in two variables and the segment [c, v_i] in one.  In two variables c
    lies outside every corner triangle (M_{i-1}, v_i, M_i): such a triangle
    holds at most a quarter of the area, and each side of a line through
    the centroid holds at least 4/9 of it (Gruenbaum), so every cell is
    convex and its map one-to-one.

    cell_map(U) takes the (m, N) cell coordinates U, whose integer part of
    U[0] names the cell, to (Q, jac): the nodes Q (m, N) in P and the
    Jacobian |det dQ/dU| (N,).  Each cell is mapped multilinearly from
    [0, 1]^m and then a = sin t per axis, t in [0, pi/2]: the face a_b = 1
    lies on the b-th facet at v_i, whose distance is (1 - a_b) times a
    smooth factor, so a 1/sqrt(distance) layer and the corner both become
    smooth.  The map is held as its coefficients on the products of the
    a_b, coordinate-major with the vertex last, and gathered with ``take``,
    several times faster than fancy indexing on a pass's nodes; det dQ/da
    is the Leibniz sum over the permutations of its columns.  Every call
    computes its sines and cosines: the moment route reads the map once per
    pass, and the chart over P keeps the seed pass's terms on the support
    (:func:`_chart_part`).  seeds
    (:func:`_vertex_seeds`): 2 per axis per cell in one and two variables,
    whose Gauss nodes never touch the boundary, and 1 in three, 8 cells for
    a cube and 4 for a tetrahedron.  A P with no such cells (past
    three variables, not simple, as the octahedron, or with an incidence
    that does not close) raises InputError before any cell is integrated:
    the sum is outside the cells' domain, not a failure to converge."""
    m = E.dim
    if E.support._vertex_corners is None:
        raise InputError("no vertex cells: the Newton polytope is not simple, or its incidence does not close")
    K = np.moveaxis(E.support._vertex_corners, 0, -1).copy()
    # Differences along each binary axis turn the corners into the coefficients.
    for axis in range(m):
        K[(slice(None),) * axis + (1,)] -= K[(slice(None),) * axis + (0,)]
    K.flags.writeable = False
    signs, n = _leibniz_signs(m), K.shape[-1]

    def cell_map(U):
        # The cell index is the integer part of U[0], and a = sin t per axis,
        # t = pi/2 times the fractional part, with the sine map's Jacobian
        # prod (pi/2) cos t.
        whole = np.floor(U)
        T = U - whole
        T *= 0.5 * np.pi
        a = np.sin(T)
        slope = np.cos(T)
        slope *= 0.5 * np.pi
        # Summing out the binary axes last first leaves Q; the slice at 1 of
        # axis b, summed over the axes before it, is the column dQ/da_b.
        Q = K.take(whole[0].astype(int), axis=-1)
        columns = [None] * m
        for b in reversed(range(m)):
            columns[b] = _sum_out(Q[..., 1, :, :], a[:b])
            Q = _sum_out(Q, a[b:b + 1])
        det = None
        for perm, even in signs:
            term = math.prod((column[row] for column, row in zip(columns[1:], perm[1:])), start=columns[0][perm[0]])
            det = term if det is None else (det + term if even else det - term)
        return Q, np.prod(slope, axis=0) * np.abs(det)

    return cell_map, _vertex_seeds(n, m)


def _leibniz_signs(m):
    """The permutations of range(m), each with True where it is even."""
    return [(perm, sum(p > q for p, q in itertools.combinations(perm, 2)) % 2 == 0)
            for perm in itertools.permutations(range(m))]


# The 8 most recent (n, m): a polygon's seeds take 128 n bytes, and a
# rebuild costs under 1 ms.
@lru_cache(maxsize=8)
def _vertex_seeds(n, m):
    """Seeded cells of n vertex cells in m variables, cell i on
    [i, i + 1] x [0, 1]^(m-1): 2 per axis per cell in one and two
    variables, 1 in three; cached, read-only.  That is 26, 356 and 33 seed
    nodes a vertex, on which the closed forms meet 1e-10 in one and two
    variables and the Kostlan box sums in three; the smaller count in one
    and two variables, 1 per axis, sends the simplices to a second pass."""
    return _read_only(*_seed_grid(((0.0, float(n)),) + ((0.0, 1.0),) * (m - 1), (1 if m == 3 else 2) * n))


def _sum_out(K, a):
    """K[..., 0, :, :] + a_b K[..., 1, :, :] over K's last binary axes, one
    per row of a (r, N), the last first: K of shape (..., 2, ..., 2, m, N)."""
    for b in reversed(range(len(a))):
        S = a[b] * K[..., 1, :, :]
        S += K[..., 0, :, :]
        K = S
    return K


def _over_rm(E: ExpSum):
    """The region of :func:`esol_total` and :func:`bkk_total`, as
    (chart, seeds, grow) for :func:`_integral`.

    A sum with a facet-log start (``ExpSum._facet_start``) whose P is
    simple, every vertex on exactly m facets (``SupportSet._vertex_corners``:
    every P in one or two variables, and in three such as the cube, the
    tetrahedron and the prism, not the octahedron), is integrated over P
    through that map (:func:`_facet_log_chart`).  Every other sum is
    integrated in the frame coordinates y of :func:`_frame`, from the cube
    [-AUTO_RADIUS, AUTO_RADIUS]^m out by shells."""
    if E._facet_start is None or E.support._vertex_corners is None:
        return _frame(E), _cube_cells(AUTO_RADIUS, E.dim), True
    return (*_facet_log_chart(E), False)


def _facet_log_chart(E: ExpSum):
    """(chart, seeds): the region of :func:`_over_rm` over P, the change of
    variables x = x_hat(p) by the facet-log map (:func:`.expsum._facet_log_map`),
    the gradient of Guillemin's symplectic potential, a bijection of the
    interior of P onto R^m, on the cells of :func:`_vertex_cells`, in one,
    two or three variables.

    chart(U) gives the nodes x_hat(p) and |det Dx_hat(p)| times the cell
    Jacobian.  Dx_hat = sum_j S_j nu_j^T / d_j, S_j = nu_j / (2 gap_j), reads
    the facet distances d that x_hat reads, and by Cauchy-Binet its
    determinant is the sum over the sorted m-subsets T of facets
    (:func:`.geometry._sorted_tuples`) of C_T = det S_T det nu_T against the
    products of 1/d over T (:func:`.expsum._sorted_products`), whose terms
    are non-negative: nothing cancels near a facet.  On the canonical toric
    sums (two-term, Kostlan box and simplex sums, their reweightings and
    affine images) x_hat is the inverse moment map, so esol_total's
    integrand is :func:`esol_pspace`'s, with no Newton step, and
    bkk_total's the constant m!/2^m.  A node on or past a facet through
    rounding gets a NaN Jacobian, which raises ConvergenceError with the
    partial value.

    Only x_hat reads the weights (:func:`.expsum._facet_log_x`).  The rest,
    the cell map, C and, at each node, the log distances, the on-facet mask
    and the Jacobian, depend on the support alone and are kept on it
    (``SupportSet._chart``, :func:`_chart_part`) by the first solve over its
    P, with the seed pass's terms where the support has room for them.
    Each chart hands those kept terms to its first call alone, where they
    have that call's node count: :func:`_adaptive`'s first call is the seed
    pass, on the seeds returned here.  Every later call computes its terms,
    since node count alone does not name the seed pass (an octagon's has
    2848 nodes, as has every later pass in two variables)."""
    support = E.support
    if support._chart is None:
        support._chart = _chart_part(E)
    terms, kept = support._chart
    first = iter((kept,))

    def chart(U):
        seed = next(first, None)
        log_d, on_facet, jac = terms(U) if seed is None or len(seed[2]) != U.shape[1] else seed
        return _facet_log_x(E, log_d, on_facet), jac

    return chart, _vertex_seeds(len(support._vertex_corners), E.dim)


def _chart_part(E: ExpSum):
    """(terms, kept): the support part of :func:`_facet_log_chart`, built
    once per support from the facet rows and S of ``E._facet_start``, which
    depend on the support alone.

    terms(U) gives, at the (m, N) cell coordinates U, the log facet
    distances (F, N) of the nodes p of the cell map (:func:`_vertex_cells`),
    a mask (N,) of the nodes on or past a facet and the chart's Jacobian
    |det dQ/dU| C @ prod 1/d (N,), NaN on that mask, with C the
    Cauchy-Binet coefficients of the facets' m-subsets.  kept is terms of
    the seed pass's nodes, the rule's nodes (:func:`_cell_rule`) in every
    cell of :func:`_vertex_seeds` as :func:`_apply_rule` builds them,
    read-only, or None where those terms, (8 F + 9) bytes a node, pass the
    bytes the support leaves beside its Cauchy-Binet block
    (``SupportSet._spare_bytes``): 26 n, 356 n and 33 n nodes for n
    vertices in one, two and three variables, so every polygon up to the
    12-gon keeps them.  The Jacobian sums C_T prod 1/d over the m-subsets
    T one row after another (:func:`.expsum._term_sum`), not by a BLAS
    product, whose rounding follows the call's node count, so a node's
    terms do not depend on its batch and the kept terms are those any call
    computes."""
    # The closures hold support arrays alone, never the sum E.
    m, (S, rows, _) = E.dim, E._facet_start
    nu = -rows[:, :-1]
    T = _sorted_tuples(len(S), m)
    C = _read_only(np.linalg.det(S[T]) * np.linalg.det(nu[T]))[0]
    cell_map, (los, his) = _vertex_cells(E)

    def terms(U):
        Q, jac = cell_map(U)
        d, log_d = _facet_distances(rows, Q)
        on_facet = ~(d.min(axis=0) > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            products = _sorted_products(np.reciprocal(d, out=d), m)
            products *= C[:, None]
            jac *= _term_sum(products)
        np.copyto(jac, np.nan, where=on_facet)
        return log_d, on_facet, jac

    per_cell, _, _, nodes = _cell_rule(m)
    if (8 * len(S) + 9) * len(los) * per_cell > E.support._spare_bytes:
        return terms, None
    return terms, _read_only(*terms(_cell_nodes(nodes, 0.5 * (his - los), los, his)))


def _integral(E: ExpSum, q: Quadrature | None, route: str, f, region) -> IntegralResult:
    """The one driver of every integral: f(x) |det Dx| over region(E).

    f is the density, f(X) at the (m, N) nodes X, coordinate-major.
    region(E) gives (chart, seeds, grow): the chart takes the (m, N) cell
    coordinates U to (X, |det Dx|), the seeds are the first cells (los, his)
    of :func:`_adaptive` and ``grow`` makes it grow them over R^m by shells.
    Takes the default :class:`Quadrature` for ``q=None``, and returns 0 on
    a degenerate support (dim conv(A) < m), which carries zero density,
    before the region is built."""
    q = q or Quadrature()
    if E.support.degenerate:
        return IntegralResult(0.0, 0.0, route, 0, 0)
    chart, seeds, grow = region(E)

    def integrand(U):
        X, jac = chart(U)
        return f(X) * jac

    value, error, cells, nodes = _adaptive(integrand, *seeds, q.abs_tol, q.rel_tol, grow=grow)
    return IntegralResult(value, error, route, cells, nodes)


# ---------------------------------------------------------------------------
# Public integrals


def esol_total(E: ExpSum, q: Quadrature | None = None) -> IntegralResult:
    """Expected number of zeros: the density integrated over R^m.

    A sum with a facet-log start (``ExpSum._facet_start``: the canonical
    toric sums and sums near them) whose Newton polytope is simple (every
    polytope in one or two variables; in three, each vertex on three
    facets) is integrated over that polytope through the facet-log map,
    with no frame, cube or shells; its closed forms in one and two
    variables converge on their 4, 12 or 16 seed cells, and the Kostlan
    box sums in three on their 8.  Every other sum is integrated in
    metric-normalized coordinates, from a cube out by shells until the
    newest is negligible.  Either way the route is reported as "x".
    Degenerate supports (dim conv(A) < m) carry zero density and return 0.
    """
    # density_many takes rows, and the transposed view hands its kernel the
    # coordinate-major nodes without a copy; it is called through this
    # module's global, where perfbench counts the nodes.
    return _integral(E, q, "x", lambda X: density_many(E, X.T), _over_rm)


def esol_region(E: ExpSum, U, q: Quadrature | None = None) -> IntegralResult:
    """Expected number of zeros with x restricted to the box U, checked by
    :func:`.geometry._check_box`; 8 seed cells on its longest axis.

    Additive over disjoint boxes; used for decrease/increase-region
    comparisons between a sum and its augmentation.
    """
    box = _check_box(U, E.dim)
    region = lambda _: (lambda U: (U, 1.0), _seed_grid(box, 8), False)
    return _integral(E, q, "x", lambda X: density_many(E, X.T), region)


def esol_pspace(E: ExpSum, q: Quadrature | None = None) -> IntegralResult:
    """Expected number of zeros via the Newton-polytope route (m <= 3,
    simple P).

    Integrates the Legendre-transform density over the polytope P, split
    into one sine-mapped cell per hull vertex (:func:`_vertex_cells`, the
    cells ``esol_total`` takes over P), so the 1/sqrt(distance) layer and
    the corners become smooth; the density is taken at each node's moment
    preimage.  All cells share one adaptive integral, seeded as
    :func:`_vertex_seeds` seeds them, all relative to the support's
    barycenter (``ExpSum._c``).  It refuses before any cell is integrated,
    with InputError: past three variables (flat or not, before the
    degenerate case's 0), and on a full-dimensional P with no vertex cells,
    such as the octahedron or the square pyramid.  A failed moment
    inversion makes the integrand NaN, which raises ConvergenceError with
    the partial value.

    The claimed error is the cells' quadrature error alone: it leaves out
    the moment-inversion residual, ``INVERT_TOL`` (1 + diam P), about
    ``INVERT_TOL`` (1 + diam P) / (2 d) relative at distance d from a facet
    (:func:`.expsum.legendre_density`), a few 1e-13 on the sums measured.
    On ``kostlan(1, 2)`` with weights times e^(1e-3 xi) the value lies
    2.4e-13 below esol_total's and claims 6.0e-14, at every tolerance from
    1e-7 to 1e-13: a claim below about 3e-13 can understate the error, and
    a tolerance below about 3e-13 can see it in the value.
    """
    m = E.dim
    if m > 3:
        raise InputError("the moment route's vertex cells are limited to three variables")
    prefactor = 1.0 / (2.0 ** ((m - 2) / 2.0) * ball_sphere_constants(m)[1])
    f = lambda Q: prefactor * _legendre_density_many(E, Q.T)
    return _integral(E, q, "p", f, lambda E: (*_vertex_cells(E), False))


@dataclass(frozen=True)
class LowerBoundReport:
    """Comparison of the expected zero count against its volume bound.

    The bound is vol_m(P) / (2^{m-1} s_m diam(P)^m); ``strict`` records
    esol > bound.  Degenerate polytopes make both sides zero and the
    inequality vacuous."""

    esol: float
    esol_error: float
    bound: float
    volume: float
    diam: float
    degenerate: bool
    strict: bool


def lower_bound_check(E: ExpSum, q: Quadrature | None = None) -> LowerBoundReport:
    """Evaluate both sides of the volume lower bound for esol (m <= 3)."""
    volume = hull_volume(E.support)
    if E.support.degenerate:
        return LowerBoundReport(0.0, 0.0, 0.0, volume, diameter(E.support), True, False)
    m = E.dim
    d = diameter(E.support)
    bound = volume / (2.0 ** (m - 1) * ball_sphere_constants(m)[1] * d**m)
    result = esol_total(E, q)
    return LowerBoundReport(
        esol=result.value,
        esol_error=result.error,
        bound=bound,
        volume=volume,
        diam=d,
        degenerate=False,
        strict=result.value > bound,
    )
