"""Expected number of real zeros, by numerical integration.

Two routes to the same number:

* the x-space route integrates the zero density (2/s_m) sqrt(det g_x)
  over R^m (:func:`esol_total`) in metric-normalized coordinates
  x = x0 + W y, where x0 is the moment preimage of the support's
  barycenter and W^T g(x0) W = I, so the region sits in the same place
  relative to the support under every affine map of it, thin supports
  included: the cube [-4, 4]^m, then shells [-2r, 2r]^m minus [-r, r]^m for as long as
  the newest shell outweighs the error of the cells already in hand
  (:func:`esol_region` integrates the same density over a box alone);
* the moment-space route integrates the Legendre-transform density over
  the Newton polytope (m <= 2), split into one quadrilateral per hull
  vertex and mapped so that the square-root boundary layer and the
  vertex corners are smooth up to the boundary.

Both routes invert the moment map by the kernel's one rule
(:func:`.expsum._invert_moment_many`, residual ``INVERT_TOL`` (1 + diam P)
on the centred copy): the x route once, for x0, and the moment route at
every integrand node.

Every integral, in every dimension, is one adaptive heap of cells, each
with an embedded pair of rules whose difference is its error estimate.
The dimension alone picks the pair: in one and two variables, the tensor
Gauss-Legendre rule of 8 points per axis for the value (degree 15) and
that of 5 points for the error (degree 9), and a cell is halved along its
longest side; from three on, the Genz-Malik degree-7/5 pair (33 nodes
against 637 in 3-D), and a cell is halved along the axis of largest
fourth difference.  Each pair is one node set with a weight column per
rule, built once per dimension (``_cell_rule``), so every batch of cells
costs one integrand call.  The nodes of a batch go to the integrand
coordinate-major, as one (m, N) array, the layout of the kernel's
:func:`.expsum._softmax`.  The worst cells are split until the summed
cell error, plus the newest shell's value when the region grows, meets
one budget max(abs_tol, rel_tol |total|); the leaf cells may hold at most
``MAX_NODES`` integrand nodes.  Final sums are compensated (math.fsum),
so results do not depend on evaluation order.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, InputError
from .expsum import ExpSum, _batch_moments, _invert_moment_many, _legendre_density_many, density_many
# ``invert_moment`` is imported for perfbench's tracer, which wraps it as an
# integrate boundary; nothing here calls it.
from .expsum import invert_moment  # noqa: F401
from .geometry import _check_box, _grid, ball_sphere_constants, diameter, hull_volume

__all__ = [
    "Quadrature",
    "IntegralResult",
    "esol_total",
    "esol_region",
    "esol_pspace",
    "LowerBoundReport",
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

    Both tolerances must be finite and positive real numbers, not bools.
    The region is the integrator's: R^m for :func:`esol_total`, the Newton
    polytope for :func:`esol_pspace`, a box only through
    :func:`esol_region`.
    """

    abs_tol: float = 1e-7
    rel_tol: float = 1e-7

    def __post_init__(self):
        tols = (self.abs_tol, self.rel_tol)
        try:
            ok = all(0.0 < tol < math.inf and not isinstance(tol, (bool, np.bool_)) for tol in tols)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise InputError("tolerances must be finite and positive real numbers")


@dataclass(frozen=True)
class IntegralResult:
    """Converged integral with its error estimate and work counters.

    ``error`` meets the request's budget max(abs_tol, rel_tol |value|)
    (an integral that cannot meet it raises ConvergenceError);
    ``cells`` counts leaf cells of the adaptive heap, and ``nodes`` the
    integrand evaluations spent on every cell it ever held: cells
    evaluated times the nodes of the rule (13, 89 and 33 a cell in one,
    two and three variables).  The budget counts nodes too: the leaf cells
    may hold at most ``MAX_NODES`` of them."""

    value: float
    error: float
    route: str
    cells: int
    nodes: int


# ---------------------------------------------------------------------------
# One adaptive heap; the rule for its cells depends on the dimension alone

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


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _cell_rule(m):
    """The rule pair for m-dimensional cells: (nodes per cell, apply), where
    apply(f, los, his) gives each cell's value, error and split axis from
    one call of f on the nodes of every cell.  Built once per dimension;
    apply is ``functools.partial(_apply_rule, nodes, weights)`` on
    read-only arrays, nodes coordinate-major (m, n).

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
    return len(weights), partial(_apply_rule, nodes, weights)


def _apply_rule(nodes, weights, f, los, his):
    """Value, error and split axis of each cell (los, his), each (C, m),
    from one call of f on the (m, C n) array of every cell's nodes, cell
    by cell; see :func:`_cell_rule`."""
    m, n = nodes.shape
    half = 0.5 * (his - los)
    pts = (0.5 * (his + los)).T[:, :, None] + half.T[:, :, None] * nodes[:, None, :]
    vals = f(pts.reshape(m, -1)).reshape(len(los), n)
    sums = np.prod(half, axis=1) * (vals @ weights).T
    if m < 3:
        axes = np.argmax(his - los, axis=1)
    else:
        # The Jacobian scales a cell's differences alike, so it leaves the argmax.
        axes = np.argmax(np.abs(sums[2:]), axis=0)
    return sums[0], np.abs(sums[0] - sums[1]), axes


def _seed_grid(box, per_axis):
    """Initial subdivision: roughly isotropic cells, per_axis on the longest
    axis; returns the lower and upper corners of the cells, row-major."""
    m = len(box)
    lengths = np.array([b - a for a, b in box])
    counts = np.maximum(1, np.round(per_axis * lengths / lengths.max()).astype(int))
    resolution, _, edges = _grid(box, counts + 1)
    edges = edges.reshape(resolution + (m,))
    return edges[(slice(-1),) * m].reshape(-1, m), edges[(slice(1, None),) * m].reshape(-1, m)


# The region over R^m only ever takes r = AUTO_RADIUS * 2^j, so both caches stay
# small: one entry per (r, m) a solve reaches, shared by every later solve.
@lru_cache(maxsize=None)
def _cube_cells(r, m):
    """Seeded cells of the cube [-r, r]^m; cached, read-only."""
    return _read_only(*_seed_grid(((-r, r),) * m, 4))


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


def _adaptive(f, los, his, abs_tol, rel_tol, grow=False):
    """Adaptive cubature of vectorized f from the seed cells (los, his);
    returns (value, error, cells, nodes): the leaf cells and the integrand
    evaluations spent on every cell the heap ever held.

    Each cell carries its value, error and split axis from ``_cell_rule``;
    the 16 worst are halved at a time.  With ``grow`` the seeds tile a cube
    [-r, r]^m and the region grows over R^m: a shell enters the heap while
    the newest one's value exceeds the summed cell error, and that value
    counts as the error of truncating there.  Raises ConvergenceError with
    the partial value when the integrand is not finite (the value then sums
    the finite cells), when the leaf cells hold ``MAX_NODES`` integrand
    nodes, or when the error budget lies below the roundoff floor of the
    cell sums.
    """
    m = los.shape[1]
    per_cell, rule = _cell_rule(m)
    heap = []
    order = itertools.count()
    evaluated = 0

    def push(los, his):
        """Evaluate cells, push them; returns sums of value, error and |value|."""
        nonlocal evaluated
        values, errs, axes = rule(f, los, his)
        evaluated += len(values)
        finite = np.isfinite(errs)
        if not finite.all():
            raise ConvergenceError(
                f"integrand is not finite on {int((~finite).sum())} of {len(errs)} new cells",
                value=math.fsum(entry[4] for entry in heap) + math.fsum(values[finite]),
            )
        # Entries (-error, insertion order, lo, hi, value, split axis).
        columns = ((-errs).tolist(), order, los.tolist(), his.tolist(), values.tolist(), axes.tolist())
        for entry in zip(*columns):
            heapq.heappush(heap, entry)
        return float(values.sum()), float(errs.sum()), float(np.abs(values).sum())

    total, error, mass = push(los, his)
    # The tail is unknown until a first shell measures it.
    shell, radius, shells = (math.inf if grow else 0.0), float(his.max()), 0
    while error + abs(shell) > max(abs_tol, rel_tol * abs(total), ROUNDOFF * mass):
        if abs(shell) > error:
            if shells == MAX_DOUBLINGS:
                raise ConvergenceError(
                    "region over R^m kept growing without the tail shells dying off",
                    value=total,
                    residual=abs(shell),
                )
            shell, de, dm = push(*_shell_cells(radius, m))
            total, error, mass = total + shell, error + de, mass + dm
            radius, shells = 2.0 * radius, shells + 1
            continue
        if len(heap) * per_cell >= MAX_NODES:
            raise ConvergenceError(
                f"node budget {MAX_NODES} exhausted ({len(heap)} cells of {per_cell} nodes)",
                value=total,
                residual=error + abs(shell),
            )
        batch = [heapq.heappop(heap) for _ in range(min(16, len(heap)))]
        for neg_err, _, _, _, value, _ in batch:
            total, error, mass = total - value, error + neg_err, mass - abs(value)
        _, _, lo, hi, _, axis = zip(*batch)
        lo, hi, split = np.array(lo), np.array(hi), (np.arange(len(batch)), list(axis))
        lo_mid, hi_mid = lo.copy(), hi.copy()
        lo_mid[split] = hi_mid[split] = 0.5 * (lo[split] + hi[split])
        # Children in the order (lo, hi_mid), (lo_mid, hi) per popped cell.
        child_los = np.stack([lo, lo_mid], axis=1).reshape(-1, m)
        child_his = np.stack([hi_mid, hi], axis=1).reshape(-1, m)
        dv, de, dm = push(child_los, child_his)
        total, error, mass = total + dv, error + de, mass + dm

    if error + abs(shell) > max(abs_tol, rel_tol * abs(total)):
        raise ConvergenceError(
            "tolerance lies below the roundoff floor of the cell sums",
            value=total,
            residual=error + abs(shell),
        )
    value = math.fsum(entry[4] for entry in heap)
    error = math.fsum(-entry[0] for entry in heap) + abs(shell)
    return value, error, len(heap), evaluated * per_cell


def _over_rm(f, E: ExpSum, abs_tol, rel_tol):
    """Integrate f over R^m in metric-normalized coordinates x = x0 + W y;
    f takes points coordinate-major, (m, N).

    x0 is the moment preimage of the support's barycenter, by the kernel's
    inversion (:func:`.expsum._invert_moment_many`) at its one residual:
    the barycenter of a full-dimensional support is interior, so no margin
    gate applies and a thin support inverts like any other.
    W = V diag(lam)^(-1/2) from g(x0) = V diag(lam) V^T.  An inversion
    that fails raises ConvergenceError, with the residual read from the
    same row as g(x0), before any cell is integrated.
    """
    c = E._centred[0]
    X, ok = _invert_moment_many(E, c[None])
    _, _, mu, G = _batch_moments(E, X)
    if not ok[0]:
        residual = float(np.linalg.norm(mu[0] - c))
        message = f"no frame over R^m: damped Newton stopped at residual {residual:.3e}"
        raise ConvergenceError(message, residual=residual)
    x0 = X[0]
    lam, V = np.linalg.eigh(G[0])
    W = V / np.sqrt(lam)
    jac = abs(float(np.linalg.det(W)))
    return _adaptive(
        lambda Y: jac * f(x0[:, None] + W @ Y), *_cube_cells(AUTO_RADIUS, E.dim), abs_tol, rel_tol,
        grow=True,
    )


# ---------------------------------------------------------------------------
# Public integrals


def esol_total(E: ExpSum, q: Quadrature | None = None) -> IntegralResult:
    """Expected number of zeros: the density integrated over R^m.

    The heap starts on a cube in metric-normalized coordinates and adds
    shells until the newest is negligible.  Degenerate supports
    (dim conv(A) < m) carry zero density and return 0.
    """
    q = q or Quadrature()
    if E.support.degenerate:
        return IntegralResult(0.0, 0.0, "x", 0, 0)
    # density_many takes rows: the transposed view hands its kernel the
    # coordinate-major nodes without a copy.
    value, error, cells, nodes = _over_rm(lambda X: density_many(E, X.T), E, q.abs_tol, q.rel_tol)
    return IntegralResult(value, error, "x", cells, nodes)


def esol_region(E: ExpSum, U, q: Quadrature | None = None) -> IntegralResult:
    """Expected number of zeros with x restricted to the box U, checked by
    :func:`.geometry._check_box`; 8 seed cells on its longest axis.

    Additive over disjoint boxes; used for decrease/increase-region
    comparisons between a sum and its augmentation.
    """
    box = _check_box(U, E.dim)
    q = q or Quadrature()
    if E.support.degenerate:
        return IntegralResult(0.0, 0.0, "x", 0, 0)
    f = lambda X: density_many(E, X.T)
    value, error, cells, nodes = _adaptive(f, *_seed_grid(box, 8), q.abs_tol, q.rel_tol)
    return IntegralResult(value, error, "x", cells, nodes)


def esol_pspace(E: ExpSum, q: Quadrature | None = None) -> IntegralResult:
    """Expected number of zeros via the Newton-polytope route (m <= 2).

    Integrates the Legendre-transform density over the polytope P, split
    into one cell per hull vertex v_i: the quadrilateral
    (c, M_{i-1}, v_i, M_i) from the centroid c of P and the midpoints M of
    the edges at v_i (in one variable, the segment [c, v_i]).  Each cell
    is mapped bilinearly from [0, 1]^m and then a = sin t per axis, t in
    [0, pi/2]: the distances to the two facets at v_i are (1 - a) and
    (1 - b) times smooth factors, so the 1/sqrt(distance) layer and the
    corner both become smooth.  All cells share one adaptive heap, seeded
    4 per axis per cell, whose Gauss nodes never touch the boundary, all
    relative to the support's barycenter (``ExpSum._centred``).  A failed
    moment inversion makes the integrand NaN, which raises
    ConvergenceError with the partial value.
    """
    q = q or Quadrature()
    if E.support.degenerate:
        return IntegralResult(0.0, 0.0, "p", 0, 0)
    m = E.dim
    if m > 2:
        raise InputError("moment-space integration is limited to two variables")
    prefactor = 1.0 / (2.0 ** ((m - 2) / 2.0) * ball_sphere_constants(m)[1])
    V = E.support.vertices - E._centred[0]
    n = V.shape[0]
    # The per-vertex maps are held coordinate-major, like the nodes: vertex
    # i is column i of A, B and D.
    if m == 1:
        c = V.mean(axis=0)
        A = (V - c).T
    else:
        # The centroid of P lies outside every corner triangle (M_{i-1}, v_i,
        # M_i): such a triangle holds at most a quarter of the area, and each
        # side of a line through the centroid holds at least 4/9 of it
        # (Gruenbaum).  So every cell is convex and its map one-to-one.
        nxt = np.roll(V, -1, axis=0)
        cross = V[:, 0] * nxt[:, 1] - nxt[:, 0] * V[:, 1]
        c = ((V + nxt) * cross[:, None]).sum(axis=0) / (3.0 * cross.sum())
        A = (0.5 * (np.roll(V, 1, axis=0) + V) - c).T
        B = (0.5 * (V + nxt) - c).T
        D = (V - c).T - A - B
    c = c[:, None]

    def f(U):
        """Density times Jacobian at the (m, N) nodes U; the integer part of
        U[0] is the cell."""
        whole = np.floor(U)
        i = whole[0].astype(int)
        T = 0.5 * np.pi * (U - whole)
        a = np.sin(T)
        jac = np.prod(0.5 * np.pi * np.cos(T), axis=0)
        if m == 1:
            Q = c + a * A[:, i]
            jac = jac * np.abs(A[0, i])
        else:
            Ja = A[:, i] + a[1] * D[:, i]
            Jb = B[:, i] + a[0] * D[:, i]
            Q = c + a[0] * A[:, i] + a[1] * Jb
            jac = jac * np.abs(Ja[0] * Jb[1] - Ja[1] * Jb[0])
        return prefactor * jac * _legendre_density_many(E, Q.T)

    seeds = _seed_grid(((0.0, float(n)),) + ((0.0, 1.0),) * (m - 1), 4 * n)
    value, error, cells, nodes = _adaptive(f, *seeds, q.abs_tol, q.rel_tol)
    return IntegralResult(value, error, "p", cells, nodes)


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
