"""Expected number of real zeros, by numerical integration.

Two routes to the same number:

* the x-space route integrates the zero density (2/s_m) sqrt(det g_x)
  over R^m.  With ``box="auto"`` it works in metric-normalized
  coordinates x = x0 + W y, where x0 is the moment preimage of the
  support's barycenter and W^T g(x0) W = I, so the region sits in the
  same place relative to the support under every affine map of it: the
  cube [-4, 4]^m, then shells [-2r, 2r]^m minus [-r, r]^m for as long as
  the newest shell outweighs the error of the cells already in hand;
* the moment-space route integrates the Legendre-transform density over
  the Newton polytope (m <= 2), split into one quadrilateral per hull
  vertex and mapped so that the square-root boundary layer and the
  vertex corners are smooth up to the boundary.

Every integral, in every dimension, is one adaptive heap of cells, each
with a pair of tensor Gauss-Legendre rules (4 and 8 points per axis)
whose difference is its error estimate.  The worst cells are halved
along their longest side until the summed cell error, plus the newest
shell's value when the region grows, meets one budget
max(abs_tol, rel_tol |total|).  Final sums are compensated (math.fsum),
so results do not depend on evaluation order.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, InputError
from .expsum import (
    ExpSum,
    _batch_moments,
    _legendre_density_many,
    density_many,
    invert_moment,
)
from .geometry import ball_sphere_constants, diameter, hull_volume

__all__ = [
    "Quadrature",
    "IntegralResult",
    "esol_total",
    "esol_region",
    "esol_pspace",
    "LowerBoundReport",
    "lower_bound_check",
]

#: Subdivision budget per adaptive integral.
MAX_CELLS = 40000
#: Half-width of the first AUTO cube, in metric-normalized coordinates.
AUTO_RADIUS = 4.0
#: Maximum number of AUTO shells.  Each doubles the radius; the density
#: reaches out to about 1/(smallest gap) in units of the frame that the
#: largest gaps set, so 2^24 covers gaps spanning about seven decades.
MAX_DOUBLINGS = 24
#: Summed cell errors cannot fall below this multiple of the summed
#: absolute cell values: the rounding of the rule sums themselves.
ROUNDOFF = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class Quadrature:
    """Integration request: tolerances and region.

    ``box`` is "auto" for all of R^m, or a per-axis sequence of (lo, hi)
    pairs ((lo, hi) alone is accepted in one variable).
    """

    abs_tol: float = 1e-7
    rel_tol: float = 1e-7
    box: object = "auto"

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise InputError("tolerances must be positive")


@dataclass(frozen=True)
class IntegralResult:
    """Converged integral with its error estimate and work counter.

    ``error`` meets the request's budget max(abs_tol, rel_tol |value|)
    (an integral that cannot meet it raises ConvergenceError);
    ``cells`` counts leaf cells of the adaptive heap."""

    value: float
    error: float
    route: str
    cells: int


def _normalize_box(box, m: int):
    """Coerce box input to a tuple of m (lo, hi) float pairs."""
    box = np.asarray(box, dtype=float)
    if box.shape == (2,) and m == 1:
        box = box[None, :]
    if box.shape != (m, 2):
        raise InputError(f"box must give (lo, hi) for each of {m} axes")
    if not np.all(np.isfinite(box)) or np.any(box[:, 0] >= box[:, 1]):
        raise InputError("box must give finite lo < hi per axis")
    return tuple((float(a), float(b)) for a, b in box)


# ---------------------------------------------------------------------------
# One adaptive heap with paired tensor Gauss-Legendre rules

_GL_COARSE = leggauss(4)
_GL_FINE = leggauss(8)


def _tensor_rule(rule, m):
    """Tensor-product nodes ((n, m), weights (n,)) on [-1, 1]^m."""
    nodes1, weights1 = rule
    grids = np.meshgrid(*([nodes1] * m), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([weights1] * m), indexing="ij")
    weights = np.prod(np.stack([w.ravel() for w in wgrids], axis=1), axis=1)
    return nodes, weights


def _cell_quadrature(f, los, his, nodes, weights):
    """Apply one reference rule to a batch of cells; returns per-cell values."""
    n_cells = los.shape[0]
    half = 0.5 * (his - los)
    mid = 0.5 * (his + los)
    pts = mid[:, None, :] + half[:, None, :] * nodes[None, :, :]
    vals = f(pts.reshape(-1, los.shape[1])).reshape(n_cells, -1)
    jac = np.prod(half, axis=1)
    return jac * (vals @ weights)


def _seed_grid(box, per_axis):
    """Initial subdivision: roughly isotropic cells, per_axis on the longest axis."""
    lengths = np.array([b - a for a, b in box])
    counts = np.maximum(1, np.round(per_axis * lengths / lengths.max()).astype(int))
    edges = [np.linspace(a, b, c + 1) for (a, b), c in zip(box, counts)]
    grids_lo = np.meshgrid(*[e[:-1] for e in edges], indexing="ij")
    grids_hi = np.meshgrid(*[e[1:] for e in edges], indexing="ij")
    los = np.stack([g.ravel() for g in grids_lo], axis=1)
    his = np.stack([g.ravel() for g in grids_hi], axis=1)
    return los, his


def _shell_cells(r, m):
    """Seeded cells of the 2m slabs that tile [-2r, 2r]^m minus [-r, r]^m."""
    grids = []
    for axis in range(m):
        for side in ((-2.0 * r, -r), (r, 2.0 * r)):
            slab = [(-2.0 * r, 2.0 * r)] * axis + [side] + [(-r, r)] * (m - axis - 1)
            grids.append(_seed_grid(slab, 4))
    return np.concatenate([g[0] for g in grids]), np.concatenate([g[1] for g in grids])


def _adaptive(f, los, his, abs_tol, rel_tol, grow=False):
    """Adaptive cubature of vectorized f from the seed cells (los, his);
    returns (value, error, cells).

    With ``grow`` the seeds tile a cube [-r, r]^m and the region grows
    over R^m: a shell enters the heap while the newest one's value exceeds
    the summed cell error, and that value counts as the error of
    truncating there.  Raises ConvergenceError with the partial value when
    the integrand is not finite (the value then sums the finite cells),
    the cell budget runs out, or the error budget lies below the roundoff
    floor of the cell sums.
    """
    m = los.shape[1]
    rules = [_tensor_rule(rule, m) for rule in (_GL_COARSE, _GL_FINE)]
    heap = []
    order = itertools.count()

    def push(los, his):
        """Evaluate cells, push them; returns sums of value, error and |value|."""
        coarse, fine = (_cell_quadrature(f, los, his, *rule) for rule in rules)
        errs = np.abs(fine - coarse)
        finite = np.isfinite(errs)
        if not finite.all():
            raise ConvergenceError(
                f"integrand is not finite on {int((~finite).sum())} of {len(errs)} new cells",
                value=math.fsum(entry[4] for entry in heap) + math.fsum(fine[finite]),
            )
        for lo, hi, value, err in zip(los, his, fine, errs):
            heapq.heappush(heap, (-float(err), next(order), tuple(lo), tuple(hi), float(value)))
        return float(fine.sum()), float(errs.sum()), float(np.abs(fine).sum())

    total, error, mass = push(los, his)
    # The tail is unknown until a first shell measures it.
    shell, radius, shells = (math.inf if grow else 0.0), float(his.max()), 0
    while error + abs(shell) > max(abs_tol, rel_tol * abs(total), ROUNDOFF * mass):
        if abs(shell) > error:
            if shells == MAX_DOUBLINGS:
                raise ConvergenceError(
                    "AUTO region kept growing without the tail shells dying off",
                    value=total,
                    residual=abs(shell),
                )
            shell, de, dm = push(*_shell_cells(radius, m))
            total, error, mass = total + shell, error + de, mass + dm
            radius, shells = 2.0 * radius, shells + 1
            continue
        if len(heap) >= MAX_CELLS:
            raise ConvergenceError(
                f"cell budget {MAX_CELLS} exhausted", value=total, residual=error + abs(shell)
            )
        batch = [heapq.heappop(heap) for _ in range(min(16, len(heap)))]
        los, his = [], []
        for neg_err, _, lo, hi, value in batch:
            total -= value
            error += neg_err
            mass -= abs(value)
            lo, hi = np.asarray(lo), np.asarray(hi)
            axis = int(np.argmax(hi - lo))
            mid = 0.5 * (lo[axis] + hi[axis])
            child_hi, child_lo = hi.copy(), lo.copy()
            child_hi[axis] = mid
            child_lo[axis] = mid
            los += [lo, child_lo]
            his += [child_hi, hi]
        dv, de, dm = push(np.asarray(los), np.asarray(his))
        total, error, mass = total + dv, error + de, mass + dm

    if error + abs(shell) > max(abs_tol, rel_tol * abs(total)):
        raise ConvergenceError(
            "tolerance lies below the roundoff floor of the cell sums",
            value=total,
            residual=error + abs(shell),
        )
    value = math.fsum(entry[4] for entry in heap)
    error = math.fsum(-entry[0] for entry in heap) + abs(shell)
    return value, error, len(heap)


def _over_rm(f, E: ExpSum, abs_tol, rel_tol):
    """Integrate f over R^m in metric-normalized coordinates x = x0 + W y.

    x0 is the moment preimage of the support's barycenter and
    W = V diag(lam)^(-1/2) from g(x0) = V diag(lam) V^T.  An inversion
    that fails raises ConvergenceError before any cell is integrated.
    """
    try:
        x0 = invert_moment(E, E.support.points.mean(axis=0))
    except ConvergenceError as exc:
        raise ConvergenceError(f"no AUTO frame: {exc}", residual=exc.residual) from exc
    _, _, G = _batch_moments(E, x0[None, :])
    lam, V = np.linalg.eigh(G[0])
    W = V / np.sqrt(lam)
    jac = abs(float(np.linalg.det(W)))
    cube = ((-AUTO_RADIUS, AUTO_RADIUS),) * E.dim
    return _adaptive(
        lambda Y: jac * f(x0 + Y @ W.T), *_seed_grid(cube, 4), abs_tol, rel_tol, grow=True
    )


# ---------------------------------------------------------------------------
# Public integrals


def esol_total(E: ExpSum, q: Quadrature | None = None) -> IntegralResult:
    """Expected number of zeros: the density integrated over R^m.

    With ``box="auto"`` the heap starts on a cube in metric-normalized
    coordinates and adds shells until the newest is negligible; an
    explicit box integrates over it alone.  Degenerate supports
    (dim conv(A) < m) carry zero density and return 0.
    """
    q = q or Quadrature()
    if E.support.degenerate:
        return IntegralResult(0.0, 0.0, "x", 0)
    f = lambda X: density_many(E, X)
    if isinstance(q.box, str):
        if q.box != "auto":
            raise InputError(f"box must be 'auto' or explicit bounds, got {q.box!r}")
        value, error, cells = _over_rm(f, E, q.abs_tol, q.rel_tol)
    else:
        box = _normalize_box(q.box, E.dim)
        value, error, cells = _adaptive(f, *_seed_grid(box, 8), q.abs_tol, q.rel_tol)
    return IntegralResult(value, error, "x", cells)


def esol_region(E: ExpSum, U, q: Quadrature | None = None) -> IntegralResult:
    """Expected number of zeros with x restricted to the box U: the same
    as ``esol_total`` with ``box=U``.

    Additive over disjoint boxes; used for decrease/increase-region
    comparisons between a sum and its augmentation.
    """
    return esol_total(E, replace(q or Quadrature(), box=U))


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
    4 per axis per cell, whose Gauss nodes never touch the boundary.  A
    failed moment inversion makes the integrand NaN, which raises
    ConvergenceError with the partial value.
    """
    q = q or Quadrature()
    if E.support.degenerate:
        return IntegralResult(0.0, 0.0, "p", 0)
    m = E.dim
    if m > 2:
        raise InputError("moment-space integration is limited to two variables")
    prefactor = 1.0 / (2.0 ** ((m - 2) / 2.0) * ball_sphere_constants(m)[1])
    V = E.support.vertices
    n = V.shape[0]
    if m == 1:
        c = V.mean(axis=0)
        A = V - c
    else:
        # The centroid of P lies outside every corner triangle (M_{i-1}, v_i,
        # M_i): such a triangle holds at most a quarter of the area, and each
        # side of a line through the centroid holds at least 4/9 of it
        # (Gruenbaum).  So every cell is convex and its map one-to-one.
        nxt = np.roll(V, -1, axis=0)
        cross = V[:, 0] * nxt[:, 1] - nxt[:, 0] * V[:, 1]
        c = ((V + nxt) * cross[:, None]).sum(axis=0) / (3.0 * cross.sum())
        A = 0.5 * (np.roll(V, 1, axis=0) + V) - c
        B = 0.5 * (V + nxt) - c
        D = V - c - A - B

    def f(U):
        """Density times Jacobian; the integer part of U[:, 0] is the cell."""
        whole = np.floor(U)
        i = whole[:, 0].astype(int)
        T = 0.5 * np.pi * (U - whole)
        a = np.sin(T)
        jac = np.prod(0.5 * np.pi * np.cos(T), axis=1)
        if m == 1:
            P = c + a * A[i]
            jac = jac * np.abs(A[i, 0])
        else:
            Ja = A[i] + a[:, 1:] * D[i]
            Jb = B[i] + a[:, :1] * D[i]
            P = c + a[:, :1] * A[i] + a[:, 1:] * Jb
            jac = jac * np.abs(Ja[:, 0] * Jb[:, 1] - Ja[:, 1] * Jb[:, 0])
        return prefactor * jac * _legendre_density_many(E, P)

    seeds = _seed_grid(((0.0, float(n)),) + ((0.0, 1.0),) * (m - 1), 4 * n)
    value, error, cells = _adaptive(f, *seeds, q.abs_tol, q.rel_tol)
    return IntegralResult(value, error, "p", cells)


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
