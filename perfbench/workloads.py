"""The three workloads: seeded op sets, each op with an exact check.

An op set is a fixed list of op templates; each template draws its input
from the workload's seeded stream, so two runs with one seed see the same
inputs.  An op is one call into the library's public API.  Its check runs
untimed and returns ``None`` when the result is right, or the reason it is
not.

Templates the library fails on today carry ``known``: the defect that makes
them fail, with the verdicts it gives.  Their failures are counted like any
other, so fixing the defect shows as a higher ``ok_frac``.  The other
templates pass on every seed today.  A failure there, or a verdict that a
template's defect does not give, makes the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.spatial import ConvexHull

import sparse_kacrice as sk

import oracles as o

#: A returned value is right when it is within this many times the
#: requested tolerance, max(abs_tol, rel_tol |ref|), of the reference.
ACCURACY_FACTOR = 10.0
DEFAULT = sk.Quadrature()
LOOSE = sk.Quadrature(abs_tol=1e-4, rel_tol=1e-4)
#: Deadlines: each sits well above the slowest passing op of its class on
#: any seed today: 1-D and 2-D esol_total/esol_pspace solves <= 0.15 s;
#: bkk_total and 3-D solves <= 1 s; one Monte-Carlo estimate <= 2.3 s;
#: one 64^2 scan <= 1 s.
FAST_DEADLINE = 1.0
SLOW_DEADLINE = 6.0
MC_DEADLINE = 6.0
SCAN_DEADLINE = 5.0

#: Monte-Carlo draws per op, and the agreement bound in standard errors.
MC_SAMPLES = 20_000
MC_SIGMAS = 5.0
#: Scan grid per axis, and the Psi check: nodes per scan and relative bound
#: (the density-ratio route itself loses about 1e-9 at far grid nodes).
SCAN_RESOLUTION = 64
PSI_CHECK_NODES = 6
PSI_CHECK_RTOL = 1e-8
#: A p-space scan must classify every node this far inside conv(A), as a
#: share of the support's diameter: ten times the scan's own margin.
INTERIOR_MARGIN = 1e-5


@dataclass(frozen=True)
class Defect:
    """A library defect that makes an op template fail today.

    ``verdicts`` are the failures it gives.  Each defect loses mass when it
    returns a value, so a ``wrong`` it explains lies below the reference.
    """

    text: str
    verdicts: frozenset

    def explains(self, verdict: str, value, ref) -> bool:
        if verdict not in self.verdicts:
            return False
        return verdict != "wrong" or (value is not None and value < ref)


#: The x-route and moment-route stalls end in ConvergenceError after 4 to
#: 150 s; the deadline cuts them first, but raising it sooner is the same
#: defect.
X_ROUTE = Defect("x-route stop test on supports that are not axis-aligned (ROADMAP item 2): "
                 "stalls, or returns about 0",
                 frozenset({"deadline", "raised:ConvergenceError", "wrong"}))
AUTO_3D = Defect("x-route AUTO box on rotated 3-D supports returns about 0 for some maps (ROADMAP item 2)",
                 frozenset({"wrong"}))
P_ROUTE = Defect("moment route on non-box polytopes (ROADMAP item 3): stalls",
                 frozenset({"deadline", "raised:ConvergenceError"}))
INVERSION = Defect("moment inversion from x = 0 fails for skewed weights: untyped LinAlgError or a stall",
                   frozenset({"deadline", "raised:LinAlgError"}))
#: Each dropped node first spends its Newton iterations failing, so an op
#: that drops many (0.3 to 1.6 s where passing ones take 0.03 s) may reach
#: its deadline before it returns the low value.
DROPPED = Defect("moment route drops nodes whose inversion fails, losing mass for skewed weights, slowly",
                 frozenset({"wrong", "deadline"}))
#: esol_pspace on a weighted box shows both moment-route defects.
MOMENT_BOX = Defect(f"{INVERSION.text}; or {DROPPED.text}", INVERSION.verdicts | DROPPED.verdicts)


@dataclass
class Op:
    """One library call with its check.

    ``entry`` names the public function, ``ref`` the exact value a solve
    must return.  ``work`` counts the units the op processes: draws for
    Monte Carlo, 1 per solve, or a function of the result for scans (the
    nodes they classify; 0 when the scan returns nothing).
    """

    name: str
    entry: str
    args: tuple
    check: Callable[[object], str | None]
    deadline: float
    known: Defect | None = None
    ref: float | None = None
    work: float | Callable[[object], float] = 1.0
    terms: int = 0
    kwargs: dict = field(default_factory=dict)


def _value_check(ref: float, q: sk.Quadrature):
    bound = ACCURACY_FACTOR * max(q.abs_tol, q.rel_tol * abs(ref))

    def check(result) -> str | None:
        if abs(result.value - ref) <= bound:
            return None
        return f"value {result.value!r} is {abs(result.value - ref):.3g} from {ref!r}"

    return check


def _solve(entry: str, case: o.Case, q: sk.Quadrature, deadline: float, known=None) -> Op:
    tol = "" if q is DEFAULT else " @1e-4"
    return Op(
        name=f"{entry} {case.name}{tol}",
        entry=entry,
        args=(case.sum, q),
        check=_value_check(case.ref, q),
        deadline=deadline,
        known=known,
        ref=case.ref,
        terms=case.sum.n_terms,
    )


def _line_image(rng: np.random.Generator, case: o.Case) -> o.Case:
    """A seeded 1-D image: reweighted, then spacing scaled by 0.6 to 1.6."""
    return o.affine(o.reweight(rng, case), [[rng.uniform(0.6, 1.6)]], [rng.uniform(-1, 1)])


TRIANGLE = o.Case("triangle", sk.ExpSum([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 0.25)
UNIT_CUBE = o.Case(
    "unit cube", sk.ComplexExpSum([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)]), 6.0
)


def quadrature_ops(rng: np.random.Generator) -> list[Op]:
    """32 solves.  Over a quarter are 1-D or two-term cases of a few ms and a
    fifth are kostlan(2, d) solves of 50-90 ms, so the median op sits inside
    that group rather than on the edge between two groups.  Likewise the
    four 3-D solves and the unit cube, 0.35-0.75 s each, are the slowest
    fifth of the ops that finish, so the tail percentile falls inside them."""
    total, pspace, bkk = "esol_total", "esol_pspace", "bkk_total"
    ops = []
    for d in (2, 3, 4, 5, 7):
        ops.append(_solve(total, _line_image(rng, o.box_kostlan(1, d)), DEFAULT, FAST_DEADLINE))
    ops.append(_solve(total, o.simplex_kostlan(2, 2), DEFAULT, FAST_DEADLINE, X_ROUTE))
    for d in (1, 2, 3, 1, 2, 3):
        ops.append(_solve(total, o.reweight(rng, o.box_kostlan(2, d)), DEFAULT, FAST_DEADLINE))
    for _ in range(2):
        ops.append(_solve(total, o.reweight(rng, o.box_kostlan(3, 1)), LOOSE, SLOW_DEADLINE))
    ops.append(_solve(total, o.reweight(rng, o.simplex_kostlan(2, 1)), DEFAULT, FAST_DEADLINE, X_ROUTE))
    ops.append(_solve(total, o.random_affine(rng, o.box_kostlan(2, 1)), DEFAULT, FAST_DEADLINE, X_ROUTE))
    for _ in range(3):
        ops.append(_solve(bkk, o.integer_polygon(rng), DEFAULT, SLOW_DEADLINE, INVERSION))
    ops.append(_solve(total, o.reweight(rng, o.simplex_kostlan(3, 1)), LOOSE, SLOW_DEADLINE))
    ops.append(_solve(total, o.random_affine(rng, o.box_kostlan(2, 2)), DEFAULT, FAST_DEADLINE, X_ROUTE))
    for _ in range(4):
        ops.append(_solve(pspace, o.two_term(rng), LOOSE, FAST_DEADLINE, DROPPED))
    ops.append(_solve(pspace, TRIANGLE, LOOSE, FAST_DEADLINE, P_ROUTE))
    ops.append(_solve(total, o.weighted_box(rng), DEFAULT, FAST_DEADLINE, INVERSION))
    ops.append(_solve(bkk, UNIT_CUBE, LOOSE, SLOW_DEADLINE))
    ops.append(_solve(total, o.random_affine(rng, o.simplex_kostlan(2, 1)), DEFAULT, FAST_DEADLINE, X_ROUTE))
    for _ in range(2):
        ops.append(_solve(pspace, o.weighted_box(rng), LOOSE, FAST_DEADLINE, MOMENT_BOX))
    ops.append(_solve(total, o.random_affine(rng, o.box_kostlan(3, 1)), LOOSE, SLOW_DEADLINE, AUTO_3D))
    return ops


def _mc_check(ref: float | Callable[[], float]):
    def check(result) -> str | None:
        mean, stderr = result
        want = ref() if callable(ref) else ref
        if abs(mean - want) <= MC_SIGMAS * stderr:
            return None
        return f"mean {mean:.5f} is {abs(mean - want) / stderr:.1f} s.e. from {want:.5f}"

    return check


def _estimate(rng: np.random.Generator, case: o.Case, ref=None) -> Op:
    cfg = sk.McConfig(n_samples=MC_SAMPLES, seed=int(rng.integers(2**31)))
    return Op(
        name=f"estimate_esol {case.name} k={case.sum.n_terms}",
        entry="estimate_esol",
        args=(case.sum, cfg),
        check=_mc_check(case.ref if ref is None else ref),
        deadline=MC_DEADLINE,
        work=MC_SAMPLES,
        terms=case.sum.n_terms,
    )


def _spaced(rng: np.random.Generator, d: int) -> o.Case:
    """kostlan(1, d) reweighted, spacing scaled by 0.25 to 2, shifted."""
    return o.affine(o.reweight(rng, o.box_kostlan(1, d)),
                    [[rng.uniform(0.25, 2.0)]], [rng.uniform(-1, 1)])


def _real_exponents(rng: np.random.Generator) -> tuple[o.Case, Callable[[], float]]:
    """Exponents 0, sqrt 2, pi with seeded weights; the reference comes from
    ``esol_total``, computed once when first checked."""
    E = sk.ExpSum([[0.0], [math.sqrt(2.0)], [math.pi]], np.exp(rng.uniform(-0.5, 0.5, 3)) * [1, 2, 1])
    cache = []

    def ref() -> float:
        if not cache:
            cache.append(sk.esol_total(E).value)
        return cache[0]

    return o.Case("real-exponent", E, math.nan), ref


def montecarlo_ops(rng: np.random.Generator) -> list[Op]:
    """Ten estimates: four with 2 terms, four with 3 and two with 5."""
    ops = []
    for _ in range(2):
        real, ref = _real_exponents(rng)
        ops += [
            _estimate(rng, o.two_term(rng)),
            _estimate(rng, _spaced(rng, 2)),
            _estimate(rng, _spaced(rng, 4)),
            _estimate(rng, o.two_term(rng)),
            _estimate(rng, real, ref),
        ]
    return ops


def _hull_slack(E: sk.ExpSum, axes) -> np.ndarray:
    """Largest facet slack of each grid node against conv(A), over the
    support's diameter: below 0 inside, above 0 outside."""
    points = E.support.points
    hull = ConvexHull(points)
    diameter = max(np.linalg.norm(points - p, axis=1).max() for p in points)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return (nodes @ hull.equations[:, :-1].T + hull.equations[:, -1]).max(axis=-1) / diameter


def _classified(scan) -> float:
    return float(np.count_nonzero(scan.classes != "outside"))


def _scan_check(E: sk.ExpSum, aug: sk.Augmentation, space: str, interior: bool, rng: np.random.Generator):
    pick = np.random.default_rng(rng.integers(2**31))

    def check(scan) -> str | None:
        inside = np.argwhere(scan.classes != "outside")
        if interior and not np.any(scan.classes == "U_minus"):
            return "interior a0 but no U_minus node"
        if len(inside) == 0:
            return "no node inside the scan domain"
        if space == "p":
            slack = _hull_slack(E, scan.axes)
            dropped = np.count_nonzero((slack <= -INTERIOR_MARGIN) & (scan.classes == "outside"))
            if dropped:
                return f"{dropped} nodes inside conv(A) left outside"
            if np.any(slack[scan.classes != "outside"] > 0):
                return "a node outside conv(A) classified"
        augmented = sk.augment(E, aug)
        for idx in inside[pick.choice(len(inside), min(PSI_CHECK_NODES, len(inside)), replace=False)]:
            node = np.array([axis[i] for axis, i in zip(scan.axes, idx)])
            x = node if space == "x" else sk.invert_moment(E, node)
            want = sk.density(augmented, x) / sk.density(E, x)
            got = scan.psi[tuple(idx)]
            if not abs(got - want) <= PSI_CHECK_RTOL * abs(want):
                return f"psi {got!r} at node {node.tolist()} but density ratio {want!r}"
        return None

    return check


def psi_scan_ops(rng: np.random.Generator) -> list[Op]:
    """Sixteen 64^2 scans: four sums x (interior, exterior a0) x (p, x).

    A p-space scan of a square classifies every node, so it takes about 1.5
    times as long as the others; two squares make those scans a quarter of
    the set, so the tail percentile falls inside them rather than on the
    slowest of the other scans."""
    cases = [
        o.reweight(rng, o.box_kostlan(2, 1)),
        o.reweight(rng, o.box_kostlan(2, 1)),
        o.reweight(rng, o.simplex_kostlan(2, 1)),
        o.random_affine(rng, o.box_kostlan(2, 1)),
    ]
    ops = []
    for case in cases:
        E = case.sum
        for interior in (True, False):
            point = o.interior_point(rng, E) if interior else o.exterior_point(rng, E)
            aug = sk.Augmentation(point, float(np.exp(rng.uniform(-0.5, 0.5))))
            for space in ("p", "x"):
                ops.append(Op(
                    name=f"region_scan {case.name} {'interior' if interior else 'exterior'} a0 space={space}",
                    entry="region_scan",
                    args=(E, aug),
                    kwargs={"resolution": SCAN_RESOLUTION, "space": space},
                    check=_scan_check(E, aug, space, interior, rng),
                    deadline=SCAN_DEADLINE,
                    work=_classified,
                    terms=E.n_terms,
                ))
    return ops


#: Workload name -> function drawing one op set from a seeded stream.
OP_SETS = {
    "quadrature": quadrature_ops,
    "montecarlo": montecarlo_ops,
    "psi-scan": psi_scan_ops,
}
#: Op-set time budgeted per workload; a run draws round(seconds / this)
#: sets, so runs of two versions do the same work: 4, 3 and 3 sets at 30 s.
#: At the parent commit on the reference machine (2 CPUs) a set takes about
#: 8, 7.5 and 8 s, and up to 60 % more when the host is loaded.
NOMINAL_SET_SECONDS = {"quadrature": 7.5, "montecarlo": 10.0, "psi-scan": 10.0}
#: Calibration kernel parts per workload (see calibration.py): the kinds of
#: work its ops do.  Quadrature and scans are interpreted loops around small
#: numpy calls; Monte Carlo streams large blocks.
CALIBRATION_PARTS = {"quadrature": ("loop", "linalg"), "montecarlo": ("block",),
                     "psi-scan": ("loop", "linalg")}
