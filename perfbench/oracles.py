"""Inputs with exact references: closed-form families and their affine images.

Every sum built here carries its expected real zero count from a closed
form, never from the library:

* ``kostlan(1, d)``: sqrt(d)/2;  ``kostlan(m, d)`` for m = 2, 3: pi d^{m/2}/8;
* the simplex Kostlan family (support |a| <= d, weights sqrt(multinomial)):
  d^{m/2}/2^m;
* any two-term sum: 1/2;  a tensor product of m two-term sums is an affine
  image of ``kostlan(m, 1)``, so it has that family's value;
* ``bkk_total`` on an integer support: n! vol(P).

The count is invariant under invertible affine maps of the support
(A -> LA + b) and under reweighting alpha_a -> alpha_a e^{<a, c>} (a
translation of x), so seeded images of these families are exact oracles too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

import sparse_kacrice as sk

# Module-level names, so a traced run can time the algebra layer here, at
# the call site.
kostlan = sk.kostlan
tensor = sk.tensor


@dataclass(frozen=True)
class Case:
    """A sum with its exact expected zero count."""

    name: str
    sum: sk.ExpSum
    ref: float


def box_kostlan(m: int, d: int) -> Case:
    ref = math.sqrt(d) / 2.0 if m == 1 else math.pi * d ** (m / 2.0) / 8.0
    return Case(f"kostlan({m},{d})", kostlan(m, d), ref)


def simplex_kostlan(m: int, d: int) -> Case:
    points, weights = [], []
    for a in itertools.product(range(d + 1), repeat=m):
        rest = d - sum(a)
        if rest >= 0:
            points.append(a)
            multinomial = math.factorial(d) / math.prod(math.factorial(c) for c in (*a, rest))
            weights.append(math.sqrt(multinomial))
    return Case(f"simplex({m},{d})", sk.ExpSum(np.array(points, float), weights), d ** (m / 2.0) / 2.0**m)


def two_term(rng: np.random.Generator) -> Case:
    """Two exponents 0.3 to 3 apart, weights log-uniform over e^-1..e."""
    a = rng.uniform(-1.0, 1.0)
    gap = rng.uniform(0.3, 3.0)
    weights = np.exp(rng.uniform(-1.0, 1.0, 2))
    return Case("two-term", sk.ExpSum([[a], [a + gap]], weights), 0.5)


def weighted_box(rng: np.random.Generator) -> Case:
    """Tensor product of two seeded two-term sums: an axis-aligned
    rectangle, so an affine image of kostlan(2, 1)."""
    return Case("box", tensor(two_term(rng).sum, two_term(rng).sum), math.pi / 8.0)


def integer_polygon(rng: np.random.Generator) -> Case:
    """Five to seven lattice points drawn in [0, 4]^2 (repeats merged), hull
    area at least 2, random weights.

    The reference is for ``bkk_total``: 2! times the polygon area.
    """
    while True:
        k = int(rng.integers(5, 8))
        points = np.unique(rng.integers(0, 5, size=(k, 2)), axis=0).astype(float)
        if len(points) >= 3:
            area = sk.hull_volume(points)
            if area >= 2.0:
                break
    weights = np.exp(rng.uniform(-1.0, 1.0, len(points)))
    return Case(f"polygon{len(points)}", sk.ComplexExpSum(points, weights), 2.0 * area)


def random_linear(rng: np.random.Generator, m: int) -> np.ndarray:
    """Rotation, unit-upper-triangular shear and axis scales in [0.6, 1.6].

    |det L| lies in [0.6^m, 1.6^m], so the image is never near-degenerate.
    In the plane the rotation is 15 to 75 degrees off the axes, so the image
    is never nearly axis-aligned; in 3-D it is uniform.
    """
    if m == 2:
        angle = rng.uniform(np.pi / 12, 5 * np.pi / 12) + np.pi / 2 * rng.integers(4)
        rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    else:
        q, r = np.linalg.qr(rng.standard_normal((m, m)))
        rotation = q * np.sign(np.diag(r))
    shear = np.eye(m) + np.triu(rng.uniform(-0.8, 0.8, (m, m)), 1)
    return rotation @ shear @ np.diag(rng.uniform(0.6, 1.6, m))


def affine(case: Case, L, b) -> Case:
    """The image A -> L A + b; the reference is unchanged."""
    E = case.sum
    points = E.support.points @ np.asarray(L, float).T + np.asarray(b, float)
    return Case(f"aff {case.name}", type(E)(points, E.coeffs), case.ref)


def random_affine(rng: np.random.Generator, case: Case) -> Case:
    m = case.sum.dim
    return affine(case, random_linear(rng, m), rng.uniform(-1.0, 1.0, m))


def reweight(rng: np.random.Generator, case: Case) -> Case:
    """alpha_a -> alpha_a e^{<a, c>} with c uniform in [-1/2, 1/2]^m."""
    E = case.sum
    c = rng.uniform(-0.5, 0.5, E.dim)
    coeffs = E.coeffs * np.exp(E.support.points @ c)
    return Case(case.name, type(E)(E.support.points, coeffs), case.ref)


def interior_point(rng: np.random.Generator, E: sk.ExpSum) -> np.ndarray:
    """A seeded point well inside conv(A): a Dirichlet mix pulled halfway
    to the barycenter."""
    points = E.support.points
    mix = rng.dirichlet(np.ones(len(points))) @ points
    return 0.5 * (mix + points.mean(axis=0))


def exterior_point(rng: np.random.Generator, E: sk.ExpSum) -> np.ndarray:
    """A seeded point outside conv(A): 1.5 to 2.5 circumradii from the
    barycenter in a random direction."""
    points = E.support.points
    center = points.mean(axis=0)
    radius = np.linalg.norm(points - center, axis=1).max()
    direction = rng.standard_normal(E.dim)
    return center + rng.uniform(1.5, 2.5) * radius * direction / np.linalg.norm(direction)


#: The self-check's agreement bound; the library reaches it today at its
#: default tolerance on every case the check uses.
SELF_CHECK_TOL = 1e-8


def self_check() -> list[str]:
    """Problems with the references, as messages; empty when all hold.

    Each reference must match ``esol_total`` on a case it passes today, and
    an axis-aligned affine image (which it also passes) must keep it.
    """
    rng = np.random.default_rng(0)
    cases = [
        box_kostlan(1, 4),
        box_kostlan(2, 2),
        simplex_kostlan(2, 1),
        simplex_kostlan(1, 3),
        two_term(rng),
        weighted_box(rng),
    ]
    cases.append(affine(box_kostlan(2, 1), np.diag([0.7, 1.6]), [0.3, -0.2]))
    cases.append(affine(box_kostlan(2, 2), [[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0]))
    cases.append(reweight(rng, simplex_kostlan(2, 1)))
    problems = []
    for case in cases:
        value = sk.esol_total(case.sum).value
        if abs(value - case.ref) > SELF_CHECK_TOL:
            problems.append(f"{case.name}: esol_total {value!r} != reference {case.ref!r}")
    pentagon = [[0, 0], [2, 0], [3, 1], [1, 3], [-1, 1]]
    value = sk.bkk_total(sk.ComplexExpSum(pentagon)).value
    if abs(value - 14.0) > SELF_CHECK_TOL:
        problems.append(f"pentagon: bkk_total {value!r} != reference 14 (2! area)")
    return problems
