"""Acceptance gate: the closed-form, cross-route, and stochastic checks that
qualify a build.  Each test prints one PASS/FAIL line."""

from __future__ import annotations

import math
import time
import warnings

import numpy as np

from sparse_kacrice import (
    Augmentation,
    ExpSum,
    ComplexExpSum,
    McConfig,
    aronszajn,
    augment,
    ball_sphere_constants,
    bkk_total,
    density,
    density_many,
    esol_pspace,
    esol_total,
    estimate_esol,
    evaluate,
    hessian_check,
    kostlan,
    lower_bound_check,
    n_factorial_volume,
    potential,
    psi,
    tensor,
    witness_interior,
)

TWO_TERM = ExpSum([[0.0], [1.0]])
IRRATIONAL = ExpSum([[0.0], [math.sqrt(2.0)], [math.pi]], [1.0, 2.0, 1.0])
IRREGULAR = ExpSum([[0.0], [0.5], [1.7]], [1.0, 2.0, 1.0])


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status}: {detail}")
    assert ok, detail


def _random_one_variable_sum(rng, k: int) -> ExpSum:
    pts = np.sort(rng.uniform(0.0, 2.0, size=k))
    while np.min(np.diff(pts)) < 1e-3:
        pts = np.sort(rng.uniform(0.0, 2.0, size=k))
    return ExpSum(pts[:, None], rng.uniform(0.5, 2.0, size=k))


def test_01_two_term_total():
    t0 = time.perf_counter()
    r = esol_total(TWO_TERM)
    dt = time.perf_counter() - t0
    dev = abs(r.value - 0.5)
    _report(1, dev < 1e-6 and dt < 1.0, f"two-term total dev {dev:.2e}, {dt:.2f}s")


def test_02_binomial_law_one_variable():
    t0 = time.perf_counter()
    worst = 0.0
    for d in range(1, 6):
        r = esol_total(kostlan(1, d))
        worst = max(worst, abs(r.value - math.sqrt(d) / 2.0))
    dt = time.perf_counter() - t0
    _report(2, worst < 1e-4 and dt < 5.0, f"worst dev {worst:.2e} over d=1..5, {dt:.2f}s")


def test_03_binomial_law_two_variables():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (1, 2):
        r = esol_total(kostlan(2, d))
        want = math.pi / 8.0 * d
        worst = max(worst, abs(r.value - want) / want)
    dt = time.perf_counter() - t0
    _report(3, worst < 2e-3 and dt < 60.0, f"worst rel dev {worst:.2e} over d=1,2, {dt:.2f}s")


def test_04_route_consistency():
    worst = 0.0
    triangle = ExpSum([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rotated_square = ExpSum([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    for E in (TWO_TERM, kostlan(2, 1), triangle, rotated_square):
        a = esol_total(E).value
        b = esol_pspace(E).value
        worst = max(worst, abs(a - b))
    _report(4, worst <= 1e-3, f"largest cross-route gap {worst:.2e}")


def test_05_monte_carlo_agreement():
    t0 = time.perf_counter()
    details = []
    ok = True
    for name, E in (
        ("two-term", TWO_TERM),
        ("binomial d=4", kostlan(1, 4)),
        ("irrational", IRRATIONAL),
    ):
        want = esol_total(E).value
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mean, stderr = estimate_esol(E, McConfig(n_samples=100_000, seed=42))
        sigma = abs(mean - want) / stderr
        ok = ok and sigma <= 3.0
        details.append(f"{name} {sigma:.2f}s.e.")
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    _report(5, ok, ", ".join(details) + f", {dt:.1f}s")


def test_06_interior_witness():
    rng = np.random.default_rng(2026)
    E = kostlan(2, 1)
    worst = 0.0
    for _ in range(20):
        a0 = rng.uniform(0.0, 1.0, size=2)
        x0 = witness_interior(E, Augmentation(a0))
        worst = max(worst, psi(E, Augmentation(a0), x0).psi)
    _report(6, worst < 1.0 - 1e-8, f"worst interior-witness psi {worst:.6f}")


def test_07_far_exponent_tail():
    aug = Augmentation([3.0])
    values = [psi(TWO_TERM, aug, [t]).psi for t in (10.0, 20.0, 40.0)]
    ok = all(0.0 < v < 1.0 for v in values)
    _report(7, ok, "psi at t=10,20,40: " + ", ".join(f"{v:.2e}" for v in values))


def test_08_density_ratio_identity():
    rng = np.random.default_rng(8)
    pairs = [
        (TWO_TERM, Augmentation([3.0])),
        (IRREGULAR, Augmentation([0.9], alpha0=1.5)),
        (kostlan(2, 1), Augmentation([0.5, 0.5])),
    ]
    worst = 0.0
    for E, aug in pairs:
        E0 = augment(E, aug)
        for _ in range(50):
            x = rng.uniform(-4.0, 4.0, size=E.dim)
            ratio = density(E0, x) / density(E, x)
            value = psi(E, aug, x).psi
            worst = max(worst, abs(value - ratio) / ratio)
    _report(8, worst < 1e-10, f"worst relative identity error {worst:.2e}")


def test_09_algebra_exactness():
    rng = np.random.default_rng(99)
    A, B = _random_one_variable_sum(rng, 2), _random_one_variable_sum(rng, 3)
    C, D = _random_one_variable_sum(rng, 2), _random_one_variable_sum(rng, 3)
    lhs = aronszajn(tensor(A, B), tensor(C, D))
    rhs = tensor(aronszajn(A, C), aronszajn(B, D))
    worst = 0.0
    for _ in range(20):
        xy = rng.uniform(-2.0, 2.0, size=2)
        x, y = xy[:1], xy[1:]
        P = aronszajn(A, C)
        worst = max(worst, abs(potential(P, x) - potential(A, x) - potential(C, x)))
        worst = max(
            worst,
            abs(
                evaluate(P, x).g.entries[0, 0]
                - evaluate(A, x).g.entries[0, 0]
                - evaluate(C, x).g.entries[0, 0]
            ),
        )
        bt = evaluate(tensor(A, B), xy)
        worst = max(worst, abs(bt.phi - potential(A, x) - potential(B, y)))
        worst = max(worst, abs(bt.g.entries[0, 1]))
        worst = max(worst, abs(bt.g.entries[0, 0] - evaluate(A, x).g.entries[0, 0]))
        worst = max(worst, abs(potential(lhs, xy) - potential(rhs, xy)))
    _report(9, worst < 1e-12, f"worst additivity/commutation residual {worst:.2e}")


def test_10_product_density_bounds():
    rng = np.random.default_rng(99)
    ok = True
    margins = []
    for _ in range(3):
        Ea = _random_one_variable_sum(rng, 2)
        Eb = _random_one_variable_sum(rng, 3)
        xs = np.linspace(-6.0, 6.0, 200)[:, None]
        da, db = density_many(Ea, xs), density_many(Eb, xs)
        dp = density_many(aronszajn(Ea, Eb), xs)
        lower = (da + db) / math.sqrt(2.0)
        upper = da + db
        ok = ok and np.all(dp >= lower - 1e-12) and np.all(dp <= upper + 1e-12)
        margins.append(f"{np.min(dp - lower):.1e}/{np.min(upper - dp):.1e}")
    _report(10, ok, "pair margins (above-lower/below-upper): " + ", ".join(margins))


def test_11_complex_volume_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for d in range(1, 5):
        C = ComplexExpSum([[float(k)] for k in range(d + 1)])
        worst = max(worst, abs(bkk_total(C).value - n_factorial_volume(C)))
    square = ComplexExpSum([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    worst = max(worst, abs(bkk_total(square).value - n_factorial_volume(square)))
    dt = time.perf_counter() - t0
    _report(11, worst < 1e-3 and dt < 60.0, f"worst identity gap {worst:.2e}, {dt:.2f}s")


def test_12_lower_bound_strict():
    sums = [
        TWO_TERM,
        IRREGULAR,
        IRRATIONAL,
        ExpSum([[0.0], [3.0]]),
        kostlan(1, 2),
        kostlan(1, 5),
        kostlan(2, 1),
        kostlan(2, 2),
    ]
    reports = [lower_bound_check(E) for E in sums]
    ok = all((not r.degenerate) and r.strict for r in reports)
    tightest = min(r.esol - r.bound for r in reports)
    _report(12, ok, f"{len(sums)} nondegenerate sums strict; smallest gap {tightest:.3f}")


def test_13_derivative_oracles():
    rng = np.random.default_rng(13)
    families = (TWO_TERM, IRREGULAR, IRRATIONAL, kostlan(2, 1), kostlan(2, 2))
    worst = 0.0
    for i in range(20):
        E = families[i % len(families)]
        x = rng.uniform(-2.0, 2.0, size=E.dim)
        rep = hessian_check(E, x)
        worst = max(worst, rep.grad_residual, rep.hess_residual)
    _report(13, worst < 1e-5, f"worst finite-difference residual {worst:.2e}")


def test_14_tensor_constant():
    _, s1 = ball_sphere_constants(1)
    _, s2 = ball_sphere_constants(2)
    want = s1 * s1 / (2.0 * s2)  # = pi/2 for 1D x 1D
    worst = 0.0
    pairs = [(TWO_TERM, TWO_TERM), (TWO_TERM, IRREGULAR)]
    for Ea, Eb in pairs:
        top = esol_total(tensor(Ea, Eb)).value
        bottom = esol_total(Ea).value * esol_total(Eb).value
        worst = max(worst, abs(top / bottom - want) / want)
    _report(14, worst < 2e-3, f"worst relative constant error {worst:.2e} (target pi/2)")
