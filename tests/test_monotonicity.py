"""Tests for augmentation, the density-drop functional, and region scans."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.special import expit

from sparse_kacrice import (
    Augmentation,
    DegenerateMetricError,
    DomainError,
    ExpSum,
    InputError,
    SingularFormError,
    SparseKacRiceError,
    augment,
    density,
    diameter,
    dual_form,
    evaluate,
    interior_contains,
    kostlan,
    psi,
    ray_scan_unbounded,
    region_scan,
    witness_interior,
)
from sparse_kacrice import expsum, monotonicity
from sparse_kacrice.expsum import INVERT_MARGIN, _invert_moment_many
from sparse_kacrice.geometry import DET_FLOOR, DUAL_COND_LIMIT
from sparse_kacrice.monotonicity import BOUNDARY_BAND, _classify_psi
from test_expsum import batch_moments

TWO_TERM = ExpSum([[0.0], [1.0]])
SQUARE = kostlan(2, 1)
SQ_AUG = Augmentation([0.5, 0.5])

#: Supports for the scan-equals-scalar test, with an interior and an exterior a0.
SCAN_CASES = {
    "unit_square": (SQUARE, [0.3, 0.6], [2.0, -1.0]),
    "weighted_triangle": (ExpSum([[0, 0], [1, 0], [0, 1]], [1.0, 2.0, 0.5]), [0.25, 0.3], [1.5, 1.5]),
    "sheared_square": (ExpSum([[0, 0], [1, 0], [0.5, 1], [1.5, 1]]), [0.7, 0.5], [-1.0, 0.5]),
}

#: Supports, an interior a0 and a resolution for the translation oracle of
#: moment-coordinate scans.
SHIFT_CASES = {
    "unit_square": (SQUARE, [0.3, 0.6], 16),
    "sheared_square": (SCAN_CASES["sheared_square"][0], [0.7, 0.5], 16),
    "three_terms": (ExpSum([[0], [1], [3]], [1, 2, 1]), [1.2], 200),
}


def _refused_by_dual_form(G):
    """The gate of geometry.dual_form on each row of the stack G, written
    with eigvalsh."""
    eigs = np.linalg.eigvalsh(G)
    flat = (eigs[:, 0] <= 0.0) | (eigs[:, -1] > DUAL_COND_LIMIT * eigs[:, 0])
    return flat | (np.prod(eigs, axis=1) < DET_FLOOR)


def _formed(E, aug, x):
    """(phi0, g^x(mu - a_0)) at x from evaluate's formed metric and its
    dual_form, a route psi's Cauchy-Binet kernel shares nothing with;
    SingularFormError where dual_form refuses g."""
    b = evaluate(E, x)
    return b.phi - (math.log(aug.alpha0) + aug.a0 @ b.x), dual_form(b.g)(b.mu - aug.a0)


def _psi_via_phi0(E, aug, x):
    """Psi = (1 - s)^{m/2} sqrt(1 + s g^x(mu - a_0)) with s = expit(-2 phi0)."""
    phi0, q = _formed(E, aug, x)
    return expit(2.0 * phi0) ** (E.dim / 2.0) * math.sqrt(1.0 + expit(-2.0 * phi0) * q)


def _closed_form_label(E, aug, x):
    """The closed-form decrease criterion, equivalent to Psi < 1:
    g^x(mu - a_0) < m + sum_{k=1}^m C(m+1, k+1) r^k with r = e^{-2 phi0}
    (that is ((1+r)^m - 1)(1 + 1/r)); equal sides within BOUNDARY_BAND."""
    phi0, lhs = _formed(E, aug, x)
    r, m = math.exp(-2.0 * phi0), E.dim
    rhs = m + sum(math.comb(m + 1, k + 1) * r**k for k in range(1, m + 1))
    band = BOUNDARY_BAND * max(1.0, abs(lhs), abs(rhs))
    return "U_minus" if lhs < rhs - band else "U_plus" if lhs > rhs + band else "boundary"


def _rank_one_metric(E, aug, x):
    """(K/K_0) (g + tau tau^T), tau = (f_0/sqrt(K_0)) (mu - a_0): the augmented
    sum's metric from E's own bundle, with no dual form read."""
    b = evaluate(E, x)
    log_f0 = math.log(aug.alpha0) + aug.a0 @ b.x
    log_K0 = np.logaddexp(2.0 * b.phi, 2.0 * log_f0)
    tau = math.exp(log_f0 - 0.5 * log_K0) * (b.mu - aug.a0)
    return math.exp(2.0 * b.phi - log_K0) * (b.g.entries + np.outer(tau, tau))


def _levelset_residual(E, aug, x):
    """On the tangent space of phi0's level set through x, the complement of
    mu - a_0, the augmented sum's metric is (K/K_0) g (the projected dual
    ellipsoid shrinks by sqrt(K/K_0)): the largest entrywise mismatch there,
    over max(1, the largest entry)."""
    b, b0 = evaluate(E, x), evaluate(augment(E, aug), x)
    basis = null_space((b.mu - aug.a0)[None, :])
    base = math.exp(2.0 * (b.phi - b0.phi)) * (basis.T @ b.g.entries @ basis)
    return np.abs(basis.T @ b0.g.entries @ basis - base).max() / max(1.0, np.abs(base).max())


def _moments_mp(mp, E, xs):
    """(log K, mu, g) at the mpmath point xs, at the working precision."""
    points = [[mp.mpf(float(v)) for v in row] for row in E.support.points]
    logs = [mp.log(mp.mpf(float(c))) + mp.fsum(a * t for a, t in zip(row, xs))
            for row, c in zip(points, E.coeffs)]
    top = max(logs)
    w = [mp.exp(2 * (t - top)) for t in logs]
    lam = [wi / mp.fsum(w) for wi in w]
    m = len(xs)
    mu = [mp.fsum(l * row[i] for l, row in zip(lam, points)) for i in range(m)]
    g = mp.matrix(m, m)
    for l, row in zip(lam, points):
        for i in range(m):
            for j in range(m):
                g[i, j] += l * (row[i] - mu[i]) * (row[j] - mu[j])
    return 2 * top + mp.log(mp.fsum(w)), mu, g


def _psi_60_digits(mp, E, a0, x):
    """(Psi, g^x(tau)) at x with alpha0 = 1 in mpmath arithmetic at the
    working precision, from the formed metric and a dense solve."""
    xs = [mp.mpf(v) for v in x]
    m = len(xs)
    log_K, mu, g = _moments_mp(mp, E, xs)
    log_f0 = mp.fsum(mp.mpf(float(a)) * t for a, t in zip(a0, xs))
    log_K0 = log_K + mp.log(1 + mp.exp(2 * log_f0 - log_K))
    tau = mp.matrix([mp.exp(log_f0 - log_K0 / 2) * (mu[i] - float(a0[i])) for i in range(m)])
    tau_normsq = (tau.T * mp.lu_solve(g, tau))[0]
    value = mp.exp(log_K - log_K0) ** (mp.mpf(m) / 2) * mp.sqrt(1 + tau_normsq)
    return float(value), float(tau_normsq)


def _preimage_50_digits(mp, E, p):
    """The moment preimage of p in mpmath arithmetic at the working
    precision: dense Newton steps from the origin, halved until the
    residual falls."""
    m = len(p)

    def residual(x):
        _, mu, g = _moments_mp(mp, E, x)
        return mp.matrix([mp.mpf(float(p[i])) - mu[i] for i in range(m)]), g

    x = [mp.mpf(0)] * m
    r, g = residual(x)
    for _ in range(100):
        if mp.norm(r) <= mp.mpf(10) ** (5 - mp.mp.dps):
            return x
        step = mp.lu_solve(2 * g, r)
        for _ in range(60):
            trial = [x[i] + step[i] for i in range(m)]
            r_t, g_t = residual(trial)
            if mp.norm(r_t) < mp.norm(r):
                break
            step = step / 2
        x, r, g = trial, r_t, g_t
    raise AssertionError("no 50-digit preimage")


class TestAugmentation:
    def test_augment_appends_term(self):
        E0 = augment(TWO_TERM, Augmentation([3.0], alpha0=2.0))
        assert E0.n_terms == 3
        pts = np.asarray(E0.support.points).ravel()
        assert 3.0 in pts
        assert np.asarray(E0.coeffs)[-1] == pytest.approx(2.0)

    def test_rejects_duplicate_point(self):
        with pytest.raises(InputError):
            augment(TWO_TERM, Augmentation([1.0]))

    def test_rejects_bad_alpha(self):
        with pytest.raises(InputError):
            Augmentation([3.0], alpha0=0.0)
        with pytest.raises(InputError):
            Augmentation([math.nan])
        for a0, alpha0 in (([0.5], "2"), ([0.5], None), ([0.5], [1.0, 2.0]), (["a", 1], 1.0)):
            with pytest.raises(InputError):
                Augmentation(a0, alpha0=alpha0)

    @pytest.mark.parametrize("alpha0", [True, np.True_])
    def test_rejects_bool_alpha(self, alpha0):
        # True would pass as the weight 1.0
        with pytest.raises(InputError, match="bool"):
            Augmentation([0.5, 0.5], alpha0=alpha0)

    @pytest.mark.parametrize("a0", [[[0.5], [0.5]], [[0.5, 0.5]], np.zeros((1, 1, 2))])
    def test_rejects_nested_a0(self, a0):
        # flattening would read [[0.5], [0.5]] as the point (0.5, 0.5)
        with pytest.raises(InputError, match="scalar or 1-D"):
            Augmentation(a0)

    def test_accepts_scalar_and_flat_a0(self):
        assert Augmentation(3.0).a0.tolist() == [3.0]
        assert Augmentation(np.array([0.5, 0.5])).a0.tolist() == [0.5, 0.5]

    def test_rejects_dim_mismatch(self):
        with pytest.raises(InputError):
            psi(TWO_TERM, Augmentation([1.0, 2.0]), [0.0])

    def test_a0_is_a_read_only_copy(self):
        # neither a write to the caller's array nor one to a0 can put a NaN
        # past the checks, which would leave every scan node "outside"
        a = np.array([0.3, 0.6])
        aug = Augmentation(a)
        a[0] = math.nan
        assert aug.a0.tolist() == [0.3, 0.6]
        with pytest.raises(ValueError, match="read-only"):
            aug.a0[0] = math.nan
        got = region_scan(SQUARE, aug, resolution=8, space="x").classes
        assert "outside" not in got.tolist()


class TestPsi:
    def test_non_finite_point_refused(self):
        for x in ([math.nan, 0.0], [0.0, math.inf]):
            with pytest.raises(InputError, match="x must be finite"):
                psi(kostlan(2, 1), Augmentation([0.3, 0.6]), x)

    def test_witness_value(self):
        ev = psi(SQUARE, SQ_AUG, [0.0, 0.0])
        assert ev.psi == pytest.approx(0.8, rel=1e-12)
        assert ev.classification == "U_minus"

    def test_density_ratio_identity(self):
        # psi is exactly the density ratio after augmentation
        rng = np.random.default_rng(7)
        aug = Augmentation([3.0], alpha0=1.5)
        E0 = augment(TWO_TERM, aug)
        for _ in range(20):
            x = rng.uniform(-4, 4, size=1)
            ratio = density(E0, x) / density(TWO_TERM, x)
            assert psi(TWO_TERM, aug, x).psi == pytest.approx(ratio, rel=1e-10)

    def test_two_routes_agree(self):
        rng = np.random.default_rng(8)
        for E, aug in ((TWO_TERM, Augmentation([3.0])), (SQUARE, SQ_AUG)):
            for _ in range(20):
                x = rng.uniform(-5, 5, size=E.dim)
                a = psi(E, aug, x).psi
                b = _psi_via_phi0(E, aug, x)
                assert b == pytest.approx(a, rel=1e-12)

    def test_formed_metric_route_at_seeded_points(self):
        # The formed-metric route reads its dual from LAPACK's symmetric
        # eigensolver, which psi never calls.
        aug = Augmentation([0.3, 0.6])
        for x in np.random.default_rng(5).uniform(-3.0, 3.0, size=(8, 2)):
            assert abs(_psi_via_phi0(SQUARE, aug, x) / psi(SQUARE, aug, x).psi - 1.0) <= 1e-10

    def test_far_tail_stays_small(self):
        aug = Augmentation([3.0])
        for t in (10.0, 20.0, 40.0):
            ev = psi(TWO_TERM, aug, [t])
            assert 0.0 < ev.psi < 1.0
            assert ev.classification == "U_minus"
        # the stable route must not collapse to zero ratio
        assert _psi_via_phi0(TWO_TERM, aug, [40.0]) > 0.0

    def test_high_condition_points_against_60_digits(self):
        # 100 points per sum with cond(g) > 1e6, each with an interior and an
        # exterior a0.  Psi is a ratio of sums of non-negative terms, so it
        # keeps its relative accuracy however ill-conditioned g is.
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2024)
        errors = []
        for E, inside, outside in SCAN_CASES.values():
            X = rng.uniform(-20.0, 20.0, size=(20000, 2))
            G = batch_moments(E, X)[3]
            eigs = np.linalg.eigvalsh(G)
            usable = ~_refused_by_dual_form(G) & (eigs[:, 1] > 1e6 * eigs[:, 0])
            for x in X[usable][:100]:
                for a0 in (inside, outside):
                    with mp.workdps(60):
                        want = _psi_60_digits(mp, E, np.asarray(a0, dtype=float), x)[0]
                    got = psi(E, Augmentation(a0), x).psi
                    errors.append(float(abs(got - want) / want))
        assert len(errors) == 600
        assert np.median(errors) < 1e-14
        assert max(errors) <= 1e-13

    @pytest.mark.parametrize(
        "a0, x",
        [
            ((100.0, 100.0), (1.0, 1.0)),  # a0's term outweighs the rest by e^396
            ((3.0, 3.0), (-30.0, -20.0)),  # a0's share of K_0 is e^-300, cond(g) 5e8
            ((3.0, 3.0), (25.0, 7.0)),  # a0 dominates, det g = e^-64, cond(g) 4e15
            ((0.5, 0.5), (-40.0, -3.0)),  # interior a0, share e^-43, cond(g) 1e32
            ((0.4728,), (-0.8412,)),  # kostlan(1, 3); an expanded M (x) M sum cancels to 9e-13
            ((0.5, 0.5, 0.5), (-30.0, -20.0, 10.0)),  # kostlan(3, 1), interior a0, share e^-60
            ((3.0, 3.0, 3.0), (25.0, 7.0, -4.0)),  # kostlan(3, 1), a0's term outweighs by e^104
        ],
    )
    def test_tails_against_60_digits(self, a0, x):
        mp = pytest.importorskip("mpmath")
        E = {1: kostlan(1, 3), 2: SQUARE, 3: kostlan(3, 1)}[len(a0)]
        with mp.workdps(60):
            want_psi, want_tau = _psi_60_digits(mp, E, np.asarray(a0), np.asarray(x))
        ev = psi(E, Augmentation(a0), x)
        assert ev.psi == pytest.approx(want_psi, rel=1e-13, abs=0.0)
        assert ev.tau_normsq == pytest.approx(want_tau, rel=1e-13, abs=0.0)

    def test_flat_support_raises(self):
        # Collinear points whose simplex volumes round to about 1e-16, not 0.
        line = ExpSum([[0.0, 0.0], [0.1, 0.3], [0.2, 0.6], [0.7, 2.1]])
        assert density(line, [0.3, 0.2]) == 0.0
        with pytest.raises(DegenerateMetricError, match="underflows"):
            psi(line, Augmentation([1.0, 0.0]), [0.3, 0.2])

    def test_ray_scan_equals_scalar_psi(self):
        evs = ray_scan_unbounded(SQUARE, SQ_AUG, [1.0, -0.4], 12.0, 6)
        for ev in evs:
            want = psi(SQUARE, SQ_AUG, ev.x)
            assert ev.psi == pytest.approx(want.psi, rel=1e-12)
            assert ev.classification == want.classification
            assert ev.tau_normsq == pytest.approx(want.tau_normsq, rel=1e-12)

    def test_degenerate_ray_raises(self):
        # Far along (1, 0.3) the square's formed metric fails the condition
        # gate, but Psi, a ratio of Cauchy-Binet determinants, is defined
        # until det g underflows, near t = 300.  Rounding <a0, x> at
        # |<a0, x>| = 230 alone moves Psi by about 5e-14.
        mp = pytest.importorskip("mpmath")
        aug = Augmentation([3.0, 3.0])
        errors = []
        for ev in ray_scan_unbounded(SQUARE, aug, [1.0, 0.3], 60.0, 64):
            with mp.workdps(60):
                want = _psi_60_digits(mp, SQUARE, aug.a0, ev.x)[0]
            errors.append(abs(ev.psi - want) / want)
        assert max(errors) <= 2e-13
        with pytest.raises(DegenerateMetricError, match="underflows"):
            ray_scan_unbounded(SQUARE, aug, [1.0, 0.3], 2000.0, 64)

    def test_infinite_t_max_raises(self):
        with pytest.raises(InputError, match="finite"):
            ray_scan_unbounded(kostlan(1, 2), Augmentation([3.0]), [1.0], math.inf, 3)

    def test_step_count_follows_the_integer_rule(self):
        aug = Augmentation([3.0])
        for n_steps in (2.5, "3", True, 3.0, None):
            with pytest.raises(InputError, match="integer n_steps"):
                ray_scan_unbounded(TWO_TERM, aug, [1.0], 40.0, n_steps)
        want = [e.psi for e in ray_scan_unbounded(TWO_TERM, aug, [1.0], 40.0, 3)]
        assert [e.psi for e in ray_scan_unbounded(TWO_TERM, aug, [1.0], 40.0, np.int64(3))] == want

    def test_ray_scan_decreases(self):
        evs = ray_scan_unbounded(TWO_TERM, Augmentation([3.0]), [1.0], 40.0, 8)
        values = [e.psi for e in evs]
        assert len(values) == 8
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(e.classification == "U_minus" for e in evs)


class TestClassify:
    def test_agrees_with_psi(self):
        rng = np.random.default_rng(9)
        aug = Augmentation([3.0])
        for _ in range(50):
            x = rng.uniform(-5, 5, size=1)
            label = _closed_form_label(TWO_TERM, aug, x)
            value = psi(TWO_TERM, aug, x).psi
            if label == "U_minus":
                assert value < 1.0
            elif label == "U_plus":
                assert value > 1.0

    def test_boundary_band(self):
        # bracket the psi = 1 crossing on the diagonal; the crossing itself
        # reads as boundary under BOUNDARY_BAND
        lo, hi = 0.0, 2.5  # psi(lo) < 1 < psi(hi)
        assert psi(SQUARE, SQ_AUG, [lo, lo]).psi < 1.0
        assert psi(SQUARE, SQ_AUG, [hi, hi]).psi > 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if psi(SQUARE, SQ_AUG, [mid, mid]).psi < 1.0:
                lo = mid
            else:
                hi = mid
        crossing = 0.5 * (lo + hi)
        assert _closed_form_label(SQUARE, SQ_AUG, [crossing, crossing]) == "boundary"

    def test_coded_classes(self):
        values = np.array([math.nan, 1.0 - BOUNDARY_BAND, 1.0 + BOUNDARY_BAND, 1.0, 0.5,
                           1.0 - 2 * BOUNDARY_BAND, 1.0 + 2 * BOUNDARY_BAND, 3.0, math.nan])
        labels = _classify_psi(values)
        assert labels.dtype == object and labels.shape == values.shape
        assert labels.tolist() == ["outside", "boundary", "boundary", "boundary", "U_minus",
                                   "U_minus", "U_plus", "U_plus", "outside"]
        assert all(type(label) is str for label in labels)
        grid = values[:8].reshape(2, 4)
        np.testing.assert_array_equal(_classify_psi(grid), labels[:8].reshape(2, 4))

    def test_square_has_both_regions(self):
        labels = {
            _closed_form_label(SQUARE, SQ_AUG, x)
            for x in ([0.0, 0.0], [2.5, 2.5], [-2.5, -2.5], [3.0, -3.0])
        }
        assert "U_minus" in labels
        assert "U_plus" in labels


class TestWitness:
    def test_interior_witness_drops_density(self):
        x0 = witness_interior(SQUARE, SQ_AUG)
        np.testing.assert_allclose(x0, [0.0, 0.0], atol=1e-8)
        assert psi(SQUARE, SQ_AUG, x0).psi < 1.0

    def test_exterior_point_rejected(self):
        with pytest.raises(DomainError):
            witness_interior(TWO_TERM, Augmentation([-0.5]))

    def test_negligible_weight_fails_numerically(self):
        # With alpha0 = 1e-200, K_0 rounds to K at x_0, so Psi(x_0) is 1.0
        # exactly and the witness is refused rather than returned.
        with pytest.raises(SparseKacRiceError, match=r"interior witness failed numerically: Psi\(x0\) = 1\.0"):
            witness_interior(SQUARE, Augmentation([0.3, 0.6], 1e-200))

    def test_every_interior_point_yields_witness(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            a0 = rng.uniform(0.1, 0.9, size=2)
            x0 = witness_interior(SQUARE, Augmentation(a0))
            assert psi(SQUARE, Augmentation(a0), x0).psi < 1.0
            np.testing.assert_allclose(evaluate(SQUARE, x0).mu, a0, atol=1e-8)


class TestAugmentedMetric:
    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(11)
        aug = Augmentation([3.0], alpha0=0.7)
        E0 = augment(TWO_TERM, aug)
        for _ in range(10):
            x = rng.uniform(-3, 3, size=1)
            got = _rank_one_metric(TWO_TERM, aug, x)
            want = evaluate(E0, x).g.entries
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_matches_direct_evaluation_2d(self):
        E0 = augment(SQUARE, SQ_AUG)
        for x in ([0.3, -0.2], [1.5, 0.5]):
            got = _rank_one_metric(SQUARE, SQ_AUG, x)
            want = evaluate(E0, x).g.entries
            np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("t", [40.0, 60.0, 100.0])
    def test_ill_conditioned_metric_needs_no_dual(self, t):
        # cond g is 2e23 to 2e58 along (1, 0.3): dual_form refuses g there,
        # but the rank-one update reads no dual form, nor does the level-set
        # check; the formed-metric Psi, which reads one, still raises.
        # Rounding <a0, x> near 370 alone moves the weights by about 1e-13
        # relative.
        aug = Augmentation([3.0, 3.0])
        x = t * np.array([1.0, 0.3]) / math.hypot(1.0, 0.3)
        got = _rank_one_metric(SQUARE, aug, x)
        want = evaluate(augment(SQUARE, aug), x).g.entries
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert _levelset_residual(SQUARE, aug, x) < 1e-10
        with pytest.raises(SingularFormError):
            _psi_via_phi0(SQUARE, aug, x)


class TestLevelsetProjection:
    def test_tangent_restriction_matches(self):
        assert _levelset_residual(SQUARE, SQ_AUG, [0.7, -0.3]) < 1e-10

#: Sums for the preimage-store tests: the points, the weights, an interior
#: and an exterior a0, and a resolution.
STORE_CASES = {
    "three_terms": ([[0], [1], [3]], [1.0, 2.0, 1.0], [1.2], [4.0], 50),
    "weighted_square": ([[0, 0], [1, 0], [0, 1], [1, 1]], [1.0, 0.7, 1.3, 0.9],
                        [0.3, 0.6], [2.0, -1.0], 16),
}


class TestRegionScan:
    def test_moment_grid_contains_drop_region(self):
        scan = region_scan(SQUARE, SQ_AUG, resolution=16, space="p")
        labels = np.asarray(scan.classes)
        assert (labels == "U_minus").any()
        assert (labels == "outside").any()
        interior = labels != "outside"
        assert np.isfinite(np.asarray(scan.psi)[interior]).all()
        assert np.isnan(np.asarray(scan.psi)[~interior]).all()

    def test_native_grid_has_no_outside(self):
        scan = region_scan(
            SQUARE, SQ_AUG, box=[(-3, 3), (-3, 3)], resolution=8, space="x"
        )
        assert "outside" not in np.asarray(scan.classes)

    @pytest.mark.parametrize("space", ["p", "x"])
    @pytest.mark.parametrize("where", ["interior", "exterior"])
    @pytest.mark.parametrize("name", sorted(SCAN_CASES))
    def test_scan_equals_scalar_psi(self, name, where, space):
        E, inner, outer = SCAN_CASES[name]
        aug = Augmentation(inner if where == "interior" else outer)
        scan = region_scan(E, aug, resolution=16, space=space)
        nodes = np.stack(np.meshgrid(*scan.axes, indexing="ij"), axis=-1).reshape(-1, 2)
        values, labels = scan.psi.ravel(), scan.classes.ravel()
        if space == "x":
            X, classified = nodes, np.arange(len(nodes))
        else:
            margin = INVERT_MARGIN * (1.0 + diameter(E.support))
            inside = np.array([interior_contains(E.support, p, margin) for p in nodes])
            np.testing.assert_array_equal(labels == "outside", ~inside)
            X, ok = _invert_moment_many(E, nodes[inside] - E._c)
            assert ok.all()
            classified = np.flatnonzero(inside)
        assert classified.size > 0
        for i, x in zip(classified, X):
            want = psi(E, aug, x)
            assert values[i] == pytest.approx(want.psi, rel=1e-12)
            assert labels[i] == want.classification
            # The independent route through evaluate checks the kernel itself.
            assert values[i] == pytest.approx(_psi_via_phi0(E, aug, x), rel=1e-10)

    def test_degenerate_metric_raises(self):
        # Far along the axes the square's formed metric fails the condition
        # gate; the scan is still exact to roundoff at those nodes.
        mp = pytest.importorskip("mpmath")
        scan = region_scan(SQUARE, SQ_AUG, box=[(-20, 20), (-20, 20)], resolution=64, space="x")
        nodes = np.stack(np.meshgrid(*scan.axes, indexing="ij"), axis=-1).reshape(-1, 2)
        flat = _refused_by_dual_form(batch_moments(SQUARE, nodes)[3])
        assert flat.sum() > 400
        errors = []
        for x, got in zip(nodes[flat], scan.psi.ravel()[flat]):
            with mp.workdps(60):
                want = _psi_60_digits(mp, SQUARE, SQ_AUG.a0, x)[0]
            errors.append(abs(got - want) / want)
        assert max(errors) <= 1e-13

    def test_moment_scan_near_a_facet_is_psi_at_the_preimage(self):
        # A node 2e-5 inside the bottom facet of a sheared, reweighted square:
        # inverted to an absolute moment residual of 1e-10, its Psi was 1.3e-7
        # relative off the Psi at the exact preimage.
        mp = pytest.importorskip("mpmath")
        E = ExpSum([[0, 0], [1, 0], [0.5, 1], [1.5, 1]], [1.0, 0.7, 1.3, 0.9])
        aug = Augmentation([0.8, 0.4])
        scan = region_scan(E, aug, box=[(0.2, 1.0), (2e-5, 0.9)], resolution=(5, 4))
        p = [scan.axes[0][2], scan.axes[1][0]]
        np.testing.assert_allclose(p, [0.6, 2e-5], rtol=1e-12)
        with mp.workdps(50):
            x = _preimage_50_digits(mp, E, p)
            want = _psi_60_digits(mp, E, aug.a0, x)[0]
        assert scan.psi[2, 0] == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_csv_layout(self):
        scan = region_scan(SQUARE, SQ_AUG, resolution=(6, 8), space="p")
        lines = scan.to_csv().strip().split("\n")
        assert lines[0] == "p1,p2,psi,class"
        assert len(lines) == 1 + 6 * 8
        assert "np.float64" not in lines[1]

    def test_json_layout(self):
        scan = region_scan(SQUARE, SQ_AUG, resolution=6, space="p")
        doc = json.loads(scan.to_json())
        assert doc["schema"] == 1
        assert doc["space"] == "p"
        assert doc["resolution"] == [6, 6]
        assert len(doc["psi"]) == 36
        assert len(doc["class"]) == 36
        nulls = [i for i, v in enumerate(doc["psi"]) if v is None]
        outside = [i for i, c in enumerate(doc["class"]) if c == "outside"]
        assert nulls == outside

    @pytest.mark.parametrize("name", sorted(SHIFT_CASES))
    def test_moment_scan_is_translation_invariant(self, name):
        # Translating the support and a0 together moves neither Psi nor the
        # classes; inverting raw moments left up to a quarter of the
        # interior nodes "outside" at a shift of 1e6.
        E, a0, resolution = SHIFT_CASES[name]
        moved = ExpSum(E.support.points + 1e6, E.coeffs)
        want = region_scan(E, Augmentation(a0), resolution=resolution)
        got = region_scan(moved, Augmentation(np.add(a0, 1e6)), resolution=resolution)
        np.testing.assert_array_equal(got.classes, want.classes)
        np.testing.assert_allclose(got.psi, want.psi, rtol=1e-8, atol=0.0)

    def test_rejects_bad_space(self):
        with pytest.raises(InputError):
            region_scan(SQUARE, SQ_AUG, resolution=4, space="q")

    @pytest.mark.parametrize("space", ["p", "x"])
    @pytest.mark.parametrize(
        "box, resolution",
        [([(-math.inf, 1.0), (0.0, 1.0)], 4), ([("a", "b"), (0.0, 1.0)], 4),
         ([(0.0, 1.0), (0.0, 1.0)], 1), ([(0.0, 1.0), (0.0, 1.0)], (4, 4, 4)),
         ([(0.0, 1.0), (0.0, 1.0)], "x"), ([(0.0, 1.0), (0.0, 1.0)], 2.7),
         ([(0.0, 1.0), (0.0, 1.0)], (3, 2.5))],
        ids=["infinite-box", "non-numeric-box", "one-point-axis", "three-axes", "not-an-int",
             "2.7", "(3, 2.5)"],
    )
    def test_rejects_bad_box_or_resolution(self, box, resolution, space):
        with pytest.raises(InputError):
            region_scan(SQUARE, SQ_AUG, box=box, resolution=resolution, space=space)

    def test_csv_and_json_records(self):
        # Every record written out in full from the scan's own arrays, with
        # the labels of the comparisons against 1 +- BOUNDARY_BAND.
        scan = region_scan(SQUARE, Augmentation([0.3, 0.6]), resolution=(5, 7), space="p")
        nodes = np.stack(np.meshgrid(*scan.axes, indexing="ij"), axis=-1).reshape(-1, 2)
        values = scan.psi.ravel()
        labels = ["outside" if math.isnan(v) else "U_minus" if v < 1.0 - BOUNDARY_BAND
                  else "U_plus" if v > 1.0 + BOUNDARY_BAND else "boundary" for v in values]
        assert {"outside", "U_minus", "U_plus"} <= set(labels)
        assert scan.classes.dtype == object and scan.classes.ravel().tolist() == labels
        rows = [f"{p1!r},{p2!r},{v!r},{label}" for (p1, p2), v, label in
                zip(nodes.tolist(), values.tolist(), labels)]
        assert scan.to_csv() == "\n".join(["p1,p2,psi,class"] + rows) + "\n"
        assert json.loads(scan.to_json()) == {
            "schema": 1, "space": "p", "box": [[0.0, 1.0], [0.0, 1.0]], "resolution": [5, 7],
            "axes": [axis.tolist() for axis in scan.axes], "columns": ["p1", "p2", "psi", "class"],
            "psi": [None if math.isnan(v) else v for v in values.tolist()], "class": labels,
        }

    def test_csv_nodes_are_the_scan_grid(self):
        scan = region_scan(SQUARE, SQ_AUG, box=[(-1.0, 2.0), (0.5, 3.0)], resolution=(3, 4),
                           space="x")
        rows = [line.split(",") for line in scan.to_csv().strip().split("\n")[1:]]
        want = np.stack(np.meshgrid(*scan.axes, indexing="ij"), axis=-1).reshape(-1, 2)
        np.testing.assert_array_equal([[float(r[0]), float(r[1])] for r in rows], want)


class TestGridPreimages:
    """A sum keeps its last grid in each space, with the scan points and
    the sum's part of Psi there, for every later a0."""

    @pytest.mark.parametrize("where", ["interior", "exterior"])
    @pytest.mark.parametrize("name", sorted(STORE_CASES))
    def test_reuse_equals_a_fresh_sum(self, name, where):
        points, coeffs, inner, outer, resolution = STORE_CASES[name]
        first, then = (outer, inner) if where == "interior" else (inner, outer)
        E = ExpSum(points, coeffs)
        region_scan(E, Augmentation(first), resolution=resolution)
        stored = E._scan_grids["p"]
        got = region_scan(E, Augmentation(then), resolution=resolution)
        assert E._scan_grids["p"] is stored
        want = region_scan(ExpSum(points, coeffs), Augmentation(then), resolution=resolution)
        assert got.psi.tobytes() == want.psi.tobytes()
        np.testing.assert_array_equal(got.classes, want.classes)
        assert (got.classes != "outside").any()

    def test_each_grid_is_inverted_once(self, monkeypatch):
        calls = []

        def counted(E, P):
            calls.append(len(P))
            return _invert_moment_many(E, P)

        monkeypatch.setattr(monotonicity, "_invert_moment_many", counted)
        E = ExpSum(SQUARE.support.points)
        narrow = [(0.1, 0.9), (0.0, 1.0)]
        runs = [
            ({"resolution": 8}, 1),
            ({"resolution": 8}, 1),
            ({"resolution": 8, "space": "x"}, 1),
            ({"box": [(0.0, 1.0), (0.0, 1.0)], "resolution": 8}, 1),
            ({"box": narrow, "resolution": 8}, 2),
            ({"box": narrow, "resolution": 8}, 2),
            ({"box": narrow, "resolution": (8, 9)}, 3),
            ({"resolution": 8}, 4),
        ]
        for i, (kwargs, want) in enumerate(runs):
            region_scan(E, Augmentation([0.3, 0.6] if i % 2 else [2.0, -1.0]), **kwargs)
            assert len(calls) == want, kwargs
        assert E._scan_grids["p"][1:3] == (((0.0, 1.0), (0.0, 1.0)), (8, 8))

    def test_failed_nodes_stay_outside_on_reuse(self, monkeypatch):
        # c00 c11 = 3 against c10 c01 = 1: far from a product of two-term
        # sums, this square has no facet-log predictor, so every node starts
        # at the balancing point and four Newton iterations invert 66 of the
        # 196 usable nodes.
        points, coeffs = [[0, 0], [1, 0], [0, 1], [1, 1]], [1.0, 0.5, 2.0, 3.0]
        inner, outer = [0.3, 0.6], [2.0, -1.0]
        E = ExpSum(points, coeffs)
        assert E._facet_start is None
        monkeypatch.setattr(expsum, "INVERT_MAX_ITER", 4)
        first = region_scan(E, Augmentation(inner), resolution=16)
        monkeypatch.undo()
        again = region_scan(E, Augmentation(outer), resolution=16)
        fresh = region_scan(ExpSum(points, coeffs), Augmentation(outer), resolution=16)
        failed = (first.classes == "outside") & (fresh.classes != "outside")
        assert failed.any() and (first.classes != "outside").any()
        np.testing.assert_array_equal(again.classes == "outside", first.classes == "outside")
        assert np.isnan(again.psi[failed]).all()

    def test_degenerate_metric_raises_again_on_reuse(self, monkeypatch):
        # det g does not underflow at a preimage of a real grid, so the
        # kernel's det g sum is made to vanish at one node.
        real = monotonicity._simplex_sum

        def flat_at_one_node(W, B, m):
            total = real(W, B, m)
            total[0] = 0.0
            return total

        monkeypatch.setattr(monotonicity, "_simplex_sum", flat_at_one_node)
        E = ExpSum(SQUARE.support.points)
        for a0 in ([0.3, 0.6], [2.0, -1.0]):
            for space in ("p", "x"):
                with pytest.raises(DegenerateMetricError):
                    region_scan(E, Augmentation(a0), resolution=8, space=space)
        assert E._scan_grids == {}
        flat = ExpSum([[0, 0], [1, 1], [2, 2]])
        for a0 in ([0.3, 0.6], [2.0, -1.0]):
            with pytest.raises(DegenerateMetricError):
                region_scan(flat, Augmentation(a0), resolution=8)
        assert flat._scan_grids == {}

    @pytest.mark.parametrize("name", sorted(STORE_CASES))
    def test_x_rescan_equals_a_fresh_sum(self, name):
        points, coeffs, inner, outer, resolution = STORE_CASES[name]
        box = [(-4.0, 6.0)] * len(inner)
        E = ExpSum(points, coeffs)
        region_scan(E, Augmentation(inner), box=box, resolution=resolution, space="x")
        stored = E._scan_grids["x"]
        got = region_scan(E, Augmentation(outer, 1.5), box=box, resolution=resolution, space="x")
        assert E._scan_grids["x"] is stored and "p" not in E._scan_grids
        want = region_scan(ExpSum(points, coeffs), Augmentation(outer, 1.5), box=box, resolution=resolution,
                           space="x")
        assert got.psi.tobytes() == want.psi.tobytes()
        np.testing.assert_array_equal(got.classes, want.classes)
        assert got.box == want.box and all(a.tobytes() == b.tobytes() for a, b in zip(got.axes, want.axes))

    @pytest.mark.parametrize("space", ["p", "x"])
    def test_a_rescan_runs_only_the_exponents_part(self, monkeypatch, space):
        # The sum's part (softmax, det g sum) and the grid are taken once;
        # a re-scan under another a0, and a request that resolves to the
        # same grid, take none of them again.
        calls = []
        for name in ("_softmax", "_simplex_sum", "_grid"):
            def counted(*args, name=name, real=getattr(monotonicity, name)):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(monotonicity, name, counted)
        E = ExpSum([[0, 0], [1, 0], [0, 1], [1, 1]], [1.0, 0.7, 1.3, 0.9])
        region_scan(E, Augmentation([0.3, 0.6]), resolution=8, space=space)
        assert sorted(set(calls)) == ["_grid", "_simplex_sum", "_softmax"]
        del calls[:]
        again = [region_scan(E, Augmentation(a0), resolution=8, space=space)
                 for a0 in ([2.0, -1.0], [0.3, 0.6], [0.5, 0.2])]
        assert calls == []
        box = [(0.0, 1.0), (0.0, 1.0)] if space == "p" else [(-5.0, 5.0), (-5.0, 5.0)]
        explicit = region_scan(E, Augmentation([0.5, 0.2]), box=box, resolution=(8, 8), space=space)
        assert calls == ["_grid"]
        assert explicit.psi.tobytes() == again[-1].psi.tobytes()

    def test_a_checked_a0_is_not_checked_again(self, monkeypatch):
        checks = []
        real = monotonicity._check_augmentation

        def counted(E, aug):
            checks.append(aug.a0.tolist())
            return real(E, aug)

        monkeypatch.setattr(monotonicity, "_check_augmentation", counted)
        E = ExpSum([[0, 0], [1, 0], [0, 1], [1, 1]], [1.0, 0.7, 1.3, 0.9])
        inner, outer = Augmentation([0.3, 0.6]), Augmentation([2.0, -1.0])
        region_scan(E, inner, resolution=8)
        region_scan(E, inner, resolution=8)
        region_scan(E, Augmentation([0.3, 0.6], 2.0), resolution=8, space="x")
        psi(E, inner, [0.2, -0.4])
        assert checks == [[0.3, 0.6]]
        region_scan(E, outer, resolution=8)
        assert checks == [[0.3, 0.6], [2.0, -1.0]]
        # A sum that holds a store still refuses a bad a0.
        assert set(E._scan_grids) == {"p", "x"}
        for bad, match in (([1.0, 0.0], "coincides"), ([0.3], "length"), ([0.3, 0.6, 0.1], "length")):
            for space in ("p", "x"):
                with pytest.raises(InputError, match=match):
                    region_scan(E, Augmentation(bad), resolution=8, space=space)
            with pytest.raises(InputError, match=match):
                psi(E, Augmentation(bad), [0.2, -0.4])

    @pytest.mark.parametrize("E", [ExpSum([[0], [1], [2], [3], [5]]), SQUARE, kostlan(3, 1)],
                             ids=["1-D", "2-D", "3-D"])
    def test_store_holds_k_plus_m_plus_2_floats_per_point(self, E):
        # The scan points (m), the softmax weights (k), phi and the det g
        # sum (1 each), counted over the buffers the store keeps alive: no
        # kernel work buffer rides along with them.
        E = ExpSum(E.support.points, E.coeffs)
        for space in ("p", "x"):
            region_scan(E, Augmentation(np.full(E.dim, 0.3)), resolution=6, space=space)
            X, *part = E._scan_grids[space][5:]
            held = {id(a if a.base is None else a.base): (a if a.base is None else a.base).nbytes for a in (X, *part)}
            assert len(X) > 0 and sum(held.values()) == (E.n_terms + E.dim + 2) * len(X) * 8

    def test_another_p_grid_replaces_only_the_p_entry(self):
        E = ExpSum([[0, 0], [1, 0], [0, 1], [1, 1]], [1.0, 0.7, 1.3, 0.9])
        aug = Augmentation([0.3, 0.6])
        region_scan(E, aug, resolution=8)
        region_scan(E, aug, resolution=8, space="x")
        p_grid, x_grid = E._scan_grids["p"], E._scan_grids["x"]
        region_scan(E, aug, resolution=(8, 9))
        assert E._scan_grids["x"] is x_grid and E._scan_grids["p"] is not p_grid
        assert E._scan_grids["p"][2] == (8, 9) and x_grid[2] == (8, 8)


class TestConeBlock:
    """A sum keeps the cone-determinant block of its last a0."""

    def test_one_a0_builds_its_block_once(self, monkeypatch):
        built = []
        cone_dets = monotonicity._cone_dets

        def counted(points, tuples, apex):
            built.append(apex.tolist())
            return cone_dets(points, tuples, apex)

        monkeypatch.setattr(monotonicity, "_cone_dets", counted)
        E = ExpSum([[0, 0], [1, 0], [0, 1], [1, 1]], [1.0, 0.7, 1.3, 0.9])
        inner, outer = Augmentation([0.3, 0.6]), Augmentation([2.0, -1.0], 1.5)
        # (call, blocks it builds on E): another a0 replaces the block.
        calls = [
            (lambda S: region_scan(S, inner, resolution=8), 1),
            (lambda S: region_scan(S, inner, resolution=8, space="x"), 0),
            (lambda S: [psi(S, inner, [0.2, -0.4])], 0),
            (lambda S: ray_scan_unbounded(S, inner, [1.0, 0.3], 20.0, 4), 0),
            (lambda S: region_scan(S, outer, resolution=8), 1),
            (lambda S: [psi(S, inner, [0.2, -0.4])], 1),
        ]
        for call, blocks in calls:
            before = len(built)
            got = call(E)
            assert len(built) - before == blocks and not E._cone_block[1].flags.writeable
            # the same numbers as a fresh sum, which builds its own block
            want = call(ExpSum(E.support.points, E.coeffs))
            if isinstance(got, list):
                fields = lambda evs: [(e.psi, e.tau_normsq, e.ratio, e.classification) for e in evs]
                assert fields(got) == fields(want)
            else:
                assert got.psi.tobytes() == want.psi.tobytes()
                np.testing.assert_array_equal(got.classes, want.classes)
