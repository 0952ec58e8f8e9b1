"""Tests for product constructions and coefficient systems."""

from __future__ import annotations

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from sparse_kacrice import (
    ExpSum,
    InputError,
    McConfig,
    aronszajn,
    aronszajn_power,
    density,
    density_many,
    esol_total,
    estimate_esol,
    evaluate,
    kostlan,
    tensor,
)
from sparse_kacrice.geometry import PAIRWISE_LIMIT

A2 = ExpSum([[0.0], [0.7]], [1.0, 2.0])
B3 = ExpSum([[0.1], [1.3], [2.0]], [0.5, 1.0, 1.5])


def _canonical(E):
    pts = np.asarray(E.support.points, dtype=float)
    cfs = np.asarray(E.coeffs, dtype=float)
    order = np.lexsort(pts.T[::-1])
    return pts[order], cfs[order]


class TestTensor:
    def test_shapes(self):
        T = tensor(A2, B3)
        assert T.dim == 2
        assert T.n_terms == 6

    def test_variance_multiplies_on_split_variables(self):
        rng = np.random.default_rng(20)
        T = tensor(A2, B3)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=1)
            y = rng.uniform(-2, 2, size=1)
            want = evaluate(A2, x).K * evaluate(B3, y).K
            got = evaluate(T, np.concatenate([x, y])).K
            assert got == pytest.approx(want, rel=1e-12)

    def test_commutes_up_to_axis_swap(self):
        p1, c1 = _canonical(tensor(A2, B3))
        pts = np.asarray(tensor(B3, A2).support.points, dtype=float)[:, ::-1]
        cfs = np.asarray(tensor(B3, A2).coeffs, dtype=float)
        order = np.lexsort(pts.T[::-1])
        np.testing.assert_allclose(p1, pts[order])
        np.testing.assert_allclose(c1, cfs[order])

    def test_metric_is_block_diagonal(self):
        T = tensor(A2, B3)
        g = evaluate(T, [0.4, -0.2]).g.entries
        assert g[0, 1] == pytest.approx(0.0, abs=1e-14)
        assert g[0, 0] == pytest.approx(evaluate(A2, [0.4]).g.entries[0, 0], rel=1e-12)
        assert g[1, 1] == pytest.approx(evaluate(B3, [-0.2]).g.entries[0, 0], rel=1e-12)


class TestAronszajn:
    def test_variance_multiplies_pointwise(self):
        rng = np.random.default_rng(21)
        P = aronszajn(A2, B3)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=1)
            want = evaluate(A2, x).K * evaluate(B3, x).K
            assert evaluate(P, x).K == pytest.approx(want, rel=1e-12)

    def test_commutative(self):
        p1, c1 = _canonical(aronszajn(A2, B3))
        p2, c2 = _canonical(aronszajn(B3, A2))
        np.testing.assert_allclose(p1, p2)
        np.testing.assert_allclose(c1, c2)

    def test_merges_coincident_sums(self):
        P = aronszajn(A2, A2)
        assert P.n_terms == 3  # {0, 0.7, 1.4}, middle point hit twice
        x = [0.3]
        assert evaluate(P, x).K == pytest.approx(evaluate(A2, x).K ** 2, rel=1e-12)

    def test_merge_tolerance_clusters_near_duplicates(self):
        Ea = ExpSum([[0.0], [1.0]])
        Eb = ExpSum([[0.0], [1.0 + 1e-12]])
        P = aronszajn(Ea, Eb)
        assert P.n_terms == 3

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            aronszajn(A2, kostlan(2, 1))


class TestAronszajnPower:
    def test_two_point_binomial_shortcut(self):
        P = aronszajn_power(ExpSum([[0.0], [1.0]]), 4)
        assert P.n_terms == 5
        pts, cfs = _canonical(P)
        np.testing.assert_allclose(pts.ravel(), [0.0, 1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(cfs**2, [1.0, 4.0, 6.0, 4.0, 1.0], rtol=1e-12)

    def test_matches_iterated_product(self):
        rng = np.random.default_rng(22)
        for d in (2, 3):
            P = aronszajn_power(B3, d)
            for _ in range(5):
                x = rng.uniform(-1.5, 1.5, size=1)
                want = evaluate(B3, x).K ** d
                assert evaluate(P, x).K == pytest.approx(want, rel=1e-12)

    def test_degree_one_is_identity(self):
        P = aronszajn_power(B3, 1)
        p1, c1 = _canonical(P)
        p0, c0 = _canonical(B3)
        np.testing.assert_allclose(p1, p0)
        np.testing.assert_allclose(c1, c0)

    def test_rejects_bad_degree(self):
        with pytest.raises(InputError):
            aronszajn_power(B3, 0)

    def test_degree_follows_the_integer_rule(self):
        for d in (True, 2.0, 2.5, "2"):
            with pytest.raises(InputError):
                aronszajn_power(B3, d)
        p1, c1 = _canonical(aronszajn_power(B3, np.int64(2)))
        p2, c2 = _canonical(aronszajn_power(B3, 2))
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(c1, c2)

    def test_overflow_degree_rejected(self):
        with pytest.raises(InputError):
            aronszajn_power(ExpSum([[0.0], [1.0]]), 3000)


class TestKostlan:
    def test_shapes(self):
        assert kostlan(1, 4).n_terms == 5
        assert kostlan(2, 3).n_terms == 16
        assert kostlan(3, 2).n_terms == 27

    def test_variance_closed_form(self):
        rng = np.random.default_rng(23)
        for m, d in ((1, 3), (2, 2), (3, 2)):
            K = kostlan(m, d)
            for _ in range(5):
                x = rng.uniform(-1, 1, size=m)
                want = float(np.prod((1.0 + np.exp(2.0 * x)) ** d))
                assert evaluate(K, x).K == pytest.approx(want, rel=1e-12)

    def test_coefficients_are_root_binomials(self):
        want = [1.0, math.sqrt(2.0), 1.0]
        np.testing.assert_allclose(kostlan(1, 2).coeffs, want, rtol=0.0, atol=1e-12)
        K = kostlan(1, 6)
        np.testing.assert_array_equal(K.support.points.ravel(), np.arange(7.0))
        want = np.sqrt([math.comb(6, i) for i in range(7)])
        np.testing.assert_allclose(K.coeffs, want, rtol=1e-13)

    def test_equals_tensor_of_one_variable_factors(self):
        p1, c1 = _canonical(kostlan(2, 2))
        p2, c2 = _canonical(tensor(kostlan(1, 2), kostlan(1, 2)))
        np.testing.assert_allclose(p1, p2)
        np.testing.assert_allclose(c1, c2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            kostlan(0, 2)
        with pytest.raises(InputError):
            kostlan(1, 0)
        with pytest.raises(InputError):
            kostlan(1, 3000)

    def test_overflow_is_refused_from_the_row(self):
        # The refusal reads the 2101-entry binomial row, not the 2101^2
        # grid of log coefficients (270 MiB if it were built first).
        kostlan(2, 2)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="^degree 2100 overflows double-precision coefficients$"):
                kostlan(2, 2100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_oversized_support_is_refused_before_the_pairwise_pass(self):
        # kostlan(2, 500) holds 501^2 points: k^2 m is past PAIRWISE_LIMIT,
        # so the (k, k, m) difference array (939 GiB) is never asked for.
        kostlan(2, 2)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(InputError, match="^251001 points in R\\^2 are over the pairwise limit"):
                kostlan(2, 500)
            elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 64 * 2**20
        # kostlan(2, 45) and kostlan(3, 12) stay within it.
        assert 46**4 * 2 <= PAIRWISE_LIMIT and 13**6 * 3 <= PAIRWISE_LIMIT

    def test_counts_follow_the_integer_rule(self):
        for m, d in ((True, 2), (2, True), (2.0, 1), (1, 2.5), ("2", 1)):
            with pytest.raises(InputError):
                kostlan(m, d)
        assert kostlan(np.int64(2), np.int32(3)).n_terms == 16


class TestDensityBounds:
    def test_norm_inequality_holds(self):
        pairs = [
            (ExpSum([[0.0], [1.0]]), B3),
            (kostlan(2, 1), kostlan(2, 2)),
        ]
        # (s_1 + s_2)/sqrt(2) <= s <= s_1 + s_2 with s_i = sqrt(g_i(u)) and
        # s = sqrt((g_1 + g_2)(u)), over 50 unit u from default_rng(0) (u = 1
        # in one variable); both hold here with no slack.
        for Ea, Eb in pairs:
            m = Ea.dim
            U = np.ones((1, 1)) if m == 1 else np.random.default_rng(0).standard_normal((50, m))
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            for x in (np.zeros(m), np.full(m, 0.4)):
                g1, g2 = evaluate(Ea, x).g.entries, evaluate(Eb, x).g.entries
                s1, s2, s = (np.sqrt(np.einsum("ni,ij,nj->n", U, g, U)) for g in (g1, g2, g1 + g2))
                assert (s - (s1 + s2) / math.sqrt(2.0)).min() >= 0.0
                assert (s1 + s2 - s).min() >= 0.0

    def test_product_density_between_scaled_factors(self):
        # scalar corollary of the norm inequality at matched evaluation points
        Ea, Eb = ExpSum([[0.0], [1.0]]), B3
        P = aronszajn(Ea, Eb)
        for x in ([-1.0], [0.0], [0.8]):
            da, db, dp = density(Ea, x), density(Eb, x), density(P, x)
            assert dp <= da + db + 1e-12
            assert dp >= max(da, db) / math.sqrt(2.0) - 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    def test_minkowski_bound_pointwise(self, m):
        # g_ab = g_a + g_b, so Minkowski's determinant inequality gives
        # rho_ab^(2/m) >= rho_a^(2/m) + rho_b^(2/m) at every x; six seeded
        # pairs on {0,1,2}^m, where the product's merge is exact, at 200
        # points each.
        rng = np.random.default_rng(m)
        lattice = np.array(list(itertools.product(range(3), repeat=m)), dtype=float)

        def draw():
            while True:
                k = rng.integers(m + 1, m + 4)
                E = ExpSum(lattice[rng.choice(len(lattice), k, replace=False)], rng.uniform(0.3, 3.0, k))
                if not E.support.degenerate:
                    return E

        for _ in range(6):
            a, b = draw(), draw()
            X = rng.uniform(-3.0, 3.0, size=(200, m))
            ra, rb, rab = (density_many(E, X) ** (2.0 / m) for E in (a, b, aronszajn(a, b)))
            assert np.all(rab >= (ra + rb) * (1.0 - 1e-12))


class TestAronszajnCounts:
    """The product's metric is the sum of its factors' metrics, so by
    Minkowski's determinant inequality its density satisfies
    rho_ab^(2/m) >= rho_a^(2/m) + rho_b^(2/m): for m >= 2 the count is
    superadditive, with equality where g_a is proportional to g_b.  In one
    variable only rho_ab >= (rho_a + rho_b)/sqrt(2) holds.  Each bound is
    checked within the summed claimed errors of the three counts."""

    @pytest.mark.parametrize("seed", range(4))
    def test_superadditive_in_two_variables(self, seed):
        rng = np.random.default_rng(seed)
        a = ExpSum(rng.normal(size=(3, 2)), rng.uniform(0.5, 2.0, 3))
        b = ExpSum(rng.normal(size=(4, 2)), rng.uniform(0.5, 2.0, 4))
        ra, rb, rab = (esol_total(E) for E in (a, b, aronszajn(a, b)))
        assert rab.value >= ra.value + rb.value - (ra.error + rb.error + rab.error)

    def test_equal_for_a_square_times_itself(self):
        # kostlan(2, 1) squared is kostlan(2, 2): pi/4 = 2 pi/8.
        a = kostlan(2, 1)
        ra, rab = esol_total(a), esol_total(aronszajn(a, a))
        assert abs(rab.value - 2.0 * ra.value) <= 2.0 * ra.error + rab.error

    @pytest.mark.parametrize("seed", range(4))
    def test_root_two_bound_in_one_variable(self, seed):
        # The product's count is also checked against its exact
        # Monte-Carlo count, within 4 standard errors.
        rng = np.random.default_rng(100 + seed)
        a = ExpSum(np.sort(rng.uniform(0.0, 3.0, size=(3, 1)), axis=0), rng.uniform(0.3, 3.0, 3))
        b = ExpSum(np.sort(rng.uniform(0.0, 3.0, size=(2, 1)), axis=0), rng.uniform(0.3, 3.0, 2))
        ab = aronszajn(a, b)
        ra, rb, rab = (esol_total(E) for E in (a, b, ab))
        assert rab.value >= (ra.value + rb.value) / math.sqrt(2.0) - (ra.error + rb.error + rab.error)
        mean, stderr = estimate_esol(ab, McConfig(n_samples=20_000, seed=seed))
        assert abs(mean - rab.value) <= 4.0 * stderr
