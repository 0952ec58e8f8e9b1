"""Tests for exponential-sum evaluation, moments, and coordinate changes."""

from __future__ import annotations

import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from sparse_kacrice import (
    ConvergenceError,
    DomainError,
    ExpSum,
    InputError,
    Quadrature,
    SingularFormError,
    asymptotic_moment,
    ball_sphere_constants,
    density,
    density_many,
    dual_form,
    esol_region,
    evaluate,
    face_metric_limit,
    interior_contains,
    invert_moment,
    esol_total,
    kostlan,
    legendre_density,
    potential,
)
from sparse_kacrice.expsum import INVERT_TOL, _batch_moments, _invert_moment_many, _log_det, _softmax
from sparse_kacrice.geometry import DET_FLOOR, SIMPLEX_FORM_LIMIT, diameter

TWO_TERM = ExpSum([[0.0], [1.0]])
IRREGULAR = ExpSum([[0.0], [0.5], [1.7]], [1.0, 2.0, 1.0])
SQUARE = kostlan(2, 1)
#: Weights spanning sixty decades, and two exponents 1e-3 apart.
EXTREME = ExpSum([[-50.0], [0.0], [0.001], [80.0]], [1e-30, 1.0, 1.0, 1e30])
#: A weighted rectangle whose inversion from x = 0 meets a singular metric.
SKEWED_BOX = ExpSum(
    [[0.0, 0.488], [0.0, 1.836], [0.778, 0.488], [0.778, 1.836]],
    [0.183, 0.338, 0.689, 1.274],
)
PENTAGON = ExpSum([[0.0, 0.0], [2.0, 0.0], [3.0, 1.0], [1.0, 3.0], [-1.0, 1.0]])


def derivative_residuals(E, x):
    """(max |grad - mu|, max |Hess - 2 g|) for the potential at x, by central
    differences of the fixed step h = 1e-4 along the coordinate axes."""
    h, m = 1e-4, E.dim
    e, f = h * np.eye(m), lambda y: potential(E, y)
    grad, hess = np.empty(m), np.empty((m, m))
    for i in range(m):
        grad[i] = (f(x + e[i]) - f(x - e[i])) / (2.0 * h)
        hess[i, i] = (f(x + e[i]) - 2.0 * f(x) + f(x - e[i])) / h**2
        for j in range(i + 1, m):
            up = f(x + e[i] + e[j]) - f(x + e[i] - e[j])
            hess[i, j] = hess[j, i] = (up - f(x - e[i] + e[j]) + f(x - e[i] - e[j])) / (4.0 * h**2)
    bundle = evaluate(E, x)
    return np.abs(grad - bundle.mu).max(), np.abs(hess - 2.0 * bundle.g.entries).max()


def _reference_moments(E, X):
    """(phi, lam, mu, G) point by point and term by term in plain NumPy,
    free of any batch layout: the reference for the batched kernel."""
    rows = []
    for x in X:
        t = E.support.points @ x + E.log_coeffs
        w = np.exp(2.0 * (t - t.max()))
        lam = w / w.sum()
        mu = sum(l * a for l, a in zip(lam, E.support.points))
        G = sum(l * np.outer(a - mu, a - mu) for l, a in zip(lam, E.support.points))
        rows.append((t.max() + 0.5 * math.log(w.sum()), lam, mu, G))
    return [np.array(column) for column in zip(*rows)]


class TestConstruction:
    def test_default_unit_coefficients(self):
        E = ExpSum([[0.0], [1.0]])
        np.testing.assert_array_equal(np.asarray(E.coeffs), [1.0, 1.0])
        assert E.dim == 1
        assert E.n_terms == 2

    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(InputError):
            ExpSum([[0.0], [1.0]], [1.0, 0.0])
        with pytest.raises(InputError):
            ExpSum([[0.0], [1.0]], [1.0, -1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            ExpSum([[0.0], [1.0]], [1.0])

    def test_json_round_trip(self):
        E = IRREGULAR
        back = ExpSum.from_json(E.to_json())
        np.testing.assert_array_equal(
            np.asarray(back.support.points), np.asarray(E.support.points)
        )
        np.testing.assert_array_equal(np.asarray(back.coeffs), np.asarray(E.coeffs))

    def test_from_json_rejects_garbage(self):
        with pytest.raises(InputError):
            ExpSum.from_json('{"schema": 1, "points": "nope"}')
        # dim follows the integer rule of every count argument
        for dim, support in ((1.9, [0, 1]), (True, [0, 1]), ("1", [0, 1]), (1.0, [0, 1]),
                             (2.9, [[0, 0], [1, 0], [0, 1]])):
            with pytest.raises(InputError, match="dim"):
                ExpSum.from_dict({"dim": dim, "support": support})
        assert ExpSum.from_dict({"dim": np.int64(2), "support": [[0, 0], [1, 0], [0, 1]]}).dim == 2


class TestEvaluate:
    def test_two_term_at_origin(self):
        b = evaluate(TWO_TERM, [0.0])
        assert b.K == pytest.approx(2.0)
        assert b.phi == pytest.approx(0.5 * math.log(2.0))
        np.testing.assert_allclose(b.weights, [0.5, 0.5])
        assert b.mu[0] == pytest.approx(0.5)
        assert b.g.entries[0, 0] == pytest.approx(0.25)
        assert b.density == pytest.approx(1.0 / (2.0 * math.pi))

    def test_two_term_closed_form(self):
        # K = 1 + e^{2x}; g = (1/4) sech^2 x; density = sech(x)/(2 pi)
        for x in (-3.0, -0.7, 0.2, 2.5):
            b = evaluate(TWO_TERM, [x])
            assert b.K == pytest.approx(1.0 + math.exp(2 * x), rel=1e-14)
            assert b.g.entries[0, 0] == pytest.approx(
                0.25 / math.cosh(x) ** 2, rel=1e-13
            )
            assert b.density == pytest.approx(
                1.0 / (2.0 * math.pi * math.cosh(x)), rel=1e-13
            )

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(-4, 4, size=2)
            b = evaluate(SQUARE, x)
            assert math.fsum(b.weights) == pytest.approx(1.0, abs=1e-12)
            assert np.all(b.weights > 0)
            np.testing.assert_allclose(
                b.mu,
                np.asarray(SQUARE.support.points).T @ b.weights,
                atol=1e-12,
            )

    def test_overflow_safe_far_out(self):
        b = evaluate(TWO_TERM, [400.0])
        assert b.K == math.inf  # raw scale overflows by design
        assert math.isfinite(b.phi)
        assert math.isfinite(b.density)
        assert b.mu[0] == pytest.approx(1.0)

    def test_potential_matches_bundle(self):
        for x in (-1.0, 0.3):
            assert potential(IRREGULAR, [x]) == pytest.approx(
                evaluate(IRREGULAR, [x]).phi
            )

    def test_density_many_matches_scalar(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-3, 3, size=(40, 2))
        batch = density_many(SQUARE, X)
        singles = [density(SQUARE, x) for x in X]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    def test_density_many_matches_rows_on_pentagon(self):
        # Far points of the pentagon, where det g spans hundreds of decades.
        X = np.random.default_rng(11).normal(0.0, 3.0, size=(1000, 2))
        singles = [density(PENTAGON, x) for x in X]
        np.testing.assert_allclose(density_many(PENTAGON, X), singles, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("E", [IRREGULAR, kostlan(2, 2), PENTAGON, kostlan(3, 1), kostlan(3, 2)],
                             ids=["irregular", "kostlan22", "pentagon", "kostlan31", "kostlan32"])
    def test_density_is_the_metric_determinant(self, E):
        # The Cauchy-Binet sum against det of the formed metric where g is
        # well conditioned; kostlan(2, 2) and (3, 2) have flat simplices.
        X = np.random.default_rng(12).uniform(-1.0, 1.0, size=(50, E.dim))
        want = 2.0 / ball_sphere_constants(E.dim)[1] * np.sqrt(np.linalg.det(_reference_moments(E, X)[3]))
        np.testing.assert_allclose(density_many(E, X), want, rtol=1e-12, atol=0.0)

    def test_support_over_the_tensor_limit_raises(self):
        # kostlan(3, 3) needs 64^4 simplex volumes, 16 times the limit; it is
        # refused before anything that size is allocated.
        start = time.perf_counter()
        with pytest.raises(InputError, match="limit"):
            density(kostlan(3, 3), [0.0, 0.0, 0.0])
        assert time.perf_counter() - start < 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            evaluate(TWO_TERM, [0.0, 0.0])


class TestKernelAgainstReference:
    """The terms-major kernel against the layout-free reference, and its
    batch rows against one-row calls.  Neither the kernel nor BLAS is
    bit-invariant across batch sizes, so these are tolerances."""

    #: (k, m) -> the kostlan sum with k terms in m variables.
    CASES = {"k2m1": (1, 1), "k4m1": (1, 3), "k8m1": (1, 7), "k9m2": (2, 2), "k16m2": (2, 3),
             "k25m2": (2, 4), "k8m3": (3, 1), "k27m3": (3, 2)}

    @pytest.mark.parametrize("name", CASES)
    def test_moments_density_and_rows(self, name):
        E = kostlan(*self.CASES[name])
        X = np.random.default_rng(13).uniform(-1.0, 1.0, size=(300, E.dim))
        got, want = _batch_moments(E, X), _reference_moments(E, X)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-13)
        densities = density_many(E, X)
        formed = 2.0 / ball_sphere_constants(E.dim)[1] * np.sqrt(np.linalg.det(want[3]))
        np.testing.assert_allclose(densities, formed, rtol=1e-12, atol=0.0)
        for i, x in enumerate(X):
            for g, one in zip(got, _batch_moments(E, x[None])):
                np.testing.assert_allclose(g[i], one[0], rtol=1e-13, atol=1e-13)
        singles = [density_many(E, x[None])[0] for x in X]
        np.testing.assert_allclose(densities, singles, rtol=1e-13, atol=0.0)


def _subset_sum(E, W):
    """sum over (m+1)-subsets S of det[1 a]_S^2 prod_S W at each column of
    the terms-major softmax W (k, N), one np.linalg.det per subset: the
    reference for the Cauchy-Binet contraction, total^(m+1) det g."""
    m = E.dim
    terms = []
    for S in itertools.combinations(range(E.n_terms), m + 1):
        D = np.linalg.det(np.hstack([np.ones((m + 1, 1)), E.support.points[list(S)]]))
        terms.append(D * D * np.prod(W[list(S)], axis=0))
    return np.sum(terms, axis=0)


def _seeded_support(m, k, seed):
    rng = np.random.default_rng(seed)
    return ExpSum(rng.normal(0.0, 1.0, size=(k, m)), rng.uniform(0.3, 3.0, size=k))


class TestContractionAgainstSubsets:
    """The sorted-tuple Cauchy-Binet block and its contraction against an
    independent sum over every (m+1)-subset."""

    CASES = {
        "k2m1": lambda: kostlan(1, 1), "k8m1": lambda: kostlan(1, 7),
        "k4m2": lambda: kostlan(2, 1), "k9m2": lambda: kostlan(2, 2),
        "k16m2": lambda: kostlan(2, 3), "k25m2": lambda: kostlan(2, 4),
        "k4m3": lambda: ExpSum([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [1.0, 2.0, 0.5, 1.5]),
        "k8m3": lambda: kostlan(3, 1), "k27m3": lambda: kostlan(3, 2),
        "seeded_k6m1": lambda: _seeded_support(1, 6, 41), "seeded_k7m2": lambda: _seeded_support(2, 7, 42),
        "seeded_k7m3": lambda: _seeded_support(3, 7, 43),
        # m = 4 takes the products over sorted triples, the recursion's third level
        "seeded_k8m4": lambda: _seeded_support(4, 8, 44),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_log_det_equals_the_subset_sum(self, name):
        E = self.CASES[name]()
        X = np.random.default_rng(14).uniform(-3.0, 3.0, size=(40, E.dim))
        _, W, total = _softmax(E, X.T)
        want = np.log(_subset_sum(E, W)) - (E.dim + 1) * np.log(total)
        np.testing.assert_allclose(np.exp(_log_det(E, W, total) - want), 1.0, rtol=1e-13, atol=0.0)

    def test_block_shape_and_limit(self):
        for E in (kostlan(1, 7), kostlan(2, 9), kostlan(3, 2)):
            k, m = E.n_terms, E.dim
            form = E.support._simplex_form
            assert form.shape == (math.comb(k, 2), math.comb(k, m - 1))
            assert form.size <= SIMPLEX_FORM_LIMIT and not form.flags.writeable
        # 2016^2 entries for kostlan(3, 3), four times the limit
        with pytest.raises(InputError, match="limit"):
            kostlan(3, 3).support._simplex_form

    def test_build_memory(self):
        # C(27, 4) = 17 550 subset determinants and a 351^2 block, not 27^4
        # determinants and a 27^4 tensor.
        E = kostlan(3, 2)
        tracemalloc.start()
        try:
            E.support._simplex_form
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestScalarCallsAreOneRowKernels:
    """Each scalar call equals the batched kernel on one row, bit for bit."""

    CASES = {"kostlan22": kostlan(2, 2), "kostlan31": kostlan(3, 1), "pentagon": PENTAGON}

    @pytest.mark.parametrize("name", CASES)
    def test_density_and_evaluate(self, name):
        E = self.CASES[name]
        X = np.random.default_rng(5).normal(0.0, 3.0, size=(200, E.dim))
        for x in X:
            assert density(E, x) == density_many(E, x[None])[0]
            bundle = evaluate(E, x)
            phi, lam, mu, G = _batch_moments(E, x[None])
            assert bundle.phi == potential(E, x) == phi[0]
            np.testing.assert_array_equal(bundle.weights, lam[0])
            np.testing.assert_array_equal(bundle.mu, mu[0])
            np.testing.assert_array_equal(bundle.g.entries, 0.5 * (G[0] + G[0].T))
            assert bundle.density == density(E, x)

    @pytest.mark.parametrize("name", CASES)
    def test_invert_moment(self, name):
        E = self.CASES[name]
        weights = np.random.default_rng(6).dirichlet(np.ones(E.n_terms), size=20)
        for p in weights @ E.support.points:
            X, ok = _invert_moment_many(E, p[None])
            assert ok[0]
            np.testing.assert_array_equal(invert_moment(E, p), X[0])

    def test_density_floor_applies_to_both(self):
        # det g = lambda_0 lambda_1, about e^-700 = 1e-304 at x = 350: below
        # DET_FLOOR, which guards the dual form only; the density is exact.
        G = _batch_moments(TWO_TERM, np.array([[350.0]]))[3]
        assert 0.0 < np.linalg.det(G)[0] < DET_FLOOR
        want = 1.0 / (2.0 * math.pi * math.cosh(350.0))
        for got in (density(TWO_TERM, [350.0]), density_many(TWO_TERM, [[350.0]])[0],
                    evaluate(TWO_TERM, [350.0]).density):
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        with pytest.raises(SingularFormError):
            dual_form(evaluate(TWO_TERM, [350.0]).g)


class TestDerivatives:
    def test_gradient_and_hessian_residuals(self):
        rng = np.random.default_rng(3)
        for E in (TWO_TERM, IRREGULAR, SQUARE):
            for _ in range(5):
                x = rng.uniform(-2, 2, size=E.dim)
                grad_residual, hess_residual = derivative_residuals(E, x)
                assert grad_residual < 1e-6
                assert hess_residual < 1e-5


class TestMomentInversion:
    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for E in (TWO_TERM, IRREGULAR, SQUARE):
            pts = np.asarray(E.support.points)
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            for _ in range(10):
                p = lo + (hi - lo) * rng.uniform(0.05, 0.95, size=E.dim)
                if E is IRREGULAR:
                    p = np.clip(p, 0.05, 1.65)
                x = invert_moment(E, p)
                np.testing.assert_allclose(evaluate(E, x).mu, p, atol=1e-9)

    def test_two_term_closed_form(self):
        # mu = expit(2x) so x = artanh(2p - 1)
        x = invert_moment(TWO_TERM, [0.99])
        assert x[0] == pytest.approx(math.atanh(0.98), rel=1e-12)

    def test_support_far_from_the_origin(self):
        # Raw moments carry about |a| eps of rounding, which missed the
        # 1e-10 residual on 23 of these 200 targets.
        E = ExpSum([[0.0], [1.0], [3.0]], [1.0, 2.0, 1.0])
        moved = ExpSum(E.support.points + 1e6, E.coeffs)
        targets = np.linspace(0.0, 3.0, 202)[1:-1, None]
        X, ok = _invert_moment_many(moved, targets + 1e6)
        assert ok.all()
        want, ok = _invert_moment_many(E, targets)
        assert ok.all()
        np.testing.assert_allclose(X, want, rtol=0.0, atol=1e-8)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            invert_moment(TWO_TERM, [1.0])
        with pytest.raises(DomainError):
            invert_moment(TWO_TERM, [1.5])

    def test_skewed_weights_invert_at_the_barycenter(self):
        for E in (EXTREME, SKEWED_BOX):
            p = E.support.points.mean(axis=0)
            x = invert_moment(E, p)
            np.testing.assert_allclose(evaluate(E, x).mu, p, atol=1e-9)

    def test_failures_are_typed_and_carry_the_last_iterate(self):
        targets = np.linspace(-49.0, 79.0, 41)
        for p in targets:
            try:
                x = invert_moment(EXTREME, [p])
            except ConvergenceError as exc:
                assert exc.value.shape == (1,)
                assert exc.residual > 1e-10
            else:
                assert evaluate(EXTREME, x).mu[0] == pytest.approx(p, abs=1e-9)
        X, ok = _invert_moment_many(EXTREME, targets[:, None])
        assert ok.any()
        for x, p in zip(X[ok], targets[ok]):
            assert evaluate(EXTREME, x).mu[0] == pytest.approx(p, abs=1e-9)

    def test_lazy_packing_matches_one_row_calls(self):
        # One batch of rows that are done at the start (the start's own
        # moment), rows that backtrack and rows that fail (21 of the 41 on
        # the line): rows done early are carried through later iterations
        # before they are packed away, and must neither move nor warn.
        c, centred = EXTREME._centred
        start = centred._newton_start[1] + c
        targets = np.vstack([np.linspace(-49.0, 79.0, 41)[:, None], start[None]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X, ok = _invert_moment_many(EXTREME, targets)
            singles = [_invert_moment_many(EXTREME, p[None]) for p in targets]
        assert ok[-1] and 0 < (~ok).sum() < len(targets) - 1
        np.testing.assert_array_equal(ok, [one_ok[0] for _, one_ok in singles])
        for x, (one, one_ok) in zip(X, singles):
            if one_ok[0]:
                np.testing.assert_allclose(x, one[0], rtol=0.0, atol=1e-12)

    def test_extreme_weights_fail_on_at_most_21_targets(self):
        _, ok = _invert_moment_many(EXTREME, np.linspace(-49.0, 79.0, 41)[:, None])
        assert (~ok).sum() <= 21

    @pytest.mark.parametrize("coeffs", [None, [1.0, 2.0, 0.5, 3.0, 0.7]])
    def test_batched_matches_scalar_on_pentagon_grids(self, coeffs):
        # Rows retire at different iterations in the packed Newton loop.
        E = ExpSum(PENTAGON.support.points, coeffs)
        axes = [np.linspace(-1.0, 3.0, 24), np.linspace(0.0, 3.0, 24)]
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        nodes = nodes[[interior_contains(E.support, p, 1e-6) for p in nodes]]
        X, ok = _invert_moment_many(E, nodes)
        assert len(nodes) > 200 and ok.all()
        for x, p in zip(X, nodes):
            scalar = invert_moment(E, p)
            np.testing.assert_allclose(x, scalar, rtol=1e-12, atol=1e-12)
        # The rule is stated on the centred copy, which has the same preimages.
        c, centred = E._centred
        residual = np.linalg.norm(_batch_moments(centred, X)[2] - (nodes - c), axis=1)
        assert (residual <= INVERT_TOL * (1.0 + diameter(centred.support))).all()

    def test_skewed_weights_total(self):
        # the x route centres its frame on the inverted barycenter; an
        # explicit box around both density bumps is an independent check
        auto = esol_total(EXTREME).value
        boxed = esol_region(EXTREME, [(-6.0, 4.0)], Quadrature()).value
        assert auto == pytest.approx(boxed, abs=1e-6)
        assert auto == pytest.approx(1.0, abs=1e-3)
        assert esol_total(SKEWED_BOX).value == pytest.approx(math.pi / 8.0, abs=1e-6)


class TestLegendreDensity:
    def test_two_term_midpoint(self):
        assert legendre_density(TWO_TERM, [0.5]) == pytest.approx(math.sqrt(2.0))

    def test_matches_metric_determinant(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = rng.uniform(0.05, 0.95, size=2)
            x = invert_moment(SQUARE, p)
            want = 1.0 / math.sqrt(np.linalg.det(2.0 * evaluate(SQUARE, x).g.entries))
            assert legendre_density(SQUARE, p) == pytest.approx(want, rel=1e-10)

    def test_near_boundary_rejected(self):
        with pytest.raises(DomainError):
            legendre_density(TWO_TERM, [1.0 - 1e-9])

    def test_closed_form_near_the_boundary(self):
        # an absolute moment residual of 1e-10 gave 4e-6 relative here
        p = 1.0 - 2e-6
        want = 1.0 / math.sqrt(2.0 * p * (1.0 - p))
        assert legendre_density(TWO_TERM, [p]) == pytest.approx(want, rel=1e-10)


class TestAtInfinity:
    def test_moment_limit_hits_face_barycenter(self):
        assert asymptotic_moment(TWO_TERM, [1.0])[0] == pytest.approx(1.0)
        assert asymptotic_moment(IRREGULAR, [-1.0])[0] == pytest.approx(0.0)
        # diagonal direction exposes the vertex (1, 1)
        np.testing.assert_allclose(asymptotic_moment(SQUARE, [1.0, 1.0]), [1.0, 1.0])
        # vertical direction exposes the top edge; equal coefficients center it
        np.testing.assert_allclose(asymptotic_moment(SQUARE, [0.0, 1.0]), [0.5, 1.0])

    def test_moment_limit_agrees_with_far_evaluation(self):
        u = np.array([0.0, 1.0])
        lim = asymptotic_moment(SQUARE, u)
        far = evaluate(SQUARE, 40.0 * u).mu
        np.testing.assert_allclose(far, lim, atol=1e-12)

    def test_face_metric_limit_vertex_is_zero(self):
        np.testing.assert_allclose(
            face_metric_limit(TWO_TERM, [1.0], [0.0]).entries, [[0.0]]
        )

    def test_face_metric_limit_edge(self):
        # top edge of the unit square behaves like a two-term sum in x1
        got = face_metric_limit(SQUARE, [0.0, 1.0], [0.0, 0.0])
        np.testing.assert_allclose(got.entries, [[0.25, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_face_metric_limit_matches_far_evaluation(self):
        u = np.array([0.0, 1.0])
        y = np.array([0.3, 0.0])
        lim = face_metric_limit(SQUARE, u, y).entries
        far = evaluate(SQUARE, y + 30.0 * u).g.entries
        np.testing.assert_allclose(far, lim, atol=1e-10)


class TestVeronese:
    """The Veronese map x -> sqrt(lambda(x)) into the unit sphere of R^A."""

    def test_unit_sphere_image(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            v = np.sqrt(evaluate(SQUARE, rng.uniform(-3, 3, size=2)).weights)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_pullback_matches_metric(self):
        # |D nu(u)|^2 = g(u): central differences of step 1e-5 along 4 unit
        # directions drawn from default_rng(0).
        h = 1e-5
        for E, x in ((IRREGULAR, np.array([0.4])), (SQUARE, np.array([0.2, -0.3]))):
            rng, g = np.random.default_rng(0), evaluate(E, x).g
            for _ in range(4):
                u = rng.standard_normal(E.dim)
                u /= np.linalg.norm(u)
                nu = [np.sqrt(evaluate(E, x + s * h * u).weights) for s in (1.0, -1.0)]
                d = (nu[0] - nu[1]) / (2.0 * h)
                assert abs(float(d @ d) - g(u)) < 1e-6
