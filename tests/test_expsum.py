"""Tests for exponential-sum evaluation, moments, and coordinate changes."""

from __future__ import annotations

import functools
import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from sparse_kacrice import (
    Augmentation,
    ConvergenceError,
    DegenerateMetricError,
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
    esol_pspace,
    esol_region,
    evaluate,
    face_metric_limit,
    interior_contains,
    invert_moment,
    esol_total,
    kostlan,
    legendre_density,
    potential,
    region_scan,
)
from sparse_kacrice import expsum
from sparse_kacrice.expsum import (
    INVERT_MARGIN,
    INVERT_TOL,
    _det_g,
    _facet_log_map,
    _invert_moment_many,
    _legendre_density_many,
    _moments,
    _potential,
    _softmax,
)
from sparse_kacrice.geometry import (
    DET_FLOOR,
    SIMPLEX_FORM_LIMIT,
    SupportSet,
    _cauchy_binet_tables,
    _cholesky_solve,
    _grid,
    _interior_mask,
    diameter,
)
from sparse_kacrice.integrate import _cell_rule

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


def _centred_mu(E, X):
    """mu about the barycenter at each row of X, where the inversion's
    residual rule is stated."""
    return _moments(E, *_softmax(E, X.T)[1:])[1].T


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


def batch_moments(E, X):
    """(phi (N,), lam (N, k), mu (N, m), G (N, m, m)) at each row of X from
    the terms-major kernel (``_softmax``, ``_moments`` and ``_potential``),
    as transposed views, phi and mu in user coordinates: the kernel's rows
    that the layout-free reference and the scalar API are checked against."""
    top, W, total = _softmax(E, X.T)
    lam, mu, G = _moments(E, W, total)
    mu += E._c[:, None]
    return _potential(E, X, top, total), lam.T, mu.T, G.transpose(2, 0, 1)


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

    def test_repr(self):
        assert repr(ExpSum([[0, 1], [2, 3]], [1, 0.5])) == "ExpSum([[0.0, 1.0], [2.0, 3.0]], [1.0, 0.5])"

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

    def test_no_cached_array_is_writeable(self):
        # Cached state is shared by every later call on the sum, so none of
        # it may be written in place; the barycenter once was.
        E = ExpSum([[0, 0], [1, 0], [0, 1], [1, 1]], [1.0, 0.7, 1.3, 0.9])
        region_scan(E, Augmentation([0.3, 0.6]), resolution=8)
        esol_total(E, Quadrature(abs_tol=1e-4, rel_tol=1e-4))
        assert E._newton_start is not None and E.support.vertices is not None
        region_scan(E, Augmentation([2.0, -1.0]), resolution=8, space="x")
        names = ["_c", "_points", "_newton_start", "_scan_grids", "_cone_block"]
        assert all(vars(E).get(name) is not None for name in names)
        assert set(E._scan_grids) == {"p", "x"}
        assert {"_hull", "_simplex_form", "_diameter"} <= set(vars(E.support))
        for array in (E._c, E._points):
            with pytest.raises(ValueError):
                array[0] = 0.0
        arrays = _reachable_arrays([E, _cauchy_binet_tables(E.n_terms, E.dim), _cell_rule(E.dim)])
        assert len(arrays) >= 20
        # The store is reached: both entries' axes, scan points and sum's part.
        stored = [a for grid in E._scan_grids.values() for a in (*grid[3], *grid[4:]) if a is not None]
        assert len(stored) == 13 and all(any(a is b for b in arrays) for a in stored)
        assert [a.shape for a in arrays if a.flags.writeable] == []


class TestCentredCopy:
    """The centred points A - c, the coordinates of every kernel, are stored
    once per sum, at construction: no solve builds a second sum or support."""

    def test_fresh_sum_solve_builds_no_support(self, monkeypatch):
        E = ExpSum([[0, 0], [1, 0], [0, 1], [1, 1]], [1.0, 0.7, 1.3, 0.9])
        built = []
        for cls in (SupportSet, ExpSum):
            def counted(self, *args, init=cls.__init__):
                built.append(type(self).__name__)
                init(self, *args)

            monkeypatch.setattr(cls, "__init__", counted)
        esol_total(E, Quadrature(abs_tol=1e-4, rel_tol=1e-4))
        esol_pspace(E, Quadrature(abs_tol=1e-4, rel_tol=1e-4))
        invert_moment(E, [0.4, 0.7])
        region_scan(E, Augmentation([0.3, 0.6]), resolution=8)
        assert built == [] and "_facet_start" in vars(E)

    @pytest.mark.parametrize("E", [IRREGULAR, EXTREME, SKEWED_BOX, kostlan(3, 1)],
                             ids=["irregular", "extreme", "skewed box", "cube"])
    def test_copy_equals_a_validated_sum_on_the_translated_points(self, E):
        E = ExpSum(E.support.points, E.coeffs)
        A = E.support.points
        c = A.mean(axis=0)
        validated = ExpSum(A - c, E.coeffs)
        assert E._c.tobytes() == c.tobytes() and E._points.tobytes() == validated.support.points.tobytes()
        assert not E._c.flags.writeable and not E._points.flags.writeable
        # The balancing point is the least-squares fit on the centred points.
        x0, mu0, lam0 = E._newton_start
        design = np.hstack([A - c, -np.ones((E.n_terms, 1))])
        assert x0.tobytes() == np.linalg.lstsq(design, -E.log_coeffs, rcond=None)[0][:-1].tobytes()
        _, lam, mu, G = _reference_moments(E, x0[None])
        scale = 1.0 + diameter(E.support)
        np.testing.assert_allclose(mu0 + c, mu[0], rtol=0.0, atol=1e-13 * scale)
        np.testing.assert_allclose(lam0, lam[0], rtol=0.0, atol=1e-13)
        G0 = expsum._metric(E, lam0[:, None], mu0[:, None])[..., 0]
        np.testing.assert_allclose(G0, G[0], rtol=0.0, atol=1e-13 * scale**2)


def _reachable_arrays(obj, seen=None) -> list:
    """Every numpy array reachable from obj through lists, tuples, dicts,
    partials and the attributes of sums and supports, cached properties
    included."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, functools.partial):
        obj = obj.args
    elif isinstance(obj, (ExpSum, SupportSet)):
        obj = list(vars(obj).values())
    elif isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _reachable_arrays(item, seen)]
    return []


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
        got, want = batch_moments(E, X), _reference_moments(E, X)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-13)
        densities = density_many(E, X)
        formed = 2.0 / ball_sphere_constants(E.dim)[1] * np.sqrt(np.linalg.det(want[3]))
        np.testing.assert_allclose(densities, formed, rtol=1e-12, atol=0.0)
        for i, x in enumerate(X):
            for g, one in zip(got, batch_moments(E, x[None])):
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
        # log of the ratio det g = (subset sum) / total^(m+1), relative 1e-13
        E = self.CASES[name]()
        X = np.random.default_rng(14).uniform(-3.0, 3.0, size=(40, E.dim))
        _, W, total = _softmax(E, X.T)
        want = np.log(_subset_sum(E, W)) - (E.dim + 1) * np.log(total)
        np.testing.assert_allclose(np.exp(np.log(_det_g(E, W, total)) - want), 1.0, rtol=1e-13, atol=0.0)

    def test_block_shape_and_limit(self):
        for E in (kostlan(1, 7), kostlan(2, 9), kostlan(3, 2)):
            k, m = E.n_terms, E.dim
            form = E.support._simplex_form
            assert form.shape == (math.comb(k - m + 1, 2), math.comb(k - 2, m - 1))
            assert form.size <= SIMPLEX_FORM_LIMIT and not form.flags.writeable
        # 1891^2 entries for kostlan(3, 3) and 10153 * 142 for kostlan(2, 11)
        for E in (kostlan(3, 3), kostlan(2, 11)):
            with pytest.raises(InputError, match="limit"):
                E.support._simplex_form
        # the limit counts the block: 47 points in R^3 fit (990^2 entries),
        # 48 do not (1035^2), and in R^2 129 fit and 130 do not
        rng = np.random.default_rng(45)
        for m, k in ((3, 48), (2, 130)):
            with pytest.raises(InputError, match="limit"):
                SupportSet(rng.normal(size=(k, m)))._simplex_form
        assert SupportSet(rng.normal(size=(47, 3)))._simplex_form.shape == (990, 990)

    def test_build_memory(self):
        # C(27, 4) = 17 550 subset determinants and a 300^2 block, not 27^4
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
            phi, lam, mu, G = batch_moments(E, x[None])
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
            X, ok = _invert_moment_many(E, p[None] - E._c)
            assert ok[0]
            np.testing.assert_array_equal(invert_moment(E, p), X[0])

    def test_density_floor_applies_to_both(self):
        # det g = lambda_0 lambda_1, about e^-700 = 1e-304 at x = 350: below
        # DET_FLOOR, which guards the dual form only; the density is exact.
        G = batch_moments(TWO_TERM, np.array([[350.0]]))[3]
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
        X, ok = _invert_moment_many(moved, targets + 1e6 - moved._c)
        assert ok.all()
        want, ok = _invert_moment_many(E, targets - E._c)
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
        X, ok = _invert_moment_many(EXTREME, targets[:, None] - EXTREME._c)
        assert ok.any()
        for x, p in zip(X[ok], targets[ok]):
            assert evaluate(EXTREME, x).mu[0] == pytest.approx(p, abs=1e-9)

    def test_lazy_packing_matches_one_row_calls(self):
        # One batch of rows that are done at the start (the start's own
        # moment), rows that backtrack and rows that fail (21 of the 41 on
        # the line): rows done early are carried through later iterations
        # before they are packed away, and must neither move nor warn.
        start = EXTREME._newton_start[1] + EXTREME._c
        targets = np.vstack([np.linspace(-49.0, 79.0, 41)[:, None], start[None]]) - EXTREME._c
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
        _, ok = _invert_moment_many(EXTREME, np.linspace(-49.0, 79.0, 41)[:, None] - EXTREME._c)
        assert (~ok).sum() <= 21

    @pytest.mark.parametrize("coeffs", [None, [1.0, 2.0, 0.5, 3.0, 0.7]])
    def test_batched_matches_scalar_on_pentagon_grids(self, coeffs):
        # Rows retire at different iterations in the packed Newton loop.
        E = ExpSum(PENTAGON.support.points, coeffs)
        axes = [np.linspace(-1.0, 3.0, 24), np.linspace(0.0, 3.0, 24)]
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        nodes = nodes[[interior_contains(E.support, p, 1e-6) for p in nodes]]
        X, ok = _invert_moment_many(E, nodes - E._c)
        assert len(nodes) > 200 and ok.all()
        for x, p in zip(X, nodes):
            scalar = invert_moment(E, p)
            np.testing.assert_allclose(x, scalar, rtol=1e-12, atol=1e-12)
        # The rule is stated about the barycenter, where the kernels work.
        residual = np.linalg.norm(_centred_mu(E, X) - (nodes - E._c), axis=1)
        assert (residual <= INVERT_TOL * (1.0 + diameter(E.support))).all()

    def test_skewed_weights_total(self):
        # the x route centres its frame on the inverted barycenter; an
        # explicit box around both density bumps is an independent check
        auto = esol_total(EXTREME).value
        boxed = esol_region(EXTREME, [(-6.0, 4.0)], Quadrature()).value
        assert auto == pytest.approx(boxed, abs=1e-6)
        assert auto == pytest.approx(1.0, abs=1e-3)
        assert esol_total(SKEWED_BOX).value == pytest.approx(math.pi / 8.0, abs=1e-6)


def _canonical_sums() -> dict:
    """The closed-form sums whose moment map the facet-log predictor
    inverts, each with a seeded reweighting alpha_a e^<a, c> and a seeded
    affine image."""
    base = {"two-term": TWO_TERM, "two-term weighted": ExpSum([[-0.4], [2.1]], [0.3, 2.0]),
            **{f"kostlan(1,{d})": kostlan(1, d) for d in range(2, 7)},
            "kostlan(2,1)": kostlan(2, 1), "kostlan(2,2)": kostlan(2, 2),
            "simplex(2,1)": ExpSum([[0, 0], [1, 0], [0, 1]]),
            # weights sqrt(multinomial): K = (1 + e^(2 x_1) + e^(2 x_2))^2
            "simplex(2,2)": ExpSum([[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]],
                                   np.sqrt([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])),
            "kostlan(3,1)": kostlan(3, 1)}
    rng = np.random.default_rng(31)
    sums = {}
    for name, E in base.items():
        A, m = E.support.points, E.dim
        sums[name] = E
        sums[f"{name} reweighted"] = ExpSum(A, E.coeffs * np.exp(A @ rng.normal(size=m)))
        # A turn, axis scales in [0.5, 2] and a shear: thin images would
        # leave their bounding-box grid almost empty.
        L = np.linalg.qr(rng.normal(size=(m, m)))[0] * rng.uniform(0.5, 2.0, m)
        L = L @ (np.eye(m) + np.triu(rng.uniform(-1.0, 1.0, (m, m)), 1))
        sums[f"{name} affine"] = ExpSum(A @ L.T + rng.uniform(-1, 1, m), E.coeffs)
    return sums


def _generic_sums() -> dict:
    """Supports with no closed form: S2 and the next four draws of
    default_rng(2026), three lattice supports in {0..5}^2, the pentagon,
    two 6-point draws in R^3 and the extreme-weights sum."""
    sums = {}
    rng = np.random.default_rng(2026)
    for j in range(5):
        sums[f"R2 draw {j}"] = ExpSum(rng.normal(size=(8, 2)), rng.uniform(0.2, 5, size=8))
    sums["lattice 0"] = ExpSum([[0, 4], [1, 3], [2, 0], [3, 1], [4, 3], [5, 5]])
    rng = np.random.default_rng(2028)
    for j in (1, 2):
        cells = rng.choice(36, size=6, replace=False)
        points = np.stack([cells // 6, cells % 6], axis=1)
        sums[f"lattice {j}"] = ExpSum(points, rng.uniform(0.2, 5, size=6))
    sums["pentagon"] = PENTAGON
    rng = np.random.default_rng(2027)
    for j in range(2):
        sums[f"R3 draw {j}"] = ExpSum(rng.normal(size=(6, 3)), rng.uniform(0.2, 5, size=6))
    sums["extreme weights"] = EXTREME
    return sums


CANONICAL = _canonical_sums()
GENERIC = _generic_sums()


def _interior_grid(E) -> np.ndarray:
    """A grid over the support's bounding box, 64, 24 or 10 nodes an axis
    in one, two or three variables, kept at least INVERT_MARGIN (1 + diam P)
    inside every facet, as a moment-coordinate scan keeps it."""
    points = E.support.points
    box = list(zip(points.min(axis=0), points.max(axis=0)))
    nodes = _grid(box, {1: 64, 2: 24, 3: 10}[E.dim])[2]
    return nodes[_interior_mask(E.support, nodes, INVERT_MARGIN * (1.0 + diameter(E.support)))]


def _with_start(E, start: str, monkeypatch) -> ExpSum:
    """A fresh copy of E with its facet-log start as built ("built"), none,
    today's path without a predictor ("none"), or one built without the sum
    test of ``ExpSum._facet_start`` ("lifted")."""
    fresh = ExpSum(E.support.points, E.coeffs)
    if start == "none":
        vars(fresh)["_facet_start"] = None
    elif start == "lifted":
        with monkeypatch.context() as patch:
            patch.setattr(expsum, "FACET_START_SHARE", math.inf)
            assert fresh._facet_start is not None
    return fresh


class TestFacetStart:
    """The facet-log predictor as the Newton start of moment inversion."""

    @pytest.mark.parametrize("name", sorted(CANONICAL))
    def test_exact_on_closed_form_sums(self, name, monkeypatch):
        # Every row is done at its predicted start, before any Newton solve,
        # and leaves the inversion there: no metric is formed for it.
        E = CANONICAL[name]
        assert E._facet_start is not None  # the per-sum start forms its own metric once
        solves, metric_columns = [], []
        metric = expsum._metric

        def counted(G, B):
            solves.append(B.shape[1])
            return _cholesky_solve(G, B)

        def counted_metric(E, lam, mu):
            metric_columns.append(mu.shape[1])
            return metric(E, lam, mu)

        monkeypatch.setattr(expsum, "_cholesky_solve", counted)
        monkeypatch.setattr(expsum, "_metric", counted_metric)
        nodes = _interior_grid(E) - E._c
        X, ok = _invert_moment_many(E, nodes)
        assert len(nodes) >= 50 and ok.all() and solves == [] and metric_columns == []
        residual = np.linalg.norm(_centred_mu(E, X) - nodes, axis=1)
        assert residual.max() <= INVERT_TOL * (1.0 + diameter(E.support))

    @pytest.mark.parametrize("k, m", [(3, 1), (9, 2), (16, 2), (8, 3)])
    def test_metric_column_is_the_same_in_any_batch(self, k, m):
        # A batch whose rows mostly settle forms the metric of the others
        # alone, from the weights of the whole batch: that must not move a bit.
        rng = np.random.default_rng(k + m)
        E = ExpSum(rng.normal(size=(k, m)), rng.uniform(0.2, 5.0, size=k))
        lam, mu = expsum._mu(E, *_softmax(E, rng.normal(0.0, 2.0, size=(m, 300)))[1:])
        G = expsum._metric(E, lam, mu)
        rows = np.sort(rng.choice(300, size=40, replace=False))
        for some in (rows, rows[:1]):
            got = expsum._metric(E, lam[:, some], mu[:, some])
            assert got.tobytes() == np.ascontiguousarray(G[..., some]).tobytes()

    @pytest.mark.parametrize("name", sorted(GENERIC))
    def test_start_loses_no_row_on_generic_supports(self, name, monkeypatch):
        # No generic sum passes the predictor's sum test, so as built it
        # inverts as without one; with the test lifted, the row rule alone
        # must keep every row that converges from the balancing point.
        E = GENERIC[name]
        targets = np.random.default_rng(8).dirichlet(np.ones(E.n_terms), size=3000) @ E.support.points
        targets -= E._c
        today = _invert_moment_many(_with_start(E, "none", monkeypatch), targets)
        assert today[1].sum() >= 2600
        built = _with_start(E, "built", monkeypatch)
        assert built._facet_start is None
        X, ok = _invert_moment_many(built, targets)
        np.testing.assert_array_equal(X, today[0])
        np.testing.assert_array_equal(ok, today[1])
        _, ok = _invert_moment_many(_with_start(E, "lifted", monkeypatch), targets)
        assert not (today[1] & ~ok).any()

    def test_target_on_or_past_a_facet_starts_at_the_balancing_point(self, monkeypatch):
        # Targets on an edge, past one by rounding, at a vertex, and one inside.
        E = CANONICAL["kostlan(2,1) reweighted"]
        targets = np.array([[0.5, 0.0], [0.5, -1e-12], [1.0, 1.0], [0.3, 1.0 + 1e-15], [0.25, 0.5]]) - E._c
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            guess, d = _facet_log_map(E, targets.T)
            X, ok = _invert_moment_many(E, targets)
            want, want_ok = _invert_moment_many(_with_start(E, "none", monkeypatch), targets)
        np.testing.assert_array_equal(guess[:, :4], np.repeat(E._newton_start[0][:, None], 4, axis=1))
        assert (d.min(axis=0)[:4] <= 0.0).all() and d.min(axis=0)[4] > 0.0
        np.testing.assert_array_equal(X[:4], want[:4])
        np.testing.assert_array_equal(ok, want_ok | [False] * 4 + [True])

    @pytest.mark.parametrize("name", ["kostlan(2,2) affine", "simplex(2,1) reweighted", "kostlan(1,4)",
                                      "two-term weighted affine", "kostlan(3,1) affine"])
    def test_one_row_equals_its_batch_row(self, name):
        # The predictor is summed without BLAS, so a row done at its
        # predicted start is the same in any batch, bit for bit.
        E = CANONICAL[name]
        targets = np.random.default_rng(13).dirichlet(np.ones(E.n_terms), size=40) @ E.support.points
        X, ok = _invert_moment_many(E, targets - E._c)
        assert ok.all()
        for x, p in zip(X, targets):
            np.testing.assert_array_equal(invert_moment(E, p), x)

    def test_rows_refined_from_the_predictor_match_one_row_calls(self, monkeypatch):
        # Weights 1 % off kostlan(2, 2): the sum keeps its predictor, and
        # rows that take it go on to Newton steps.  The kernel's BLAS
        # products round by batch size, so a Newton row matches its one-row
        # call to rounding, as rows started at the balancing point do.
        points, coeffs = kostlan(2, 2).support.points, kostlan(2, 2).coeffs
        E = ExpSum(points, coeffs * np.exp(np.random.default_rng(12).normal(0.0, 0.01, 9)))
        assert E._facet_start is not None
        targets = np.random.default_rng(13).dirichlet(np.ones(9), size=40) @ points
        solves = []

        def counted(G, B):
            solves.append(B.shape[1])
            return _cholesky_solve(G, B)

        monkeypatch.setattr(expsum, "_cholesky_solve", counted)
        X, ok = _invert_moment_many(E, targets - E._c)
        rows = sum(solves)
        assert ok.all() and _invert_moment_many(_with_start(E, "none", monkeypatch), targets - E._c)[1].all()
        assert 0 < rows < sum(solves) - rows  # fewer Newton rows than from the balancing point
        for x, p in zip(X, targets):
            np.testing.assert_allclose(invert_moment(E, p), x, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("name", ["kostlan(2,2) 1% off", "R2 draw 0", "R3 draw 0"])
    def test_metric_is_formed_only_for_newton_solves(self, name, monkeypatch):
        # Each Newton iteration forms the metric of the rows it solves on,
        # once; no start, trial or backtrack forms one.
        if name in GENERIC:
            E = ExpSum(GENERIC[name].support.points, GENERIC[name].coeffs)
        else:
            points, coeffs = kostlan(2, 2).support.points, kostlan(2, 2).coeffs
            E = ExpSum(points, coeffs * np.exp(np.random.default_rng(12).normal(0.0, 0.01, 9)))
        E._facet_start  # the per-sum start forms its own one-column metric
        solves, metric_columns = [], []
        metric = expsum._metric

        def counted(G, B):
            solves.append(B.shape[1])
            return _cholesky_solve(G, B)

        def counted_metric(E, lam, mu):
            metric_columns.append(mu.shape[1])
            return metric(E, lam, mu)

        monkeypatch.setattr(expsum, "_cholesky_solve", counted)
        monkeypatch.setattr(expsum, "_metric", counted_metric)
        targets = np.random.default_rng(8).dirichlet(np.ones(E.n_terms), size=2000) @ E.support.points
        _, ok = _invert_moment_many(E, targets - E._c)
        assert ok.sum() >= 1900 and sum(solves) > 2000
        assert sum(metric_columns) == sum(solves)

    def test_one_hull_per_support(self, monkeypatch):
        # The facet-log start reads the one hull of the sum's own support.
        import scipy.spatial

        hulls = []
        hull = scipy.spatial.ConvexHull

        def counted(points):
            hulls.append(len(points))
            return hull(points)

        monkeypatch.setattr(scipy.spatial, "ConvexHull", counted)
        E = ExpSum(kostlan(2, 2).support.points, CANONICAL["kostlan(2,2) reweighted"].coeffs)
        region_scan(E, Augmentation([0.7, 1.1]), resolution=16)
        esol_pspace(E, Quadrature(abs_tol=1e-4, rel_tol=1e-4))
        legendre_density(E, [0.5, 0.7])
        invert_moment(E, [1.2, 0.3])
        assert hulls == [9] and E._facet_start is not None


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

    def test_underflowing_det_g_raises_with_the_preimage(self, monkeypatch):
        # No target INVERT_MARGIN inside P has a preimage where det g
        # underflows (points closer than 1e-9 (1 + spread) are one point),
        # so the kernel's det g is made to vanish.
        x = invert_moment(SQUARE, [0.3, 0.6])
        monkeypatch.setattr(expsum, "_det_g", lambda E, W, total: np.zeros(W.shape[1]))
        with pytest.raises(ConvergenceError, match="det g underflows at the preimage") as info:
            legendre_density(SQUARE, [0.3, 0.6])
        assert info.value.value.tobytes() == x.tobytes()

    @pytest.mark.parametrize("name", ["kostlan(2,2) affine", "two-term weighted", "R2 draw 1", "pentagon",
                                      "R3 draw 0", "lattice 1"])
    def test_one_row_equals_the_batched_kernel(self, name):
        # legendre_density is invert_moment and det g on that one row: the
        # batched kernel's one-row value, bit for bit.
        E = {**CANONICAL, **GENERIC}[name]
        targets = np.random.default_rng(21).dirichlet(np.ones(E.n_terms), size=20) @ E.support.points
        for p in targets:
            want = _legendre_density_many(E, (p - E._c)[None])[0]
            assert math.isfinite(want)
            assert np.float64(legendre_density(E, p)).tobytes() == want.tobytes()

    def test_flat_support_raises_as_invert_moment_does(self):
        flat = ExpSum([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        for f in (invert_moment, legendre_density):
            with pytest.raises(DegenerateMetricError):
                f(flat, [1.0, 1.0])

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
