"""Tests for expected-zero-count integrals on both coordinate routes."""

from __future__ import annotations

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from sparse_kacrice import (
    ComplexExpSum,
    ConvergenceError,
    ExpSum,
    InputError,
    McConfig,
    Quadrature,
    bkk_total,
    esol_pspace,
    esol_region,
    esol_total,
    estimate_esol,
    kostlan,
    lower_bound_check,
    tensor,
)
from sparse_kacrice import expsum, integrate
from sparse_kacrice.expsum import _batch_moments
from sparse_kacrice.integrate import (
    _adaptive, _cell_rule, _gauss_legendre_rule, _genz_malik_rule, _seed_grid,
)

TWO_TERM = ExpSum([[0.0], [1.0]])
IRREGULAR = ExpSum([[0.0], [0.5], [1.7]], [1.0, 2.0, 1.0])


class TestQuadratureConfig:
    def test_defaults(self):
        q = Quadrature()
        assert [f.name for f in dataclasses.fields(q)] == ["abs_tol", "rel_tol"]
        assert (q.abs_tol, q.rel_tol) == (1e-7, 1e-7)

    def test_rejects_bad_tolerances(self):
        with pytest.raises(InputError):
            Quadrature(abs_tol=0.0)
        with pytest.raises(InputError):
            Quadrature(rel_tol=-1.0)
        for tols in (("1e-3", 1e-3), (1e-3, None), ([1e-3, 1e-3], 1e-3)):
            with pytest.raises(InputError):
                Quadrature(*tols)

    @pytest.mark.parametrize("tols", [(True, 1e-3), (1e-3, True), (np.True_, 1e-3)])
    def test_rejects_bool_tolerances(self, tols):
        # True would pass as the tolerance 1.0
        with pytest.raises(InputError):
            Quadrature(*tols)

    @pytest.mark.parametrize("tols", [{"abs_tol": math.inf}, {"rel_tol": math.inf},
                                      {"abs_tol": math.nan}])
    def test_rejects_tolerances_that_are_not_finite(self, tols):
        # an infinite budget would accept the first cube as converged
        with pytest.raises(InputError):
            Quadrature(**tols)

    def test_has_no_region(self):
        # a box is esol_region's argument, never a field the other integrals ignore
        with pytest.raises(TypeError):
            Quadrature(box=[(0.0, 0.1)])


class TestTotalOneVariable:
    def test_two_term_closed_form(self):
        r = esol_total(TWO_TERM)
        assert r.route == "x"
        assert r.cells > 0
        assert r.value == pytest.approx(0.5, abs=1e-9)
        assert r.error < 1e-6

    def test_binomial_family_closed_form(self):
        for d in range(1, 5):
            r = esol_total(kostlan(1, d))
            assert r.value == pytest.approx(math.sqrt(d) / 2.0, abs=1e-7)

    def test_irregular_regression(self):
        r = esol_total(IRREGULAR)
        assert r.value == pytest.approx(0.7794992279, abs=1e-6)

    def test_explicit_box_matches_auto(self):
        auto = esol_total(TWO_TERM)
        boxed = esol_region(TWO_TERM, [(-40.0, 40.0)], Quadrature())
        assert boxed.value == pytest.approx(auto.value, abs=1e-9)

    def test_translation_invariance(self):
        shifted = ExpSum([[5.0], [6.0]])
        r = esol_total(shifted)
        assert r.value == pytest.approx(0.5, abs=1e-9)

    def test_dilation_invariance_of_two_point_support(self):
        # a two-point sum has 0 or 1 zeros by sign alone, so the expected
        # count stays 1/2 no matter how far apart the exponents sit
        wide = ExpSum([[0.0], [3.0]])
        r = esol_total(wide)
        assert r.value == pytest.approx(0.5, abs=1e-8)

    def test_degenerate_support_is_zero(self):
        r = esol_total(ExpSum([[2.0]]))
        assert r.value == 0.0
        assert r.cells == 0

    @pytest.mark.parametrize("exponents", [[0.0, 1e-3, 1.0], [0.0, 1e-4, 1.0, 1.0001]])
    def test_gaps_of_different_scales_match_exact_counts(self, exponents):
        # the density reaches out to about 1/(smallest gap), far beyond the
        # frame that the largest gap sets at the barycenter
        E = ExpSum(np.reshape(exponents, (-1, 1)))
        mean, stderr = estimate_esol(E, McConfig(n_samples=20_000, seed=11))
        assert esol_total(E).value == pytest.approx(mean, abs=4.0 * stderr)


class TestTotalTwoVariables:
    def test_unit_square(self):
        r = esol_total(kostlan(2, 1))
        assert r.value == pytest.approx(math.pi / 8.0, rel=1e-8)

    def test_degree_two_square(self):
        r = esol_total(kostlan(2, 2))
        assert r.value == pytest.approx(math.pi / 4.0, rel=1e-8)

    def test_degenerate_planar_support_is_zero(self):
        E = ExpSum([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert esol_total(E).value == 0.0


def _image(E, L, b=0.0):
    """The support mapped by A -> L A + b, weights kept: the expected zero
    count is unchanged by any invertible affine map."""
    return type(E)(E.support.points @ np.asarray(L, float).T + b, E.coeffs)


def _rotation3(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


_TURN = 0.5
ROTATE_SHEAR = np.array(
    [[math.cos(_TURN), -math.sin(_TURN)], [math.sin(_TURN), math.cos(_TURN)]]
) @ [[1.0, 0.7], [0.0, 1.2]]
ROOT2 = math.sqrt(2.0)
LOOSE = Quadrature(abs_tol=1e-4, rel_tol=1e-4)
TURN_0_7 = [[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]]


def _random_affine2(seed):
    """The first affine map (L, b) drawn from a seeded generator: a rotation
    15 to 75 degrees off the axes, a unit upper-triangular shear and axis
    scales in [0.6, 1.6], then a shift in [-1, 1]^2."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(math.pi / 12, 5 * math.pi / 12) + math.pi / 2 * rng.integers(4)
    turn = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    shear = np.eye(2) + np.triu(rng.uniform(-0.8, 0.8, (2, 2)), 1)
    return turn @ shear @ np.diag(rng.uniform(0.6, 1.6, 2)), rng.uniform(-1.0, 1.0, 2)


@pytest.mark.parametrize(
    "integral, E, q, ref",
    [
        (esol_total, ExpSum([[1, 0], [0, 1], [-1, 0], [0, -1]]), Quadrature(), math.pi / 8.0),
        (esol_total, _image(kostlan(2, 2), ROTATE_SHEAR, [0.3, -2.0]), Quadrature(), math.pi / 4.0),
        # simplex Kostlan: support |a| <= 2, weights sqrt(multinomial), count 2/4
        (
            esol_total,
            ExpSum([[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [0, 2]], [1, ROOT2, 1, ROOT2, ROOT2, 1]),
            Quadrature(),
            0.5,
        ),
        # a rotation for which a box sized from axis-projected gaps finds about 0
        (esol_total, _image(kostlan(3, 1), _rotation3(7)), LOOSE, math.pi / 8.0),
        (bkk_total, ComplexExpSum([[0, 0], [2, 0], [3, 1], [1, 3], [-1, 1]]), Quadrature(), 14.0),
        # at 1e-8 and tighter these ran out of nodes on a formed-metric density floor
        (esol_total, _image(kostlan(2, 1), TURN_0_7), Quadrature(1e-10, 1e-10), math.pi / 8.0),
        *[(esol_total, _image(kostlan(2, 2), *_random_affine2(seed)), Quadrature(1e-9, 1e-9),
           math.pi / 4.0) for seed in range(1, 7)],
        # Thin triangles, images of the unit simplex (1/4 for any weights):
        # their barycenters lie inside the margin that user targets of
        # invert_moment must clear, which the frame once had to pass.
        *[(esol_total, ExpSum([[0.0, 0.0], [1.0, 0.0], [0.5, h]], coeffs), Quadrature(), 0.25)
          for h in (1e-8, 1e-10, 1e-11) for coeffs in (None, [1.0, 2.5, 0.4])],
    ],
    ids=["rotated square", "rotated sheared kostlan(2,2)", "simplex(2,2)",
         "rotated kostlan(3,1)", "pentagon bkk", "unit square turned 0.7 rad at 1e-10",
         *[f"seeded affine kostlan(2,2) {seed} at 1e-9" for seed in range(1, 7)],
         *[f"{kind} triangle of height {h:g}" for h in (1e-8, 1e-10, 1e-11)
           for kind in ("thin", "reweighted thin")]],
)
def test_x_route_on_supports_off_the_axes(integral, E, q, ref):
    start = time.perf_counter()
    result = integral(E, q)
    assert time.perf_counter() - start < 1.0
    assert result.value == pytest.approx(ref, abs=max(q.abs_tol, q.rel_tol * ref))
    assert _within_budget(result, q)


def _random_affine3(seed):
    """The first affine map (L, b) drawn from a seeded generator: a rotation,
    a unit upper-triangular shear and axis scales in [0.6, 1.6], then a
    shift in [-1, 1]^3."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    shear = np.eye(3) + np.triu(rng.uniform(-0.8, 0.8, (3, 3)), 1)
    L = (q * np.sign(np.diag(r))) @ shear @ np.diag(rng.uniform(0.6, 1.6, 3))
    return L, rng.uniform(-1.0, 1.0, 3)


SHEAR3 = [[1.0, 0.7, -0.4], [0.0, 1.2, 0.5], [0.0, 0.0, 0.8]]
#: A tensor of three two-term sums, gaps 0.3, 3 and 1: an image of kostlan(3, 1).
TWO_TERM_CUBE = tensor(tensor(ExpSum([[0.0], [0.3]]), ExpSum([[0.0], [3.0]])), ExpSum([[0.0], [1.0]]))
UNIT_CUBE = ComplexExpSum([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)])


class TestThreeVariables:
    """Genz-Malik cells: closed forms at tight tolerances in bounded time."""

    @pytest.mark.parametrize(
        "integral, E, tol, ref, seconds",
        [
            (esol_total, kostlan(3, 1), 1e-7, math.pi / 8.0, 2.5),
            (
                esol_total,
                ExpSum([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [1.0, 1.0, 1.0, 1.0]),
                1e-7,
                0.125,
                1.5,
            ),
            (esol_total, TWO_TERM_CUBE, 1e-7, math.pi / 8.0, 2.5),
            (esol_total, _image(kostlan(3, 1), SHEAR3), 1e-6, math.pi / 8.0, 1.0),
            (esol_total, _image(kostlan(3, 1), _rotation3(7)), 1e-6, math.pi / 8.0, 1.0),
            (bkk_total, UNIT_CUBE, 1e-7, 6.0, 3.0),
            # off by 2.6e-7 with 576-node Gauss-Legendre cells, which claimed 1e-7
            (esol_total, _image(kostlan(3, 1), *_random_affine3(11)), 1e-7, math.pi / 8.0, 4.0),
            *[(esol_total, ExpSum([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.3, h]]), 1e-5, 0.125, 1.0)
              for h in (1e-9, 1e-11)],
        ],
        ids=["kostlan(3,1)", "simplex(3,1)", "tensor of two-term sums", "sheared kostlan(3,1)",
             "rotated kostlan(3,1)", "unit cube bkk", "seeded affine kostlan(3,1)",
             "tetrahedron of height 1e-09", "tetrahedron of height 1e-11"],
    )
    def test_closed_forms(self, integral, E, tol, ref, seconds):
        q = Quadrature(abs_tol=tol, rel_tol=tol)
        start = time.perf_counter()
        r = integral(E, q)
        assert time.perf_counter() - start < seconds
        assert r.value == pytest.approx(ref, abs=max(tol, tol * ref))
        assert _within_budget(r, q)

    def test_node_budget_raises_with_partial_value(self, monkeypatch):
        monkeypatch.setattr(integrate, "MAX_NODES", 1000 * 33)
        with pytest.raises(ConvergenceError, match="node budget 33000") as info:
            esol_total(kostlan(3, 1))
        assert info.value.value == pytest.approx(math.pi / 8.0, abs=1e-3)


class TestCellRules:
    def test_genz_malik_degrees(self):
        nodes, weights = _genz_malik_rule(3)
        assert nodes.shape == (33, 3)
        for powers in itertools.product(range(8), repeat=3):
            if sum(powers) > 7:
                continue
            exact = math.prod(0.0 if k % 2 else 2.0 / (k + 1) for k in powers)
            seven, five = np.prod(nodes**powers, axis=1) @ weights[:, :2]
            assert seven == pytest.approx(exact, abs=1e-13)
            if sum(powers) <= 5:
                assert five == pytest.approx(exact, abs=1e-13)
        # degree 6 separates the pair, so its difference measures the error
        seven, five = np.prod(nodes ** (6, 0, 0), axis=1) @ weights[:, :2]
        assert abs(seven - five) > 1e-3

    def test_gauss_legendre_degrees(self):
        nodes, weights = _gauss_legendre_rule(2)
        assert nodes.shape == (89, 2)
        for a, b in itertools.product(range(16), repeat=2):
            exact = (0.0 if a % 2 else 2.0 / (a + 1)) * (0.0 if b % 2 else 2.0 / (b + 1))
            eight, five = (nodes[:, 0] ** a * nodes[:, 1] ** b) @ weights
            assert eight == pytest.approx(exact, abs=1e-13)
            if a <= 9 and b <= 9:
                assert five == pytest.approx(exact, abs=1e-13)
        # degree 10 separates the pair, so its difference measures the error
        eight, five = nodes[:, 0] ** 10 @ weights
        assert abs(eight - five) > 1e-3

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_cell_rule_is_cached_read_only_and_equals_a_fresh_build(self, m):
        rule = _cell_rule(m)
        assert _cell_rule(m) is rule
        per_cell, apply = rule
        nodes, weights = apply.args
        fresh_nodes, fresh_weights = (_gauss_legendre_rule if m < 3 else _genz_malik_rule)(m)
        assert per_cell == len(fresh_weights)
        np.testing.assert_array_equal(nodes, fresh_nodes.T)
        np.testing.assert_array_equal(weights, fresh_weights)
        for cached in (nodes, weights):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0, 0] = 0.0

    @pytest.mark.parametrize("m", [2, 3])
    def test_split_axis(self, m):
        # a cell longest along axis 0; f varies along the last axis alone
        per_cell, apply = _cell_rule(m)
        los, his = np.zeros((1, m)), np.array([[4.0] + [1.0] * (m - 1)])
        value, error, axes = apply(lambda X: np.exp(3.0 * X[-1]), los, his)
        assert per_cell == {2: 89, 3: 33}[m]
        assert error[0] > 0.0
        # Gauss-Legendre halves the longest side, Genz-Malik the varying axis
        assert axes.tolist() == [0 if m == 2 else m - 1]

    @pytest.mark.parametrize(
        "E, box, per_cell",
        [
            (TWO_TERM, [(-40.0, 40.0)], 13),
            (kostlan(2, 1), [(-30.0, 30.0)] * 2, 89),
            (kostlan(3, 1), [(-20.0, 20.0)] * 3, 33),
        ],
        ids=["1-D", "2-D", "3-D"],
    )
    def test_nodes_count_integrand_evaluations(self, monkeypatch, E, box, per_cell):
        rows, pushed = [], []
        density_many, cell_rule = integrate.density_many, integrate._cell_rule

        def counted(E, X):
            rows.append(len(X))
            return density_many(E, X)

        def counted_rule(m):
            nodes, apply = cell_rule(m)

            def counted_apply(f, los, his):
                pushed.append(len(los))
                return apply(f, los, his)

            return nodes, counted_apply

        monkeypatch.setattr(integrate, "density_many", counted)
        monkeypatch.setattr(integrate, "_cell_rule", counted_rule)
        r = esol_region(E, box, Quadrature(abs_tol=1e-4, rel_tol=1e-4))
        seeds = 8 ** E.dim
        # every split evaluates two children for one leaf it removes
        assert r.cells > seeds
        assert r.nodes == sum(rows) == (2 * r.cells - seeds) * per_cell
        # one integrand call per batch of cells, on all nodes of both rules
        assert rows == [cells * per_cell for cells in pushed]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_seed_cells_are_cached_read_only_and_equal_a_fresh_build(self, m):
        for r in (4.0, 8.0, 4.0 * 2**20):
            cube = integrate._cube_cells(r, m)
            shell = integrate._shell_cells(r, m)
            assert integrate._cube_cells(r, m) is cube and integrate._shell_cells(r, m) is shell
            fresh_shell = []
            for axis in range(m):
                for side in ((-2.0 * r, -r), (r, 2.0 * r)):
                    slab = [(-2.0 * r, 2.0 * r)] * axis + [side] + [(-r, r)] * (m - axis - 1)
                    fresh_shell.append(_seed_grid(slab, 4))
            fresh_shell = [np.concatenate([g[i] for g in fresh_shell]) for i in (0, 1)]
            for cached, fresh in zip(cube + shell, _seed_grid(((-r, r),) * m, 4) + tuple(fresh_shell)):
                np.testing.assert_array_equal(cached, fresh)
                assert not cached.flags.writeable
                with pytest.raises(ValueError):
                    cached[0, 0] = 0.0


class TestRegion:
    def test_half_line_splits_symmetric_mass(self):
        r = esol_region(TWO_TERM, [(0.0, 40.0)])
        assert r.value == pytest.approx(0.25, abs=1e-9)

    def test_regions_add_up(self):
        left = esol_region(IRREGULAR, [(-30.0, 0.5)])
        right = esol_region(IRREGULAR, [(0.5, 30.0)])
        total = esol_total(IRREGULAR)
        assert left.value + right.value == pytest.approx(total.value, abs=1e-6)

    def test_quadrant_of_square_ensemble(self):
        r = esol_region(kostlan(2, 1), [(0.0, 30.0), (0.0, 30.0)])
        assert r.value == pytest.approx(math.pi / 32.0, rel=1e-6)

    @pytest.mark.parametrize(
        "box",
        [[(-math.inf, 1.0)], [(0.0, math.nan)], [("a", "b")], [(1.0, 0.0)], [(0.0, 1.0)] * 2],
        ids=["infinite", "nan", "not-numeric", "reversed", "wrong-axes"],
    )
    def test_bad_box_raises(self, box):
        with pytest.raises(InputError):
            esol_region(TWO_TERM, box)


STRICT = Quadrature(abs_tol=1e-7, rel_tol=1e-7)
TRIANGLE = ExpSum([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
SIMPLEX_2_2 = ExpSum([[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [0, 2]], [1, ROOT2, 1, ROOT2, ROOT2, 1])
PENTAGON = ExpSum([[0, 0], [2, 0], [3, 1], [1, 3], [-1, 1]])
SHEARED_SQUARE = ExpSum([[0, 0], [1, 0], [0.5, 1], [1.5, 1]])
THREE_TERM = ExpSum([[0], [1], [3]], [1, 2, 1])


def _within_budget(result, q):
    """The returned error meets the budget the request set."""
    return result.error <= max(q.abs_tol, q.rel_tol * abs(result.value))


def _check_closed_form(E, ref, q):
    start = time.perf_counter()
    r = esol_pspace(E, q)
    assert time.perf_counter() - start < 0.5
    assert r.route == "p"
    assert r.value == pytest.approx(ref, abs=max(q.abs_tol, q.rel_tol * ref))
    assert _within_budget(r, q)


def _check_against_native(E, q):
    a = esol_total(E, q)
    b = esol_pspace(E, q)
    assert _within_budget(b, q)
    assert abs(a.value - b.value) <= a.error + b.error


class TestMomentRoute:
    def test_two_term_agrees(self):
        _check_closed_form(TWO_TERM, 0.5, STRICT)

    def test_unit_square_agrees(self):
        for tol in (1e-7, 1e-10):
            _check_closed_form(kostlan(2, 1), math.pi / 8.0, Quadrature(abs_tol=tol, rel_tol=tol))

    @pytest.mark.parametrize(
        "E, ref",
        [
            (kostlan(1, 3), math.sqrt(3.0) / 2.0),
            (kostlan(2, 2), math.pi / 4.0),
            (TRIANGLE, 0.25),
            (SIMPLEX_2_2, 0.5),
            (ExpSum([[1, 0], [0, 1], [-1, 0], [0, -1]]), math.pi / 8.0),
            (_image(kostlan(2, 2), ROTATE_SHEAR, [0.3, -2.0]), math.pi / 4.0),
            (_image(TRIANGLE, np.eye(2), [1000.0, 1000.0]), 0.25),
            (ExpSum([[0, 0], [1, 0], [0, 1], [1, 1]], [1.0, 3.0, 0.5, 1.5]), math.pi / 8.0),
        ],
        ids=["kostlan(1,3)", "kostlan(2,2)", "triangle", "simplex(2,2)", "rotated square",
             "sheared kostlan(2,2)", "triangle translated by 1000", "weighted box"],
    )
    def test_closed_forms(self, E, ref):
        _check_closed_form(E, ref, STRICT)

    def test_irregular_agrees_with_native_route(self):
        _check_against_native(IRREGULAR, STRICT)

    def test_pentagon_agrees_with_native_route(self):
        _check_against_native(PENTAGON, Quadrature(abs_tol=1e-6, rel_tol=1e-6))

    def test_failed_inversion_raises(self):
        # moment inversion of these weights fails at some nodes; dropping
        # them would silently return about 1/2 against the x route's 1
        E = ExpSum([[-50.0], [0.0], [0.001], [80.0]], [1e-30, 1.0, 1.0, 1e30])
        with pytest.raises(ConvergenceError) as info:
            esol_pspace(E)
        assert math.isfinite(info.value.value)

    @pytest.mark.parametrize("shift", [1e6, 1e7])
    @pytest.mark.parametrize("E", [kostlan(2, 1), SHEARED_SQUARE, THREE_TERM],
                             ids=["unit square", "sheared square", "three terms"])
    def test_translation_far_from_the_origin(self, E, shift):
        # A translated support has the same count; moment inversion in raw
        # coordinates drifted by up to 4e-7 relative here.
        moved = ExpSum(E.support.points + shift, E.coeffs)
        assert esol_pspace(moved).value == pytest.approx(esol_pspace(E).value, rel=1e-12, abs=0.0)

    def test_square_translated_by_1e8(self):
        # The vertex decomposition once multiplied 1e8-sized coordinates and
        # left every integrand node non-finite.
        moved = ExpSum(kostlan(2, 1).support.points + 1e8)
        assert esol_pspace(moved).value == pytest.approx(math.pi / 8.0, rel=1e-12, abs=0.0)

    def test_three_variables_unsupported(self):
        with pytest.raises(InputError):
            esol_pspace(kostlan(3, 1))

    def test_degenerate_support_is_zero(self):
        assert esol_pspace(ExpSum([[2.0]])).value == 0.0


class TestConvergenceFailure:
    def test_non_finite_integrand_raises_with_finite_cells(self):
        # one of the eight seed cells of [0, 1] has a node within 0.01 of 0.3
        f = lambda X: np.where(np.abs(X[0] - 0.3) < 0.01, np.nan, 1.0)
        with pytest.raises(ConvergenceError, match="not finite") as info:
            _adaptive(f, *_seed_grid(((0.0, 1.0),), 8), 1e-7, 1e-7)
        assert info.value.value == pytest.approx(0.875, abs=1e-12)

    def test_unreachable_tolerance_carries_partial_value(self):
        start = time.perf_counter()
        with pytest.raises(ConvergenceError) as info:
            esol_total(TWO_TERM, Quadrature(abs_tol=1e-300, rel_tol=1e-300))
        assert info.value.value == pytest.approx(0.5, abs=1e-6)
        assert time.perf_counter() - start < 2.0

    def test_failed_frame_raises_with_its_residual(self, monkeypatch):
        # No Newton step at all: the frame stays at the balancing point,
        # whose moment is not the barycenter 4/3 of these weights.
        E = ExpSum([[0.0], [1.0], [3.0]], [1.0, 2.0, 1.0])
        monkeypatch.setattr(expsum, "INVERT_MAX_ITER", 0)
        c, centred = E._centred
        want = abs(float(_batch_moments(E, centred._newton_start[0][None])[2][0, 0]) - c[0])
        with pytest.raises(ConvergenceError, match="no frame over R") as info:
            esol_total(E)
        assert info.value.residual == pytest.approx(want, rel=1e-12) and want > 0.05


class TestLowerBound:
    def test_two_term_frozen_bound(self):
        rep = lower_bound_check(TWO_TERM)
        assert not rep.degenerate
        assert rep.bound == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
        assert rep.strict
        assert rep.esol - rep.esol_error > rep.bound

    def test_unit_square_frozen_bound(self):
        rep = lower_bound_check(kostlan(2, 1))
        assert rep.bound == pytest.approx(1.0 / (16.0 * math.pi), rel=1e-12)
        assert rep.strict

    def test_every_nondegenerate_example_is_strict(self):
        for E in (TWO_TERM, IRREGULAR, kostlan(1, 3), kostlan(2, 2)):
            rep = lower_bound_check(E)
            assert rep.strict, E

    def test_degenerate_support_flagged(self):
        rep = lower_bound_check(ExpSum([[2.0]]))
        assert rep.degenerate
        assert not rep.strict
