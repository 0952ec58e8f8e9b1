"""Tests for expected-zero-count integrals on both coordinate routes."""

from __future__ import annotations

import dataclasses
import heapq
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
    Augmentation,
    Quadrature,
    SupportSet,
    asymptotic_moment,
    augment,
    bkk_total,
    density_many,
    diameter,
    esol_pspace,
    esol_region,
    esol_total,
    estimate_esol,
    evaluate,
    exposed_face,
    face_metric_limit,
    hull_volume,
    invert_moment,
    kostlan,
    lower_bound_check,
    n_factorial_volume,
    region_scan,
    tensor,
)
from sparse_kacrice import complexcase, expsum, integrate
from sparse_kacrice.geometry import _interior_mask
from sparse_kacrice.integrate import (
    _adaptive, _cell_rule, _gauss_legendre_rule, _genz_malik_rule, _seed_grid,
)
from test_expsum import batch_moments

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
#: Two polytopes that are not simple: each vertex of the octahedron lies on
#: four facets, and the apex of the square pyramid too.  Neither sum has a
#: facet-log start.  Their counts have no closed form here: these are
#: esol_total's at 1e-8, which claimed 1e-8 (the pyramid's lies 4e-10 below
#: pi/16).
OCTAHEDRON = ExpSum([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])
OCTAHEDRON_COUNT = 0.3275113015
SQUARE_PYRAMID = ExpSum([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 1]])
SQUARE_PYRAMID_COUNT = 0.1963495404


class TestThreeVariables:
    """Genz-Malik cells: closed forms at tight tolerances in bounded time."""

    @pytest.mark.parametrize(
        "integral, E, tol, ref, seconds",
        [
            (esol_total, kostlan(3, 1), 1e-7, math.pi / 8.0, 2.5),
            # 9936 cells at 1e-6 and 31 312 at 1e-7 over R^3, in metric-normalized coordinates
            (esol_total, kostlan(3, 2), 1e-7, math.pi * 2.0**1.5 / 8.0, 0.5),
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
        ids=["kostlan(3,1)", "kostlan(3,2)", "simplex(3,1)", "tensor of two-term sums", "sheared kostlan(3,1)",
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

    def test_reweightings_take_equal_cells(self):
        # A reweighting a -> alpha_a e^<a, c> is a shift of x, so in frame
        # coordinates these are one integral.  g(x0) = I/4 has one triple
        # eigenvalue, and an eigenbasis frame rotated with the roundoff of
        # x0: the same integral took between 736 and 1504 cells.
        E = kostlan(3, 1)
        cells = set()
        for c in np.random.default_rng(0).uniform(-0.5, 0.5, (8, 3)):
            r = esol_total(ExpSum(E.support.points, E.coeffs * np.exp(E.support.points @ c)), LOOSE)
            assert r.value == pytest.approx(math.pi / 8.0, abs=1e-4)
            cells.add(r.cells)
        assert len(cells) == 1

    def test_node_budget_raises_with_partial_value(self, monkeypatch):
        # The octahedron is not simple, so its sum keeps the region over R^3.
        monkeypatch.setattr(integrate, "MAX_NODES", 1000 * 33)
        with pytest.raises(ConvergenceError, match="node budget 33000") as info:
            esol_total(OCTAHEDRON)
        assert info.value.value == pytest.approx(OCTAHEDRON_COUNT, abs=1e-3)


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
        per_cell, per_pass, apply = rule
        nodes, weights = apply.args
        fresh_nodes, fresh_weights = (_gauss_legendre_rule if m < 3 else _genz_malik_rule)(m)
        assert per_cell == len(fresh_weights)
        # 16 cells a pass for the tensor Gauss-Legendre pairs, 64 for Genz-Malik
        assert per_pass == (16 if m < 3 else 64)
        np.testing.assert_array_equal(nodes, fresh_nodes.T)
        np.testing.assert_array_equal(weights, fresh_weights)
        for cached in (nodes, weights):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0, 0] = 0.0

    @pytest.mark.parametrize("m", [2, 3])
    def test_split_axis(self, m):
        # a cell longest along axis 0; f varies along the last axis alone
        per_cell, _, apply = _cell_rule(m)
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
        rows, pushed = self._count_calls(monkeypatch)
        r = esol_region(E, box, Quadrature(abs_tol=1e-4, rel_tol=1e-4))
        seeds = 8 ** E.dim
        # every split evaluates two children for one leaf it removes
        assert r.cells > seeds
        assert r.nodes == sum(rows) == (2 * r.cells - seeds) * per_cell
        # one integrand call per batch of cells, on all nodes of both rules
        assert rows == [cells * per_cell for cells in pushed]

    @pytest.mark.parametrize("E, tol, per_cell", [
        (IRREGULAR, 1e-7, 13),
        (ExpSum([[0, 0], [1, 0], [0, 1], [1, 1]], [1.0, 0.5, 2.0, 1.5]), 1e-7, 89),
        (OCTAHEDRON, 1e-4, 33),
    ], ids=["1-D", "2-D", "3-D"])
    def test_total_reaches_density_many_once_per_batch(self, monkeypatch, E, tol, per_cell):
        # perfbench counts integrate.x_nodes through this module global.
        # These sums run on the region over R^m: none has a facet-log start.
        assert E._facet_start is None
        rows, pushed = self._count_calls(monkeypatch)
        r = esol_total(E, Quadrature(abs_tol=tol, rel_tol=tol))
        assert len(pushed) > 2 and r.nodes == sum(rows)
        assert rows == [cells * per_cell for cells in pushed]

    @pytest.mark.parametrize("E, per_cell", [
        (ExpSum([[0.0], [1.0], [2.0], [3.0]], [1.0, 1.74, 1.72, 1.01]), 13),
        (ExpSum([[0, 0], [1, 0], [0, 1], [1, 1]], [1.0, 0.7, 1.3, 0.9]), 89),
        (ExpSum(kostlan(3, 1).support.points, [1.0, 1.11, 0.82, 0.9, 1.35, 1.49, 1.11, 1.22]), 33),
    ], ids=["1-D", "2-D", "3-D"])
    def test_total_over_the_polytope_reaches_density_many_once(self, monkeypatch, E, per_cell):
        # A sum with a facet-log start on a simple P integrates over P, at
        # x_hat(p), through the same module global; near a closed form, in
        # the seed cells' one call, 8 or 64 cells.
        assert E._facet_start is not None
        rows, pushed = self._count_calls(monkeypatch)
        r = esol_total(E, Quadrature(abs_tol=1e-7, rel_tol=1e-7))
        assert pushed == [r.cells] == [8 if E.dim == 1 else 64]
        assert rows == [r.nodes] == [r.cells * per_cell]

    @staticmethod
    def _count_calls(monkeypatch):
        """Lists of the rows of every ``integrate.density_many`` call and the
        cells of every rule application, in call order."""
        rows, pushed = [], []
        density_many, cell_rule = integrate.density_many, integrate._cell_rule

        def counted(E, X):
            rows.append(len(X))
            return density_many(E, X)

        def counted_rule(m):
            nodes, per_pass, apply = cell_rule(m)

            def counted_apply(f, los, his):
                pushed.append(len(los))
                return apply(f, los, his)

            return nodes, per_pass, counted_apply

        monkeypatch.setattr(integrate, "density_many", counted)
        monkeypatch.setattr(integrate, "_cell_rule", counted_rule)
        return rows, pushed

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


def _heap_adaptive(f, los, his, abs_tol, rel_tol, per_pass, grow=False):
    """The adaptive loop on a heapq of tuples (-error, insertion order, lo,
    hi, value, split axis), per_pass cells popped per pass: the reference
    for the array-backed cell store, on the same rule and stop rule."""
    m = los.shape[1]
    per_cell, _, rule = _cell_rule(m)
    heap, order, evaluated = [], itertools.count(), 0

    def push(los, his):
        nonlocal evaluated
        values, errs, axes = rule(f, los, his)
        evaluated += len(values)
        assert np.isfinite(errs).all()
        columns = ((-errs).tolist(), order, los.tolist(), his.tolist(), values.tolist(), axes.tolist())
        for entry in zip(*columns):
            heapq.heappush(heap, entry)
        return float(values.sum()), float(errs.sum()), float(np.abs(values).sum())

    total, error, mass = push(los, his)
    shell, radius = (math.inf if grow else 0.0), float(his.max())
    while error + abs(shell) > max(abs_tol, rel_tol * abs(total), integrate.ROUNDOFF * mass):
        if abs(shell) > error:
            shell, de, dm = push(*integrate._shell_cells(radius, m))
            total, error, mass = total + shell, error + de, mass + dm
            radius *= 2.0
            continue
        assert len(heap) * per_cell < integrate.MAX_NODES
        batch = [heapq.heappop(heap) for _ in range(min(per_pass, len(heap)))]
        for neg_err, _, _, _, value, _ in batch:
            total, error, mass = total - value, error + neg_err, mass - abs(value)
        _, _, lo, hi, _, axis = zip(*batch)
        lo, hi, split = np.array(lo), np.array(hi), (np.arange(len(batch)), list(axis))
        lo_mid, hi_mid = lo.copy(), hi.copy()
        lo_mid[split] = hi_mid[split] = 0.5 * (lo[split] + hi[split])
        child_los = np.stack([lo, lo_mid], axis=1).reshape(-1, m)
        child_his = np.stack([hi_mid, hi], axis=1).reshape(-1, m)
        dv, de, dm = push(child_los, child_his)
        total, error, mass = total + dv, error + de, mass + dm
    value = math.fsum(entry[4] for entry in heap)
    error = math.fsum(-entry[0] for entry in heap) + abs(shell)
    return value, error, len(heap), evaluated * per_cell


def _cone(X):
    """exp(-|x|): on cells mirrored about the origin its errors often tie
    exactly, and splitting the one cell or the other changes the result."""
    return np.exp(-np.sqrt((X * X).sum(axis=0)))


class TestCellStore:
    """The array-backed store splits the cells a heap would pop, in its order."""

    @pytest.mark.parametrize("E, box", [
        (TWO_TERM, [(-40.0, 40.0)]),
        (kostlan(2, 1), [(-30.0, 30.0)] * 2),
        (kostlan(3, 1), [(-20.0, 20.0)] * 3),
    ], ids=["1-D", "2-D", "3-D"])
    def test_region_matches_the_reference_heap_bit_for_bit(self, E, box):
        f = lambda X: expsum.density_many(E, X.T)
        seeds = _seed_grid(box, 8)
        per_pass = _cell_rule(E.dim)[1]
        got = _adaptive(f, *seeds, 1e-4, 1e-4)
        assert got == _heap_adaptive(f, *seeds, 1e-4, 1e-4, per_pass)
        r = esol_region(E, box, LOOSE)
        assert (r.value, r.error, r.cells, r.nodes) == got

    @pytest.mark.parametrize("m, tol", [(1, 1e-12), (2, 1e-8), (3, 1e-4)])
    def test_tied_errors_match_the_reference_heap_bit_for_bit(self, m, tol):
        # In two and three variables, splitting the latest-inserted of the
        # cells tied at a cut changes (value, error, cells, nodes).
        seeds = _seed_grid(((-4.0, 4.0),) * m, 4)
        per_pass = _cell_rule(m)[1]
        got = _adaptive(_cone, *seeds, tol, tol)
        assert got == _heap_adaptive(_cone, *seeds, tol, tol, per_pass)

    def test_growing_region_matches_the_reference_heap_bit_for_bit(self):
        f = lambda X: np.exp(-0.5 * (X * X).sum(axis=0)) / (2.0 * math.pi)
        seeds = integrate._cube_cells(integrate.AUTO_RADIUS, 2)
        got = _adaptive(f, *seeds, 1e-9, 1e-9, grow=True)
        assert got == _heap_adaptive(f, *seeds, 1e-9, 1e-9, 16, grow=True)
        assert got[0] == pytest.approx(1.0, abs=1e-9)

    def test_pop_orders_ties_by_insertion_and_keeps_popped_rows(self):
        cells = integrate._Cells(1)
        errors = np.array([1.0, 3.0, 2.0, 3.0, 2.0, 2.0, 0.5, 2.0])
        idx = np.arange(8.0)
        # rows (lo, hi, value, error, axis)
        cells.push(np.column_stack([idx, idx + 1.0, idx, errors, np.zeros(8)]))
        *_, value, error, _ = cells.pop(4).T
        assert value.tolist() == [1.0, 3.0, 2.0, 4.0] and error.tolist() == [3.0, 3.0, 2.0, 2.0]
        assert cells.live == 4 and cells.rows == 8
        assert cells.held() == ([0.0, 5.0, 6.0, 7.0], [1.0, 2.0, 0.5, 2.0])
        assert cells.pop(8)[:, 2].tolist() == [5.0, 7.0, 0.0, 6.0]
        assert cells.live == 0 and cells.rows == 8

    def test_gaussian_cube_matches_the_reference_heap_bit_for_bit(self):
        # e^(-|x|^2) on [-3, 3]^3 from 2 seeds per axis at 1e-6: three
        # passes that split every cell, then 54 cut from up to 3520 cells.
        f = lambda X: np.exp(-(X * X).sum(axis=0))
        seeds = _seed_grid(((-3.0, 3.0),) * 3, 2)
        got = _adaptive(f, *seeds, 1e-6, 1e-6)
        assert got == _heap_adaptive(f, *seeds, 1e-6, 1e-6, 64)
        assert got[2] == 3520
        assert got[0] == pytest.approx(math.pi**1.5 * math.erf(3.0) ** 3, rel=1e-6)


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


#: Flat supports (dim conv(A) < m) in one to four variables.
FLAT = {
    1: [[2.0]],
    2: [[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]],
    3: [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
    4: [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
}


def _unreachable(*args, **kwargs):
    """Stands in for ``integrate._adaptive`` where no cell may be integrated."""
    raise AssertionError("reached the integrator")


class TestFlatSupports:
    """Every integral checks its own input, then returns (0, 0, route, 0, 0)
    on a flat support without integrating anything."""

    @pytest.mark.parametrize("integral, route, refused", [
        (esol_total, "x", None),
        (lambda E: esol_region(E, [(-1.0, 2.0)] * E.dim), "x",
         lambda: esol_region(ExpSum(FLAT[2]), [(2.0, -1.0)] * 2)),
        (esol_pspace, "p", lambda: esol_pspace(ExpSum(FLAT[4]))),
        (lambda E: bkk_total(ComplexExpSum(E.support.points)), "bkk", lambda: bkk_total(ComplexExpSum(FLAT[4]))),
    ], ids=["esol_total", "esol_region", "esol_pspace", "bkk_total"])
    def test_zero_after_the_input_check(self, monkeypatch, integral, route, refused):
        monkeypatch.setattr(integrate, "_adaptive", _unreachable)
        assert all(SupportSet(points).degenerate for points in FLAT.values())
        for m in (1, 2, 3):
            assert dataclasses.astuple(integral(ExpSum(FLAT[m]))) == (0.0, 0.0, route, 0, 0)
        if refused is not None:
            with pytest.raises(InputError):
                refused()


STRICT = Quadrature(abs_tol=1e-7, rel_tol=1e-7)
TRIANGLE = ExpSum([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
SIMPLEX_2_2 = ExpSum([[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [0, 2]], [1, ROOT2, 1, ROOT2, ROOT2, 1])
PENTAGON = ExpSum([[0, 0], [2, 0], [3, 1], [1, 3], [-1, 1]])
SHEARED_SQUARE = ExpSum([[0, 0], [1, 0], [0.5, 1], [1.5, 1]])
THREE_TERM = ExpSum([[0], [1], [3]], [1, 2, 1])


def _weighted_3d():
    """Weights U(0.2, 5) from default_rng(7) on the unit cube and the prism
    {0, e1, e2, e3, e1 + e3, e2 + e3}: the 2nd and 3rd 8-weight draws, then
    the next two 6-weight draws.  The 1st draw is skipped: on it the moment
    route stops on a failed inversion, a known fault of damped Newton far
    out in x."""
    rng = np.random.default_rng(7)
    rng.uniform(0.2, 5.0, 8)
    cube = UNIT_CUBE.support.points
    prism = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]]
    cubes = [ExpSum(cube, rng.uniform(0.2, 5.0, 8)) for _ in range(2)]
    return cubes + [ExpSum(prism, rng.uniform(0.2, 5.0, 6)) for _ in range(2)]


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

    @pytest.mark.parametrize(
        "E, ref",
        [
            (kostlan(3, 1), math.pi / 8.0),
            (ExpSum([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]), 0.125),
            (_image(kostlan(3, 1), SHEAR3), math.pi / 8.0),
            (_image(kostlan(3, 1), *_random_affine3(11)), math.pi / 8.0),
            (kostlan(3, 2), math.pi * 2.0**1.5 / 8.0),
            (_image(kostlan(3, 2), SHEAR3), math.pi * 2.0**1.5 / 8.0),
            (_image(kostlan(3, 2), *_random_affine3(11)), math.pi * 2.0**1.5 / 8.0),
        ],
        ids=["kostlan(3,1)", "simplex(3,1)", "sheared kostlan(3,1)", "affine kostlan(3,1)", "kostlan(3,2)",
             "sheared kostlan(3,2)", "affine kostlan(3,2)"],
    )
    def test_three_variable_closed_forms(self, E, ref):
        # The vertex cells esol_total takes over P: 64 seed cells on the
        # cubes, 128 on the tetrahedron.
        _check_closed_form(E, ref, STRICT)
        _check_against_native(E, STRICT)

    @pytest.mark.parametrize("tol", [1e-5, 1e-7])
    @pytest.mark.parametrize("E", _weighted_3d(), ids=["cube 2", "cube 3", "prism 1", "prism 2"])
    def test_weighted_cubes_and_prisms_agree_with_native_route(self, E, tol):
        # No facet-log start: esol_total integrates these over R^3, in 8 to
        # 26 times the moment route's cells at 1e-7.  The slowest, cube 3 at
        # 1e-7, took 0.55-0.98 s alone on 2 CPUs, so the bound is the 2 s a
        # solve may take.
        q = Quadrature(abs_tol=tol, rel_tol=tol)
        start = time.perf_counter()
        b = esol_pspace(E, q)
        assert time.perf_counter() - start < 2.0
        a = esol_total(E, q)
        assert _within_budget(b, q)
        assert abs(a.value - b.value) <= a.error + b.error

    def test_four_variables_unsupported(self, monkeypatch):
        # A flat support in R^4 is refused like a full-dimensional one, as
        # bkk_total refuses both, before any cell is integrated.
        monkeypatch.setattr(integrate, "_adaptive", _unreachable)
        for E in (ExpSum(np.vstack([np.zeros(4), np.eye(4)])), ExpSum(FLAT[4])):
            with pytest.raises(InputError, match="three variables"):
                esol_pspace(E)

    def test_degenerate_support_is_zero(self):
        assert esol_pspace(ExpSum([[2.0]])).value == 0.0


def _facet_start_images():
    """(name, E, ref): closed forms with a facet-log start, each as built,
    reweighted (alpha_a e^<a, c>, a shift of x) and as a seeded affine
    image of the reweighting; the count is the same for all three."""
    rng = np.random.default_rng(40)
    bases = [
        ("two-term", ExpSum([[0.0], [1.3]], [0.6, 2.0]), 0.5),
        *[(f"kostlan(1,{d})", kostlan(1, d), math.sqrt(d) / 2.0) for d in (2, 3, 5)],
        *[(f"kostlan(2,{d})", kostlan(2, d), math.pi * d / 8.0) for d in (1, 2, 3)],
        ("simplex(2,1)", TRIANGLE, 0.25),
        ("simplex(2,2)", SIMPLEX_2_2, 0.5),
    ]
    cases = []
    for name, E, ref in bases:
        points = E.support.points
        moved = ExpSum(points, E.coeffs * np.exp(points @ rng.uniform(-0.5, 0.5, E.dim)))
        L, b = (([[rng.uniform(0.6, 1.6)]], rng.uniform(-1.0, 1.0, 1)) if E.dim == 1
                else _random_affine2(int(rng.integers(1000))))
        cases += [(name, E, ref), (f"reweighted {name}", moved, ref),
                  (f"affine {name}", _image(moved, L, b), ref)]
    return cases


FACET_START_IMAGES = _facet_start_images()
TIGHT = Quadrature(abs_tol=1e-10, rel_tol=1e-10)


class TestOverThePolytope:
    """esol_total and bkk_total of a sum in one or two variables with a
    facet-log start integrate over P, through the facet-log map x_hat, in
    place of the region over R^m."""

    @pytest.mark.parametrize("name, E, ref", FACET_START_IMAGES, ids=[c[0] for c in FACET_START_IMAGES])
    def test_closed_forms_in_one_integrand_call(self, name, E, ref):
        # x_hat is the inverse moment map here: the integrand is smooth on
        # every cell and the seed cells (8, 48 or 64) meet 1e-10 at once.
        assert E._facet_start is not None
        r = esol_total(E, TIGHT)
        assert r.route == "x" and r.nodes == r.cells * (13 if E.dim == 1 else 89)
        assert abs(r.value - ref) <= 1e-12 and _within_budget(r, TIGHT)

    @pytest.mark.parametrize("name, E, ref", FACET_START_IMAGES, ids=[c[0] for c in FACET_START_IMAGES])
    def test_bkk_total_is_n_factorial_volume(self, name, E, ref):
        # |det Dx_hat| is 1/det(2g) at the inverse moment map: the
        # integrand is the constant m!/2^m on P, up to rounding.
        C = ComplexExpSum(E.support.points, E.coeffs)
        r = bkk_total(C, TIGHT)
        assert r.route == "bkk" and r.nodes == r.cells * (13 if E.dim == 1 else 89)
        assert abs(r.value - n_factorial_volume(C)) <= 1e-12 * n_factorial_volume(C)

    def test_near_closed_forms_agree_with_the_other_routes(self):
        # Weights times e^(eps xi): x_hat is no longer the inverse moment
        # map, but it is still a change of variables.  The x route runs on
        # a copy of the sum with no facet-log start.  esol_pspace's claimed
        # error leaves out its inversion residual, INVERT_TOL / d relative
        # near a facet: on a reweighted kostlan(1, 2) it lies 2.4e-13 below
        # both other routes and claims 6.0e-14, hence the 1e-12 allowance.
        rng = np.random.default_rng(41)
        kept = 0
        for _, E0, _ in FACET_START_IMAGES[::3]:
            for eps in (1e-3, 1e-2):
                E = ExpSum(E0.support.points, E0.coeffs * np.exp(eps * rng.normal(size=E0.n_terms)))
                if E._facet_start is None:
                    continue
                kept += 1
                x_route = ExpSum(E.support.points, E.coeffs)
                vars(x_route)["_facet_start"] = None
                r, x, p = esol_total(E, TIGHT), esol_total(x_route, TIGHT), esol_pspace(E, TIGHT)
                assert r.nodes == r.cells * (13 if E.dim == 1 else 89)
                assert abs(r.value - x.value) <= r.error + x.error
                assert abs(r.value - p.value) <= r.error + p.error + 1e-12
        assert kept >= 10

    @pytest.mark.parametrize("past", [0.0, 1e-12], ids=["on", "past"])
    def test_node_on_or_past_a_facet_raises_with_partial_value(self, monkeypatch, past, empty_support_table):
        # One seed node moved onto the midpoint of an edge, or just past it,
        # where the facet-log map has no value: the integrand is NaN there,
        # not the density at the balancing point that the Newton start takes
        # (past the edge, that times a finite, negative det Dx_hat).  The
        # table starts empty, so the chart's support part, seed pass
        # included, is built from the moved cells.
        E = kostlan(2, 1)
        edge = 0.5 * (E.support.vertices[0] + E.support.vertices[1]) - E._c
        edge *= 1.0 + past / np.linalg.norm(edge)  # the square is centred: outward
        vertex_cells = integrate._vertex_cells

        def moved(E):
            cell_map, seeds = vertex_cells(E)

            def on_facet(U):
                Q, jac = cell_map(U)
                Q[:, 0] = edge
                return Q, jac

            return on_facet, seeds

        monkeypatch.setattr(integrate, "_vertex_cells", moved)
        with pytest.raises(ConvergenceError, match="not finite on 1 of 64") as info:
            esol_total(E)
        assert 0.9 * math.pi / 8.0 < info.value.value < math.pi / 8.0


#: Simple polytopes in R^3, each vertex on three facets, as unit-weight sums.
SIMPLE_3D = {
    "cube": ExpSum(kostlan(3, 1).support.points),
    "tetrahedron": ExpSum([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    "sheared parallelepiped": ExpSum(kostlan(3, 1).support.points @ np.array(SHEAR3).T),
    "triangular prism": ExpSum([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]]),
}


def _seed_nodes(seeds):
    """The Genz-Malik nodes of every seed cell, coordinate-major (3, N)."""
    nodes = _genz_malik_rule(3)[0]
    los, his = seeds
    return (0.5 * (los + his)[:, None, :] + 0.5 * (his - los)[:, None, :] * nodes).reshape(-1, 3).T


class TestVertexCells:
    """One trilinear cube per vertex of a simple P in three variables."""

    @pytest.mark.parametrize("name", SIMPLE_3D)
    def test_cells_tile_the_polytope(self, name):
        # Before the sine grading a cell's Jacobian is a polynomial of degree
        # 2 per axis, which 3-point Gauss-Legendre integrates exactly.
        E = SIMPLE_3D[name]
        cell_map, seeds = integrate._vertex_cells(E)
        n = len(E.support.vertices)
        assert len(seeds[0]) == 8 * n
        nodes, weights = np.polynomial.legendre.leggauss(3)
        a = np.array(list(itertools.product(0.5 * (nodes + 1.0), repeat=3))).T
        w = np.prod(list(itertools.product(0.5 * weights, repeat=3)), axis=1)
        u = np.arcsin(a) / (0.5 * np.pi)
        grading = np.prod(0.5 * np.pi * np.cos(0.5 * np.pi * u), axis=0)
        volume = sum(w @ (cell_map(u + np.eye(3)[:, :1] * i)[1] / grading) for i in range(n))
        assert abs(volume - hull_volume(E.support)) <= 1e-12 * hull_volume(E.support)

    @pytest.mark.parametrize("name", SIMPLE_3D)
    def test_seed_pass_sums_to_the_volume(self, monkeypatch, name):
        # The seed pass's own nodes, whose terms come from the cache: the
        # Genz-Malik sum of the cells' Jacobian is the volume of P within
        # the rule's own error estimate (2.7e-6 relative on the tetrahedron's
        # 32 cells), and the same bits as with the terms computed.
        E = SIMPLE_3D[name]
        apply = _cell_rule(3)[2]
        cell_map, (los, his) = integrate._vertex_cells(E)
        values, errors, _ = apply(lambda U: cell_map(U)[1], los, his)
        assert math.fsum(values) == pytest.approx(hull_volume(E.support), abs=2.0 * math.fsum(errors))
        monkeypatch.setattr(integrate, "_seed_terms", lambda n, m: None)
        cell_map, _ = integrate._vertex_cells(E)
        np.testing.assert_array_equal(apply(lambda U: cell_map(U)[1], los, his)[0], values)

    @pytest.mark.parametrize("name", SIMPLE_3D)
    def test_face_at_one_lies_on_a_facet_of_its_vertex(self, name):
        # Axis b at 1 (just below the next whole number, where sin rounds to
        # 1) is one facet for every node of the face, a different one per axis.
        E = SIMPLE_3D[name]
        cell_map, _ = integrate._vertex_cells(E)
        rows = E.support._hull[1]
        tol = 1e-14 * (1.0 + diameter(E.support))
        grid = np.array(list(itertools.product(np.linspace(0.05, 0.95, 5), repeat=2))).T
        for i in range(len(E.support.vertices)):
            on = []
            for b in range(3):
                U = np.insert(grid, b, np.nextafter(1.0, 0.0), axis=0)
                U[0] = np.nextafter(i + 1.0, 0.0) if b == 0 else U[0] + i
                Q = cell_map(U)[0]
                slack = np.abs(rows[:, :-1] @ Q + rows[:, -1:]).max(axis=1)
                assert np.count_nonzero(slack <= tol) == 1
                on.append(int(slack.argmin()))
            assert len(set(on)) == 3

    @pytest.mark.parametrize("name", SIMPLE_3D)
    def test_jacobian_is_positive_and_matches_differences_at_the_seed_nodes(self, name):
        # Central differences of the cell map give a determinant of one sign
        # per cell, which the chart's Jacobian matches in size: at the seed
        # pass's own nodes, whose terms the cache holds, and at nodes nudged
        # off them, whose terms are computed.
        E = SIMPLE_3D[name]
        cell_map, seeds = integrate._vertex_cells(E)
        np.testing.assert_array_equal(_seed_nodes(seeds), integrate._seed_terms(len(E.support.vertices), 3)[0])
        for nudge in (0.0, 1e-9):
            U = _seed_nodes(seeds) + nudge
            _, jac = cell_map(U)
            assert jac.min() > 0.0
            h = 1e-6
            columns = [(cell_map(U + h * e[:, None])[0] - cell_map(U - h * e[:, None])[0]) / (2.0 * h)
                       for e in np.eye(3)]
            det = np.linalg.det(np.stack(columns, axis=-1).transpose(1, 0, 2))
            np.testing.assert_allclose(np.abs(det), jac, rtol=1e-6)
            per_cell = np.sign(det).reshape(len(seeds[0]), -1)
            assert (per_cell == per_cell[:, :1]).all()

    @pytest.mark.parametrize("name", SIMPLE_3D)
    def test_closed_forms_take_the_chart(self, name):
        E = SIMPLE_3D[name]
        assert E._facet_start is not None
        assert integrate._over_rm(E)[2] is False

    @pytest.mark.parametrize("E, ref", [(OCTAHEDRON, OCTAHEDRON_COUNT), (SQUARE_PYRAMID, SQUARE_PYRAMID_COUNT)],
                             ids=["octahedron", "square pyramid"])
    def test_polytopes_that_are_not_simple_keep_the_region_over_r3(self, E, ref):
        assert E.support._vertex_corners is None
        assert integrate._over_rm(E)[2] is True
        q = Quadrature(abs_tol=1e-6, rel_tol=1e-6)
        r = esol_total(E, q)
        assert r.value == pytest.approx(ref, abs=1e-6) and _within_budget(r, q)

    def test_a_point_on_two_edges_off_the_vertex_takes_the_chart(self):
        # A point 2e-9 from the 1e-4 rad tip of a triangle lies within the
        # on-face rule of both edges there, as the tip does.  The tip, the
        # nearer of the two to those edges, is the vertex in either order,
        # so the count of 1/4 lands on the chart.  The moment route's
        # inversion fails on nodes next to the tip (ROADMAP item 19), so it
        # raises with its partial value.
        tip = [[0, 0], [1, 0], [1, 1e-4], [2e-9, 1e-13]]
        for points in (tip, tip[3:] + tip[:3]):
            E = ExpSum(points)
            assert E.support._vertex_corners is not None and integrate._over_rm(E)[2] is False
            for tol in (1e-4, 1e-7):
                q = Quadrature(abs_tol=tol, rel_tol=tol)
                r = esol_total(E, q)
                assert abs(r.value - 0.25) <= r.error and _within_budget(r, q) and r.cells <= 48
                with pytest.raises(ConvergenceError) as info:
                    esol_pspace(E, q)
                assert info.value.value is not None

    @pytest.mark.parametrize("E", [OCTAHEDRON, SQUARE_PYRAMID], ids=["octahedron", "square pyramid"])
    def test_the_moment_route_refuses_polytopes_that_are_not_simple(self, E, monkeypatch):
        monkeypatch.setattr(integrate, "_adaptive", _unreachable)
        with pytest.raises(InputError, match="no vertex cells"):
            esol_pspace(E)

    def test_corners_are_cached_read_only(self):
        A = SIMPLE_3D["cube"].support
        corners = A._vertex_corners
        assert A._vertex_corners is corners and corners.shape == (8, 2, 2, 2, 3)
        assert not corners.flags.writeable


#: Closed forms whose solves converge on their seed pass, one per shape of it.
SEED_PASS_SUMS = {
    "kostlan(1,3)": kostlan(1, 3),
    "kostlan(2,2)": kostlan(2, 2),
    "simplex(2,1)": TRIANGLE,
    "kostlan(3,1)": kostlan(3, 1),
}


class TestSeedPassTerms:
    """The seed pass's cell index, sines and sine-map Jacobian, kept once
    per vertex count and dimension (``integrate._seed_terms``)."""

    @pytest.mark.parametrize("route", [esol_total, esol_pspace], ids=["x", "p"])
    @pytest.mark.parametrize("name", SEED_PASS_SUMS)
    def test_cold_warm_and_computed_terms_give_one_result(self, monkeypatch, name, route, empty_support_table):
        # A solve that builds the entry, one on an equal fresh sum that reads
        # it, and one with every term computed give the same bits, and the
        # warm solve computes the terms of every pass but the seed pass.
        # The table starts empty, so the cold solve builds the support's
        # chart terms too, and the computed solve runs on a support of its
        # own, which keeps none.
        E = SEED_PASS_SUMS[name]
        calls = []
        sine_terms = integrate._sine_terms
        monkeypatch.setattr(integrate, "_sine_terms", lambda U: calls.append(U.shape) or sine_terms(U))
        integrate._seed_terms.cache_clear()
        cold = route(ExpSum(E.support.points, E.coeffs))
        assert integrate._seed_terms.cache_info().currsize == 1
        del calls[:]
        warm = route(ExpSum(E.support.points, E.coeffs))
        assert integrate._seed_terms.cache_info().hits >= 1
        warm_calls = len(calls)
        monkeypatch.setattr(integrate, "_seed_terms", lambda n, m: None)
        computed = route(ExpSum(SupportSet(E.support.points), E.coeffs))
        assert len(calls) == 2 * warm_calls + 1
        assert dataclasses.astuple(cold) == dataclasses.astuple(warm) == dataclasses.astuple(computed)

    def test_nodes_off_the_seed_pass_take_computed_terms(self, monkeypatch):
        E = kostlan(2, 2)
        cell_map, _ = integrate._vertex_cells(E)
        U = np.array(integrate._seed_terms(4, 2)[0])
        Q, jac = cell_map(U)
        calls = []
        sine_terms = integrate._sine_terms
        monkeypatch.setattr(integrate, "_sine_terms", lambda U: calls.append(U.shape) or sine_terms(U))
        cell_map(U.copy())
        assert calls == []
        # A part of the pass, and the pass with one node moved: every other
        # node keeps its bits, the moved one moves.
        part = cell_map(U[:, :100])
        U[1, 5] += 1e-6
        moved = cell_map(U)
        assert calls == [(2, 100), U.shape]
        np.testing.assert_array_equal(part[0], Q[:, :100])
        np.testing.assert_array_equal(part[1], jac[:100])
        others = np.arange(U.shape[1]) != 5
        np.testing.assert_array_equal(moved[0][:, others], Q[:, others])
        np.testing.assert_array_equal(moved[1][others], jac[others])
        assert (moved[0][:, 5] != Q[:, 5]).any() and moved[1][5] != jac[5]

    def test_cache_stays_within_its_bound(self):
        # Regular polygons of 3 to 30 vertices and every (n, m) up to 40
        # vertices: at most 8 entries, each of 16 (m + 1) bytes a node and
        # at most 2 MiB; a pass of more than 2^15 nodes is not kept.
        integrate._seed_terms.cache_clear()
        for n in range(3, 31):
            t = 2.0 * math.pi * np.arange(n) / n
            integrate._vertex_cells(ExpSum(np.stack([np.cos(t), np.sin(t)], axis=1)))
            assert integrate._seed_terms.cache_info().currsize <= 8
        for n, m in itertools.product(range(2, 41), (1, 2, 3)):
            entry = integrate._seed_terms(n, m)
            nodes = len(integrate._vertex_seeds(n, m)[0]) * _cell_rule(m)[0]
            if nodes > 2**15:
                assert entry is None
            else:
                assert sum(a.nbytes for a in entry) == 16 * (m + 1) * nodes <= 2 * 2**20
                assert not any(a.flags.writeable for a in entry)
            assert integrate._seed_terms.cache_info().currsize <= 8
        assert integrate._seed_terms.cache_info().maxsize == 8
        assert integrate._seed_terms(23, 2) is not None and integrate._seed_terms(24, 2) is None

    def test_vertex_seeds_stay_within_their_bound(self):
        # Polygons of 3 to 40 vertices leave at most 8 seed entries, and the
        # area over the vertex cells is the same on seeds rebuilt after
        # eviction (n = 3, 4) as on seeds read from the cache (n = 39, 40).
        def area(n):
            t = 2.0 * math.pi * np.arange(n) / n
            E = ExpSum(np.stack([np.cos(t), np.sin(t)], axis=1))
            region = lambda E: (*integrate._vertex_cells(E), False)
            return integrate._integral(E, STRICT, "p", lambda Q: np.ones(Q.shape[1]), region)

        integrate._vertex_seeds.cache_clear()
        first = {}
        for n in range(3, 41):
            first[n] = area(n)
            assert first[n].value == pytest.approx(0.5 * n * math.sin(2.0 * math.pi / n), rel=1e-7)
            assert integrate._vertex_seeds.cache_info().currsize <= 8
        assert integrate._vertex_seeds.cache_info().maxsize == 8
        misses = integrate._vertex_seeds.cache_info().misses
        assert [area(n) for n in (3, 4, 39, 40)] == [first[n] for n in (3, 4, 39, 40)]
        assert integrate._vertex_seeds.cache_info().misses == misses + 2


class TestFrame:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_frame_chart_and_the_x_route_integrand(self, m, monkeypatch):
        # The region over R^m is a chart: nodes x0 + W y, x0 the preimage of
        # the barycenter and W^T g(x0) W = I, with Jacobian |det W|.  Both
        # integrands read E's own density at those nodes times it.  Nodes
        # reach 16 frame units, four times the cube's half-width.
        rng = np.random.default_rng(41 + m)
        E = ComplexExpSum(rng.normal(size=(7, m)), rng.uniform(0.3, 3.0, size=7))
        chart = integrate._frame(E)
        x0, W, jac = chart.args
        assert x0[:, 0].tobytes() == invert_moment(E, E.support.points.mean(axis=0)).tobytes()
        np.testing.assert_allclose(W.T @ evaluate(E, x0[:, 0]).g.entries @ W, np.eye(m), rtol=0.0, atol=1e-13)
        assert jac == pytest.approx(abs(np.linalg.det(W)), rel=1e-14)
        Y = np.random.default_rng(7).uniform(-1.0, 1.0, size=(400, m))
        Y = np.ascontiguousarray((Y * np.repeat([1.0, 4.0, 8.0, 16.0], 100)[:, None]).T)
        X = x0 + W @ Y
        nodes, got_jac = chart(Y)
        assert nodes.tobytes() == X.tobytes() and got_jac == jac

        integrands = []

        def captured(f, los, his, abs_tol, rel_tol, grow=False):
            assert grow  # no facet-log start: the cube and shells of the frame
            integrands.append(f)
            return 0.0, 0.0, 0, 0

        monkeypatch.setattr(integrate, "_adaptive", captured)
        esol_total(E)
        bkk_total(E)
        want = density_many(E, X.T) * jac
        assert want.min() > 1e-100
        assert integrands[0](Y).tobytes() == want.tobytes()
        want = (2.0 * math.pi) ** m * complexcase._bkk_density_many(E, X) * jac
        assert integrands[1](Y).tobytes() == want.tobytes()

    def test_four_variables_integrate_over_the_frame(self):
        # No vertex cells in four variables: the frame over R^4 is the only
        # route.  kostlan(4, 1) is the fourth tensor power of the two-term
        # sum, whose sqrt(g) integrates to pi/2, so its count is
        # (2/s_4) (pi/2)^4 = 3 pi^2 / 64, with s_4 = 8 pi^2 / 3.
        start = time.perf_counter()
        r = esol_total(kostlan(4, 1), Quadrature(abs_tol=1e-3, rel_tol=1e-3))
        assert r.route == "x"
        assert abs(r.value - 3.0 * math.pi**2 / 64.0) <= r.error
        assert time.perf_counter() - start < 4.0


#: Weights for the pentagon, and a shift that keeps every point, the
#: barycenter (1, 1) and its translate exactly representable.
PENTAGON_WEIGHTS = [1.0, 0.5, 2.0, 1.5, 0.75]
SHIFT = np.array([2.0**26, -3.0 * 2.0**24])


class TestTranslation:
    """Translating the support by b multiplies every realization of E by
    e^<b, x> > 0, so densities, counts, preimages and Psi stay where they
    are.  The kernels work about the barycenter, so a translate by an
    exactly representable b gives the same results bit for bit, cells
    included; on raw points they drifted by about eps |b| |x|."""

    @pytest.mark.parametrize("entry", [esol_total, esol_pspace, bkk_total])
    def test_integrals(self, entry):
        # The sheared kostlan(2, 2) and kostlan(3, 1) have a facet-log start,
        # so esol_total and bkk_total integrate them over P; the pentagon has
        # none.  The shears and shifts are dyadic, so the points shift exactly.
        cls, q = ComplexExpSum if entry is bkk_total else ExpSum, Quadrature(abs_tol=1e-6, rel_tol=1e-6)
        sheared = kostlan(2, 2).support.points @ np.array([[1.0, 0.5], [0.25, 1.0]])
        sheared3 = kostlan(3, 1).support.points @ np.array([[1.0, 0.5, -0.25], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
        cases = [(PENTAGON.support.points, PENTAGON_WEIGHTS, SHIFT), (sheared, kostlan(2, 2).coeffs, SHIFT),
                 (sheared3, kostlan(3, 1).coeffs, np.append(SHIFT, 2.0**25))]
        for points, weights, shift in cases:
            E = cls(points, weights)
            assert (E._facet_start is None) == (points is PENTAGON.support.points)
            assert entry(cls(points + shift, weights), q) == entry(E, q)

    def test_densities_preimages_and_psi(self):
        points, weights = PENTAGON.support.points, PENTAGON_WEIGHTS
        E, F = ExpSum(points, weights), ExpSum(points + SHIFT, weights)
        X = np.random.default_rng(30).normal(0.0, 2.0, size=(200, 2))
        assert density_many(F, X).tobytes() == density_many(E, X).tobytes()
        for p in ([1.25, 0.75], [0.5, 0.25], [2.0, 1.5], [0.0, 1.0]):
            assert invert_moment(F, p + SHIFT).tobytes() == invert_moment(E, p).tobytes()
        for a0 in ([1.0, 1.25], [4.0, -1.0]):
            got = region_scan(F, Augmentation(a0 + SHIFT), resolution=16, space="x")
            want = region_scan(E, Augmentation(a0), resolution=16, space="x")
            assert got.psi.tobytes() == want.psi.tobytes()
            np.testing.assert_array_equal(got.classes, want.classes)

    def test_facet_log_start_preimages_and_p_scan(self):
        # kostlan(2, 2) sheared has a facet-log start; its hull and facet
        # table are taken about the barycenter, so the translate gets the
        # same normals and gaps.  The targets and the 17 x 17 grid's nodes
        # are dyadic, so they shift exactly.
        E0 = kostlan(2, 2)
        points = E0.support.points @ np.array([[1.0, 0.5], [0.25, 1.0]])
        E, F = ExpSum(points, E0.coeffs), ExpSum(points + SHIFT, E0.coeffs)
        assert E._facet_start is not None
        for got, want in zip(F._facet_start, E._facet_start):
            assert got.tobytes() == want.tobytes()
        rng = np.random.default_rng(31)
        targets = np.round(rng.dirichlet(np.ones(9), size=40) @ points * 64) / 64
        for p in targets:
            assert invert_moment(F, p + SHIFT).tobytes() == invert_moment(E, p).tobytes()
        for a0 in ([1.0, 1.25], [4.0, -1.0]):
            got = region_scan(F, Augmentation(a0 + SHIFT), resolution=17)
            want = region_scan(E, Augmentation(a0), resolution=17)
            assert got.psi.tobytes() == want.psi.tobytes()
            np.testing.assert_array_equal(got.classes, want.classes)

    def test_exposed_faces_and_their_limits(self):
        # The top edge is 2^-20 off level: one point in direction (0, 1) on
        # both sides.  The face tolerance once scaled with max |a|, so the
        # translate's face held both top points and its limiting moment,
        # minus the shift, read (0.027, 0.99999997).
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0 - 2.0**-20]])
        E, F = ExpSum(points), ExpSum(points + SHIFT)
        assert len(exposed_face(F.support, [0.0, 1.0])) == 1
        for u in ([0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [-1.0, -1.0], [0.0, -1.0], [1.0, -3.0]):
            want = exposed_face(E.support, u).points
            assert (exposed_face(F.support, u).points - SHIFT).tobytes() == want.tobytes()
            assert (asymptotic_moment(F, u) - SHIFT).tobytes() == asymptotic_moment(E, u).tobytes()
            for y in ([0.0, 0.0], [0.5, -2.0]):
                got, want = face_metric_limit(F, u, y), face_metric_limit(E, u, y)
                assert got.entries.tobytes() == want.entries.tobytes()

    def test_hull_rows_gaps_and_interior_answers(self):
        sheared = kostlan(2, 2).support.points @ np.array([[1.0, 0.5], [0.25, 1.0]])
        rng = np.random.default_rng(32)
        for points in (sheared, PENTAGON.support.points):
            A, B = ExpSum(points).support, ExpSum(points + SHIFT).support
            for got, want in zip(B._hull[1:3], A._hull[1:3]):
                assert got.tobytes() == want.tobytes()
            # A dyadic grid over and around the hull, with nodes on its
            # edges and vertices, shifts exactly.
            P = np.round(rng.uniform(-1.0, 4.0, size=(2000, 2)) * 8) / 8
            for tol in (1e-12, 1e-6 * diameter(A)):
                want = _interior_mask(A, P, tol)
                assert want.any() and not want.all()
                np.testing.assert_array_equal(_interior_mask(B, P + SHIFT, tol), want)

    def test_flat_support_stays_flat(self):
        # Collinear integer points: the differences a_i - a_0 shift
        # exactly, while the centred points carry the barycenter's rounding
        # (7e-9 apart between the two shifted columns), which a rank test
        # on them reads as a second dimension.
        points = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]])
        for E in (ExpSum(points), ExpSum(points + SHIFT)):
            assert E.support.degenerate and E.support._hull is None
            assert hull_volume(E.support) == 0.0
            assert esol_total(E).value == 0.0
            assert bkk_total(ComplexExpSum(E.support.points)).value == 0.0

    def test_close_support_points_stay_distinct(self):
        # The coincidence tolerance scales with the spread about the
        # barycenter; scaled with max |a|, the translate's was 0.067, and
        # it refused these two points 0.05 apart as one.
        points = np.array([[0.0, 0.0], [0.05, 0.0], [0.0, 1.0]])
        A, B = SupportSet(points), SupportSet(points + SHIFT)
        assert len(B) == len(A) == 3
        assert SupportSet.dedup_tolerance(B.points) == pytest.approx(SupportSet.dedup_tolerance(A.points), rel=1e-6)

    def test_close_added_exponent_stays_distinct(self):
        # a0 0.02 from the vertex (1, 1): against a tolerance scaled with
        # max |a|, 0.067 on the translate, it was refused as that vertex.
        E = kostlan(2, 1)
        F = ExpSum(E.support.points + SHIFT, E.coeffs)
        a0 = np.array([1.0, 1.02])
        assert augment(F, Augmentation(a0 + SHIFT)).n_terms == augment(E, Augmentation(a0)).n_terms == 5

    def test_two_term_far_from_the_origin(self):
        # 140 cells against 76 when the kernels read the raw points.
        q = Quadrature(abs_tol=1e-10, rel_tol=1e-10)
        assert esol_total(ExpSum([[1e8], [1e8 + 1.0]]), q) == esol_total(TWO_TERM, q)


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

    def test_region_that_keeps_growing_raises_with_its_tail(self, monkeypatch):
        # Exponents 1e-4 apart spread part of the count out to |x| of order
        # 1e4, so after one shell doubling the tail shell still exceeds the
        # error.
        monkeypatch.setattr(integrate, "MAX_DOUBLINGS", 1)
        with pytest.raises(ConvergenceError, match="region over R\\^m kept growing") as info:
            esol_total(ExpSum([[0.0], [1e-4], [1.0], [1.0001]]))
        assert info.value.value == pytest.approx(0.50018, abs=1e-5)
        assert info.value.residual == pytest.approx(3.95e-4, rel=1e-2)

    def test_failed_frame_raises_with_its_residual(self, monkeypatch):
        # No Newton step at all: the frame stays at the start its row took.
        # This sum has no facet-log predictor, so that is the balancing
        # point, whose moment is not the barycenter 4/3 of these weights.
        E = ExpSum([[0.0], [1.0], [3.0]], [1.0, 2.0, 1.0])
        monkeypatch.setattr(expsum, "INVERT_MAX_ITER", 0)
        assert E._facet_start is None
        want = abs(float(batch_moments(E, E._newton_start[0][None])[2][0, 0]) - E._c[0])
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
