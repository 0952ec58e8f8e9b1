"""Tests for support sets, convex data, and quadratic forms."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from sparse_kacrice import (
    ExpSum,
    InputError,
    QuadForm,
    SingularFormError,
    SupportSet,
    ball_sphere_constants,
    density,
    diameter,
    dual_form,
    ellipsoid_volume,
    esol_total,
    exposed_face,
    form_det,
    hull_volume,
    interior_contains,
    kostlan,
    support_function,
)
from sparse_kacrice.expsum import _batch_moments
from sparse_kacrice.geometry import (
    DET_FLOOR,
    DUAL_COND_LIMIT,
    _check_box,
    _cholesky_solve,
    _grid,
    _interior_mask,
)

SQUARE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]


class TestSupportSet:
    def test_basic_attributes(self):
        A = SupportSet([[0.0], [0.5], [1.7]])
        assert A.dim == 1
        assert len(np.asarray(A.points)) == 3

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            SupportSet([[0.0], [1.0], [1.0 + 1e-15]])

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            SupportSet([[0.0], [math.inf]])
        with pytest.raises(InputError):
            SupportSet([[0.0], [math.nan]])

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            SupportSet(np.zeros((0, 1)))


class TestSupportFunction:
    def test_interval(self):
        A = SupportSet([[0.0], [0.3], [1.0]])
        assert support_function(A, [1.0]) == 1.0
        assert support_function(A, [-1.0]) == 0.0
        assert support_function(A, [2.0]) == 2.0

    def test_square_diagonal(self):
        A = SupportSet(SQUARE)
        assert support_function(A, [1.0, 1.0]) == 2.0

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(0)
        A = SupportSet(rng.normal(size=(6, 2)))
        for _ in range(10):
            u = rng.normal(size=2)
            t = rng.uniform(0.1, 5.0)
            assert support_function(A, t * u) == pytest.approx(
                t * support_function(A, u), rel=1e-12
            )


class TestExposedFace:
    def test_vertex_face(self):
        A = SupportSet([[0.0], [0.3], [1.0]])
        F = exposed_face(A, [1.0])
        assert np.asarray(F.points).tolist() == [[1.0]]

    def test_edge_face(self):
        A = SupportSet(SQUARE)
        F = exposed_face(A, [0.0, 1.0])
        pts = sorted(np.asarray(F.points).tolist())
        assert pts == [[0.0, 1.0], [1.0, 1.0]]

    def test_face_of_face_is_smaller(self):
        A = SupportSet(SQUARE)
        F = exposed_face(A, [1.0, 1.0])
        assert np.asarray(F.points).tolist() == [[1.0, 1.0]]


class TestHullGeometry:
    def test_interval_volume(self):
        assert hull_volume(SupportSet([[0.0], [0.3], [1.0]])) == pytest.approx(1.0)

    def test_square_volume(self):
        assert hull_volume(SupportSet(SQUARE)) == pytest.approx(1.0)

    def test_triangle_volume(self):
        A = SupportSet([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        assert hull_volume(A) == pytest.approx(2.0)

    def test_degenerate_volume_is_zero(self):
        A = SupportSet([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert hull_volume(A) == 0.0
        assert A.degenerate

    def test_flat_support_has_zero_density_everywhere(self):
        # The rank test calls this triangle flat; its simplex, 1.5e-12 tall,
        # once cleared the block's own 1e-12 w^m threshold and gave a
        # density of 4.6e-14 where esol_total returns 0.
        E = ExpSum([[0.0, 0.0], [1.0, 0.0], [0.5, 1.5e-12]])
        assert E.support.degenerate
        assert not E.support._simplex_form.any()
        assert density(E, [0.0, 0.0]) == 0.0
        assert esol_total(E).value == 0.0

    def test_diameter(self):
        assert diameter(SupportSet(SQUARE)) == pytest.approx(math.sqrt(2.0))

    def test_interior_contains(self):
        A = SupportSet(SQUARE)
        assert interior_contains(A, [0.5, 0.5], 1e-9)
        assert not interior_contains(A, [1.0, 0.5], 1e-9)
        assert not interior_contains(A, [1.5, 0.5], 1e-9)

    def test_interior_margin_is_respected(self):
        A = SupportSet([[0.0], [1.0]])
        assert interior_contains(A, [0.05], 1e-3)
        assert not interior_contains(A, [0.05], 0.1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_cached_facet_mask_matches_scalar_test(self, m):
        rng = np.random.default_rng(40 + m)
        A = SupportSet(rng.uniform(-1.0, 2.0, size=(m + 5, m)))
        rows = A.facets
        assert rows is A.facets and not rows.flags.writeable
        # Points spread over and around the hull, plus points within 1e-9 of
        # each facet on either side: random convex combinations of the
        # facet's vertices, shifted along its normal.
        points = [rng.uniform(-1.5, 2.5, size=(300, m))]
        for row in rows:
            on_facet = A.points[np.abs(A.points @ row[:-1] + row[-1]) < 1e-9]
            bary = rng.dirichlet(np.ones(len(on_facet)), size=20)
            shift = rng.uniform(-1e-9, 1e-9, size=(20, 1))
            points.append(bary @ on_facet + shift * row[:-1])
        P = np.vstack(points)
        lo, hi = A.points.min(axis=0), A.points.max(axis=0)
        for tol in (1e-12, 1e-6 * diameter(A)):
            mask = _interior_mask(A, P, tol)
            scalar = np.array([interior_contains(A, p, tol) for p in P])
            np.testing.assert_array_equal(mask, scalar)
            # The per-coordinate slack adds in the order of the broadcast
            # product summed over its last axis: the same answer, bit for bit.
            broadcast = (P[:, None, :] * rows[:, :-1]).sum(axis=-1) + rows[:, -1]
            np.testing.assert_array_equal(mask, np.all(broadcast <= -tol, axis=1))
            # An independent reference: a fresh hull, on decisive points.
            if m == 1:
                slack = np.hstack([lo - P, P - hi])
            else:
                eq = ConvexHull(A.points).equations
                slack = P @ eq[:, :-1].T + eq[:, -1]
            want = np.all(slack <= -tol, axis=1)
            decisive = np.all(np.abs(slack + tol) > 1e-13, axis=1)
            np.testing.assert_array_equal(mask[decisive], want[decisive])
        near = _interior_mask(A, P[300:], 1e-12)
        assert near.any() and not near.all()

    def test_vertices_run_counter_clockwise(self):
        # the pentagon's corners, shuffled, with an interior and an edge point
        pentagon = [[0, 0], [2, 0], [3, 1], [1, 3], [-1, 1]]
        A = SupportSet([[1, 3], [1, 1], [0, 0], [3, 1], [1, 0], [-1, 1], [2, 0]])
        V = A.vertices
        assert not V.flags.writeable
        assert sorted(map(tuple, V.tolist())) == sorted(map(tuple, pentagon))
        edges = np.roll(V, -1, axis=0) - V
        following = np.roll(edges, -1, axis=0)
        turns = edges[:, 0] * following[:, 1] - edges[:, 1] * following[:, 0]
        assert np.all(turns > 0)
        np.testing.assert_array_equal(SupportSet([[2.0], [-1.0], [0.5]]).vertices, [[-1.0], [2.0]])

    def test_degenerate_hull_has_no_facets(self):
        A = SupportSet([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert A.facets is None
        assert A.vertices is None
        assert not _interior_mask(A, np.array([[1.0, 1.0], [0.5, 0.5]]), 1e-12).any()


class TestBoxAndGrid:
    def test_check_box_shapes(self):
        assert _check_box((-1, 2), 1) == ((-1.0, 2.0),)
        assert _check_box(np.array([[0, 1], [2, 3.5]]), 2) == ((0.0, 1.0), (2.0, 3.5))
        with pytest.raises(InputError):
            _check_box((-1, 2), 2)

    def test_grid_is_row_major_with_ends(self):
        resolution, axes, nodes = _grid(((0.0, 1.0), (-2.0, 2.0)), (2, 3))
        assert resolution == (2, 3)
        np.testing.assert_array_equal(axes[1], [-2.0, 0.0, 2.0])
        np.testing.assert_array_equal(
            nodes, [[0, -2], [0, 0], [0, 2], [1, -2], [1, 0], [1, 2]])
        assert _grid(((0.0, 1.0),) * 3, 4)[2].shape == (64, 3)


class TestBallSphereConstants:
    def test_frozen_values(self):
        b1, s1 = ball_sphere_constants(1)
        b2, s2 = ball_sphere_constants(2)
        b3, s3 = ball_sphere_constants(3)
        assert b1 == pytest.approx(2.0)
        assert s1 == pytest.approx(2.0 * math.pi)
        assert b2 == pytest.approx(math.pi)
        assert s2 == pytest.approx(4.0 * math.pi)
        assert b3 == pytest.approx(4.0 * math.pi / 3.0)
        assert s3 == pytest.approx(2.0 * math.pi**2)

    def test_recursion_between_ball_and_sphere(self):
        # s_m = (m+1) b_{m+1}: the sphere bounds the one-higher ball.
        for m in range(1, 6):
            _, s_m = ball_sphere_constants(m)
            b_next, _ = ball_sphere_constants(m + 1)
            assert s_m == pytest.approx((m + 1) * b_next, rel=1e-12)


class TestQuadForm:
    def test_symmetrized_by_construction(self):
        Q = QuadForm([[1.0, 0.5], [0.4, 1.0]])
        np.testing.assert_array_equal(Q.entries, Q.entries.T)
        assert Q.entries[0, 1] == pytest.approx(0.45)

    def test_evaluate(self):
        Q = QuadForm([[2.0, 0.0], [0.0, 3.0]])
        assert Q([1.0, 1.0]) == pytest.approx(5.0)

    def test_det_and_dual(self):
        Q = QuadForm([[0.25]])
        assert form_det(Q) == pytest.approx(0.25)
        assert dual_form(Q).entries[0, 0] == pytest.approx(4.0)

    def test_dual_is_involutive(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            M = rng.normal(size=(3, 3))
            Q = QuadForm(M @ M.T + 0.5 * np.eye(3))
            back = dual_form(dual_form(Q))
            np.testing.assert_allclose(back.entries, Q.entries, rtol=1e-10)

    def test_singular_dual_raises(self):
        with pytest.raises(SingularFormError):
            dual_form(QuadForm([[1.0, 1.0], [1.0, 1.0]]))

    def test_ellipsoid_volume(self):
        # vol{x : <Q^{-1} x, x> <= 1} = b_m sqrt(det Q)
        Q = QuadForm([[4.0, 0.0], [0.0, 9.0]])
        assert ellipsoid_volume(Q) == pytest.approx(math.pi * 6.0)


def _rotation(rng, m):
    q, r = np.linalg.qr(rng.normal(size=(m, m)))
    return q * np.sign(np.diag(r))


def _lapack_cholesky_fails(G):
    """Per row: does numpy's (LAPACK) Cholesky factorization refuse it?"""
    fails = np.zeros(len(G), dtype=bool)
    for i, row in enumerate(G):
        try:
            np.linalg.cholesky(row)
        except np.linalg.LinAlgError:
            fails[i] = True
    return fails


class TestStackedCholesky:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_lapack_factor_and_solve(self, m):
        rng = np.random.default_rng(70 + m)
        A = rng.normal(size=(200, m, m))
        well = A @ np.swapaxes(A, 1, 2) + 0.1 * np.eye(m)
        # Near-singular rows (smallest eigenvalue 1e-9 or 1e-12, the others
        # 0.5 to 2), indefinite rows (-1e-9, -1e-3), an integer rank-one row
        # whose pivot is exactly 0, and a negative definite row.
        edge = []
        for small in (1e-9, 1e-12, -1e-9, -1e-3):
            for _ in range(10):
                Q = _rotation(rng, m)
                eigs = np.append(rng.uniform(0.5, 2.0, m - 1), small)
                edge.append((Q * eigs) @ Q.T)
        v = np.arange(1.0, m + 1.0)
        edge += [np.outer(v, v) if m > 1 else np.zeros((1, 1)), -np.eye(m)]
        G = np.concatenate([well, np.array(edge)])
        B = rng.normal(size=(len(G), m))
        # The step takes the stack coordinate-major: G (m, m, N), B (m, N).
        X, ok = _cholesky_solve(np.moveaxis(G, 0, -1), B.T)
        X = X.T
        np.testing.assert_array_equal(~ok, _lapack_cholesky_fails(G))
        assert ok[:200].all() and not ok.all() and ok[200:].any()
        assert np.isnan(X[~ok]).all()
        want = np.linalg.solve(well, B[:200, :, None])[..., 0]
        np.testing.assert_allclose(X[:200], want, rtol=1e-10, atol=1e-12 * np.abs(want).max())
        # On every factored row, near-singular ones included, X solves
        # G X = B to a componentwise backward error of a few eps.
        residual = np.abs(np.einsum("nij,nj->ni", G, X) - B)
        scale = np.einsum("nij,nj->ni", np.abs(G), np.abs(X)) + np.abs(B)
        assert (residual[ok] <= 2 * (m + 1) * np.finfo(float).eps * scale[ok]).all()


def _reference_gate(G, det_floor, cond_limit=DUAL_COND_LIMIT):
    """The dual-form gate written with LAPACK on every row: eigvalsh, det
    and a per-row Cholesky."""
    eigs = np.linalg.eigvalsh(G)
    flat = (np.linalg.det(G) < det_floor) | (eigs[:, 0] <= 0.0)
    flat |= eigs[:, -1] > cond_limit * eigs[:, 0]
    return flat | _lapack_cholesky_fails(G)


def _dual_forms(G):
    """(S, duals, refused) for the rows of G: the symmetrized Gram arrays
    that dual_form reads, each row's dual form or None where dual_form
    refuses it, and the refusal mask."""
    forms = [QuadForm(row) for row in G]
    duals = []
    for Q in forms:
        try:
            duals.append(dual_form(Q))
        except SingularFormError:
            duals.append(None)
    return np.array([Q.entries for Q in forms]), duals, np.array([d is None for d in duals])


def _assert_duals_invert(S, duals):
    """|Q° Q - I| <= 1e-15 cond(Q) entrywise on every accepted row of S."""
    for entries, dual in zip(S, duals):
        if dual is not None:
            eigs = np.linalg.eigvalsh(entries)
            error = np.abs(dual.entries @ entries - np.eye(len(entries))).max()
            assert error <= 1e-15 * eigs[-1] / eigs[0]


class TestDualGate:
    SUMS = [
        kostlan(2, 2),
        ExpSum([[0, 0], [2, 0], [3, 1], [1, 3], [-1, 1]]),
        ExpSum([[0, 0], [1, 0], [0, 1]], [0.3, 2.0, 1.1]),
        ExpSum([[0, 0], [1, 0.3], [0.2, 1], [1.2, 1.3]], [1.0, 0.5, 2.0, 1.0]),
        kostlan(3, 1),
        ExpSum([[0.0], [0.5], [1.7]], [1.0, 2.0, 1.0]),
    ]

    def test_mask_matches_lapack_formula_far_out(self):
        rng = np.random.default_rng(123)
        flat_rows = 0
        for E in self.SUMS:
            d = rng.normal(size=(1500, E.dim))
            X = d / np.linalg.norm(d, axis=1, keepdims=True) * rng.uniform(5, 200, (1500, 1))
            S, duals, refused = _dual_forms(_batch_moments(E, X)[3])
            np.testing.assert_array_equal(refused, _reference_gate(S, DET_FLOOR))
            flat_rows += refused.sum()
            _assert_duals_invert(S, duals)
        assert 0 < flat_rows < 1500 * len(self.SUMS)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rows_either_side_of_the_limits(self, m):
        rng = np.random.default_rng(90 + m)
        rows = []
        # Condition numbers just either side of the limit: diagonal forms,
        # whose eigenvalues eigvalsh returns exactly, and rotated ones.
        for factor in (1.0 - 1e-9, 1.0 + 1e-9, 0.99, 1.01, 0.4, 0.6):
            diag = np.ones(m)
            diag[-1] = 1.0 / (DUAL_COND_LIMIT * factor)
            if m > 1:
                rows.append(np.diag(diag))
                Q = _rotation(rng, m)
                if abs(factor - 1.0) > 1e-3:
                    rows.append((Q * diag) @ Q.T)
        # Determinants just either side of DET_FLOOR at condition number 1.
        for factor in (1.0 - 1e-6, 1.0 + 1e-6):
            scale = (DET_FLOOR * factor) ** (1.0 / m)
            rows.append(scale * np.eye(m))
            Q = _rotation(rng, m)
            rows.append(scale * (Q @ Q.T))
        S, duals, refused = _dual_forms(np.array(rows))
        want = _reference_gate(S, DET_FLOOR)
        np.testing.assert_array_equal(refused, want)
        assert want.any() and not want.all()
        _assert_duals_invert(S, duals)
