"""Tests for support sets, convex data, and quadratic forms."""

from __future__ import annotations

import itertools
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
    esol_total,
    exposed_face,
    form_det,
    hull_volume,
    interior_contains,
    kostlan,
    support_function,
)
from sparse_kacrice.geometry import (
    DET_FLOOR,
    DUAL_COND_LIMIT,
    PAIRWISE_LIMIT,
    _cauchy_binet_tables,
    _check_box,
    _cholesky_solve,
    _cone_dets,
    _face_mask,
    _grid,
    _interior_mask,
    _read_only,
    _sorted_tuples,
)
from test_expsum import batch_moments

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

    def test_refuses_a_support_over_the_pairwise_limit(self):
        # 4097 points on the line put k^2 m just past the limit: refused
        # before the (k, k, m) difference array, over 128 MiB, is built.
        assert 4096**2 == PAIRWISE_LIMIT
        with pytest.raises(InputError, match="^4097 points in R\\^1 are over the pairwise limit"):
            SupportSet(np.arange(4097.0))
        with pytest.raises(InputError, match="pairwise limit"):
            ExpSum(np.zeros((2049, 4)))

    def test_rank_in_one_variable_takes_no_svd(self, monkeypatch):
        # k >= 2 distinct points on the line have rank 1 under the SVD
        # rule's tolerance too; a fresh one-variable sum builds and solves
        # to the same bits with np.linalg.svd unavailable.
        rng = np.random.default_rng(3)
        for k in (2, 3, 5, 40):
            points = np.sort(rng.uniform(-1e3, 1e3, k))
            points[1] = points[0] + 1e-6
            diffs = (points[1:] - points[0])[:, None]
            tol = 1e-12 * np.abs(diffs).max() * max(diffs.shape)
            assert np.count_nonzero(np.linalg.svd(diffs, compute_uv=False) > tol) == 1
        E = ExpSum([[0.0], [0.5], [1.7]], [1.0, 2.0, 1.0])
        want = esol_total(E)

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        fresh = ExpSum([[0.0], [0.5], [1.7]], [1.0, 2.0, 1.0])
        assert fresh.support.affine_dim == 1 and SupportSet([[2.0]]).affine_dim == 0
        assert esol_total(fresh) == want

    def test_repr_and_iteration(self):
        A = SupportSet([[0, 1], [2, 3]])
        assert repr(A) == "SupportSet([[0.0, 1.0], [2.0, 3.0]])"
        assert [a.tolist() for a in A] == [[0.0, 1.0], [2.0, 3.0]]

    def test_equality_and_hash(self):
        A = SupportSet([[0, 1], [2, 3]])
        same = SupportSet(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert A == same and hash(A) == hash(same) and len({A, same}) == 1
        # Order, values and shape each tell sets apart.
        for other in ([[2, 3], [0, 1]], [[0, 1], [2, 4]], [[0], [1], [2], [3]]):
            assert A != SupportSet(other)
        assert A.__eq__([[0, 1], [2, 3]]) is NotImplemented and A != "A"

    def test_signed_zeros_hash_alike(self):
        # -0.0 == 0.0, so sets that differ only in the sign of a zero are
        # equal, and equal objects must hash alike: a set holds one of them.
        A = SupportSet([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        B = SupportSet([[-0.0, 1.0], [1.0, -0.0], [-0.0, -0.0]])
        assert A == B and hash(A) == hash(B) and len({A, B}) == 1
        # The points keep their own bits.
        assert np.signbit(B.points[0, 0]) and not np.signbit(A.points[0, 0])


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
            # The per-coordinate slack of the hull's rows about the
            # barycenter adds in the order of the broadcast product summed
            # over its last axis: the same answer, bit for bit.
            centred = A._hull[1]
            broadcast = ((P - A._c)[:, None, :] * centred[:, :-1]).sum(axis=-1) + centred[:, -1]
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
        assert A.facets is None and A._hull is None
        assert A.vertices is None
        assert not _interior_mask(A, np.array([[1.0, 1.0], [0.5, 0.5]]), 1e-12).any()

    def test_coplanar_triangles_are_one_facet(self):
        # Qhull gives the unit cube 12 triangles; each square face is one row.
        cube = SupportSet(list(itertools.product([0.0, 1.0], repeat=3)))
        rows, gaps = cube._hull[1:3]
        assert len(ConvexHull(cube.points - cube.points.mean(axis=0)).equations) == 12
        assert rows.shape == (6, 4) and cube.facets.shape == (6, 4)
        np.testing.assert_array_equal(cube.facets[:, :-1], rows[:, :-1])
        normals = sorted(map(tuple, np.round(rows[:, :-1], 12).tolist()))
        assert normals == sorted(map(tuple, np.vstack([np.eye(3), -np.eye(3)]).tolist()))
        assert not rows.flags.writeable and not gaps.flags.writeable
        np.testing.assert_allclose(gaps, 1.0, rtol=1e-14)
        assert len(SupportSet(list(itertools.product(range(3), repeat=2))).facets) == 4

    def test_facet_gaps(self):
        # Each facet's gap is its distance to the nearest support point off
        # its line: 1 on the legs of the unit triangle, 1/sqrt(2) on the
        # hypotenuse; on an interval, the distance to the next point in.
        rows, gaps = SupportSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])._hull[1:3]
        hypotenuse = rows[:, 0] > 0.5
        np.testing.assert_allclose(gaps[hypotenuse], math.sqrt(0.5), rtol=1e-14)
        np.testing.assert_allclose(gaps[~hypotenuse], 1.0, rtol=1e-14)
        # The rows are about the barycenter 1.375; facets takes them to the origin.
        A = SupportSet([[3.0], [0.0], [0.5], [2.0]])
        rows, gaps = A._hull[1:3]
        np.testing.assert_array_equal(rows, [[-1.0, -1.375], [1.0, -1.625]])
        np.testing.assert_array_equal(A.facets, [[-1.0, 0.0], [1.0, -3.0]])
        np.testing.assert_array_equal(gaps, [0.5, 1.0])
        # The first draw of default_rng(2026): an edge with a point 0.0031 off it.
        rng = np.random.default_rng(2026)
        gaps = SupportSet(rng.normal(size=(8, 2)))._hull[2]
        assert gaps.min() == pytest.approx(0.0031342, rel=1e-4)

    @pytest.mark.parametrize("points, n_facets", [
        (list(itertools.product([0.0, 1.0], repeat=3)), 6),
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 1]], 5),
        (kostlan(2, 3).support.points, 4),
    ], ids=["cube", "square pyramid", "kostlan(2,3)"])
    def test_kept_rows_are_the_first_of_each_facet(self, points, n_facets):
        # The first row of each set of points on a row of Qhull's hull of
        # the centred points, in Qhull's order, as np.unique's sorted first
        # indices give them; each kept row's plane passes through its face.
        A = SupportSet(points)
        centred = A.points - A.points.mean(axis=0)
        normals = ConvexHull(centred).equations[:, :-1]
        values = centred @ normals.T
        slack = values.max(axis=0) - values
        on = slack <= 1e-12 * max(1.0, float(np.linalg.norm(centred, axis=1).max()))
        keep = np.sort(np.unique(on.T, axis=0, return_index=True)[1])
        assert len(keep) == n_facets
        rows = A._hull[1]
        np.testing.assert_array_equal(rows[:, :-1], normals[keep])
        np.testing.assert_array_equal(rows[:, -1], -values.max(axis=0)[keep])

    @pytest.mark.parametrize("points", [
        list(itertools.product([0.0, 1.0], repeat=3)),
        list(itertools.product(range(3), repeat=3)),
        [[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 0], [1, 1, 2], [0, 0, 1], [1, 0, 0]],
    ], ids=["cube", "3x3x3 grid", "pyramid"])
    def test_merged_rows_keep_every_interior_answer(self, points):
        # Against every row of the hull Qhull returns, on a seeded point set
        # over and around the hull and on its faces.
        A = SupportSet(points)
        rng = np.random.default_rng(44)
        P = np.vstack([rng.uniform(-0.5, 2.5, size=(2000, 3)),
                       rng.dirichlet(np.ones(len(points)), size=500) @ A.points,
                       np.round(rng.uniform(-0.5, 2.5, size=(500, 3)) * 2) / 2])
        eq = ConvexHull(A.points).equations
        assert len(A.facets) < len(eq)
        for tol in (1e-12, 1e-6 * diameter(A)):
            want = np.all(P @ eq[:, :-1].T + eq[:, -1] <= -tol, axis=1)
            np.testing.assert_array_equal(_interior_mask(A, P, tol), want)
            np.testing.assert_array_equal([interior_contains(A, p, tol) for p in P[::10]], want[::10])


# ---------------------------------------------------------------------------
# The hull and the vertex-cell corners as they were built with numpy
# incidence, kept verbatim as the reference for the rebuilt set-up.


def _reference_hull(self):
    if self.degenerate:
        return None
    if self.dim == 1:
        lo, hi = self.points.min(), self.points.max()
        vertices, normals, volume = np.array([[lo], [hi]]), np.array([[-1.0], [1.0]]), hi - lo
    else:
        from scipy.spatial import ConvexHull, QhullError

        try:
            hull = ConvexHull(self._centred)
        except QhullError:
            return None
        vertices, normals, volume = self.points[hull.vertices], hull.equations[:, :-1], hull.volume
    on, slack, top = _face_mask(self, normals.T)
    first = {}
    for j, column in enumerate(on.T):
        first.setdefault(column.tobytes(), j)
    keep = list(first.values())
    rows = np.hstack([normals[keep], -top[keep, None]])
    on = on[:, keep]
    gaps = np.min(slack[:, keep], axis=0, where=~on, initial=np.inf)
    vertices, rows, gaps, on = _read_only(vertices, rows, gaps, on)
    return vertices, rows, gaps, float(volume), on


def _reference_vertex_corners(self):
    m = self.dim
    if self._hull is None or m > 3:
        return None
    rows, on = self._hull[1], self._hull[4]
    normals, count = rows[:, :-1], on.sum(axis=1)
    if count.max() > m:
        return None
    # One vertex per set of m facets: the point nearest them.
    distance = np.sum(-(self._centred @ normals.T + rows[:, -1]), axis=1, where=on)
    vertex = np.nonzero(count == m)[0]
    vertex = vertex[np.argsort(distance[vertex], kind="stable")]
    key = np.ravel_multi_index(np.nonzero(on[vertex])[1].reshape(-1, m).T, (on.shape[1],) * m)
    vertex = np.sort(vertex[np.unique(key, return_index=True)[1]])
    on, V = on[vertex], self._centred[vertex]
    facets = np.nonzero(on)[1].reshape(-1, m)
    adjacent = on.astype(np.intp) @ on.T == m - 1
    # across[i, w, b]: w is vertex i's neighbour off its b-th facet.
    across = adjacent[:, :, None] & ~on[:, facets].transpose(1, 0, 2)
    if len(V) <= m or np.any(across.sum(axis=1) != 1):
        return None
    # mids[i, b]: the midpoint of the edge from vertex i off its b-th facet.
    mids = 0.5 * (V[:, None] + V[across.argmax(axis=1)])
    u, w = np.nonzero(np.triu(adjacent))
    if m == 3:
        # Each edge lies on two facets j: one triangle (o_j, a_u, a_w) of
        # each facet's fan, whose area is |det[n_j, a_u - o_j, a_w - o_j]| / 2.
        j = np.nonzero(on[u] & on[w])[1]
        u, w = u.repeat(2), w.repeat(2)
        means = (on.T @ V) / on.sum(axis=0)[:, None]
        fan = np.stack([means[j], V[u], V[w]], axis=1)
        sides = fan - means[j][:, None]
        sides[:, 0] = normals[j]
        area = np.abs(np.linalg.det(sides))
        hot = j == np.arange(len(normals))[:, None]
        centroids = hot @ (area[:, None] * fan.sum(axis=1)) / (3.0 * (hot @ area)[:, None])
    else:
        # The fan of P over its edges, or over its two ends in one variable.
        fan = np.stack([V[u], V[w]], axis=1) if m == 2 else V[:, None]
    o = V.sum(axis=0) / len(V)
    volume = np.abs(np.linalg.det(fan - o))
    c = volume @ (o + fan.sum(axis=1)) / ((m + 1) * volume.sum())
    corners = np.empty((len(V),) + (2,) * m + (m,))
    for s in itertools.product((0, 1), repeat=m):
        ones = sum(s)
        if ones == m:
            corners[(slice(None),) + s] = V
        elif ones == 0:
            corners[(slice(None),) + s] = c
        elif ones == m - 1:
            corners[(slice(None),) + s] = mids[:, s.index(0)]
        else:
            corners[(slice(None),) + s] = centroids[facets[:, s.index(1)]]
    corners.flags.writeable = False
    return corners


CUBE = list(itertools.product([0.0, 1.0], repeat=3))
PRISM = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]]
TETRAHEDRON = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
#: A point 2e-9 from the 1e-4 rad tip of a triangle, within the on-face rule
#: of both edges there: the tip, the nearer of the two, is the vertex.
NEAR_VERTEX = [[0, 0], [1, 0], [1, 1e-4], [2e-9, 1e-13]]
NAMED_SUPPORTS = {
    "square": SQUARE,
    "pentagon": [[0, 0], [2, 0], [3, 1], [1, 3], [-1, 1]],
    "triangle": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    "cube": CUBE,
    "prism": PRISM,
    "tetrahedron": TETRAHEDRON,
    "near-vertex triangle": NEAR_VERTEX,
    "near-vertex triangle, point first": NEAR_VERTEX[3:] + NEAR_VERTEX[:3],
    "octahedron": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    "square pyramid": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 1]],
    "four variables": kostlan(4, 1).support.points,
}


def _seeded_supports(m, count=200):
    """A seeded family of supports in R^m: Gaussian points (simplicial hulls,
    not simple in three variables), and in three variables every other one
    an affine image of the cube, the prism or the tetrahedron with interior
    points; every third support has an extra point on an edge or a facet of
    its hull (inside the segment in one variable)."""
    rng = np.random.default_rng(4500 + m)
    supports = []
    for i in range(count):
        if m == 3 and i % 2:
            base = np.array((CUBE, PRISM, TETRAHEDRON)[i % 3], dtype=float)
            inside = rng.dirichlet(np.ones(len(base)), size=rng.integers(0, 3)) @ base
            L = np.eye(3) + rng.uniform(-0.4, 0.4, (3, 3))
            points = np.vstack([base, inside]) @ L.T + rng.normal(size=3)
        else:
            points = rng.normal(size=(rng.integers(m + 1, m + 7), m))
        if i % 3 == 0:
            if m == 1:
                extra = points[:2].mean(axis=0)
            else:
                facet = points[ConvexHull(points).simplices[0]]
                extra = facet[:2].mean(axis=0) if i % 2 else facet.mean(axis=0)
            points = np.vstack([points, extra])
        supports.append(points)
    return supports


def _same_bytes(got, want):
    """True when both are None, or arrays of one shape, dtype and bytes."""
    if got is None or want is None:
        return got is None and want is None
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestRebuiltSetUp:
    """The hull and the vertex-cell corners give the bytes of the numpy
    incidence references above, or None where they do."""

    @staticmethod
    def _check(points):
        A = SupportSet(points)
        hull, want_hull = A._hull, _reference_hull(A)
        if want_hull is None:
            assert hull is None
        else:
            assert all(_same_bytes(np.asarray(a), np.asarray(b)) for a, b in zip(hull, want_hull))
        corners, want = A._vertex_corners, _reference_vertex_corners(A)
        assert _same_bytes(corners, want)
        return corners is None

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_seeded_supports_match_the_reference(self, m):
        missing = [self._check(points) for points in _seeded_supports(m)]
        # Both outcomes are exercised: in three variables the Gaussian hulls
        # are simplicial, not simple, and the images are simple.
        assert (sum(missing), len(missing) - sum(missing)) > (0, 0) if m == 3 else not any(missing)

    @pytest.mark.parametrize("name", NAMED_SUPPORTS)
    def test_named_supports_match_the_reference(self, name):
        missing = self._check(NAMED_SUPPORTS[name])
        assert missing == (name in ("octahedron", "square pyramid", "four variables"))

    def test_near_vertex_triangle_keeps_the_tip_in_either_order(self):
        for points in (NAMED_SUPPORTS["near-vertex triangle"], NAMED_SUPPORTS["near-vertex triangle, point first"]):
            A = SupportSet(points)
            vertices = A._vertex_corners[:, 1, 1] + A._c
            assert sorted(map(tuple, vertices.tolist())) == [(0.0, 0.0), (1.0, 0.0), (1.0, 1e-4)]


def _simplex_form_by_subsets(A: SupportSet) -> np.ndarray:
    """The Cauchy-Binet block built subset by subset, each placed at its
    lowest pair and the tuple of the rest, looked up in freshly enumerated
    pair and tuple lists: the reference for the cached index tables."""
    points = A.points
    k, m = points.shape
    pairs = {pair: i for i, pair in enumerate(itertools.combinations(range(k - m + 1), 2))}
    tuples = {t: i for i, t in enumerate(itertools.combinations(range(2, k), m - 1))}
    B = np.zeros((len(pairs), len(tuples)))
    scale = 1e-12 * np.ptp(points, axis=0).max() ** m
    for S in itertools.combinations(range(k), m + 1):
        D = _cone_dets(points, np.array([S[1:]]), points[S[0]])[0]
        if abs(D) > scale and not A.degenerate:
            B[pairs[S[:2]], tuples[S[2:]]] = D * D
    return B


class TestCauchyBinetTables:
    @pytest.mark.parametrize("m, k", [(m, k) for m in (1, 2) for k in range(m + 1, 10)]
                             + [(3, k) for k in range(4, 9)])
    def test_simplex_form_equals_the_per_pair_build(self, m, k):
        # a real support and a lattice one, whose collinear triples make flat simplices
        rng = np.random.default_rng(100 * m + k)
        lattice = np.array(list(itertools.product(range(10 if m == 1 else 4), repeat=m)), dtype=float)
        for points in (rng.normal(size=(k, m)), lattice[rng.choice(len(lattice), k, replace=False)]):
            A = SupportSet(points)
            np.testing.assert_array_equal(A._simplex_form, _simplex_form_by_subsets(A))

    def test_degenerate_support_equals_the_per_pair_build(self):
        A = SupportSet([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [2.0, 3.0, 0.0]])
        assert A.degenerate
        np.testing.assert_array_equal(A._simplex_form, _simplex_form_by_subsets(A))
        assert not A._simplex_form.any()

    @pytest.mark.parametrize("k, m", [(2, 1), (5, 2), (6, 3)])
    def test_tables_are_cached_read_only(self, k, m):
        tables = _cauchy_binet_tables(k, m)
        assert _cauchy_binet_tables(k, m) is tables
        subsets, cones, mask = tables
        np.testing.assert_array_equal(subsets, _sorted_tuples(k, m + 1))
        s = _sorted_tuples(k, m - 1)
        want = np.hstack([np.repeat(s, k, axis=0), np.tile(np.arange(k), len(s))[:, None]])
        np.testing.assert_array_equal(cones, want)
        # The mask marks the (pair (a, b), tuple t) entries with min t > b.
        pairs, tuples = _sorted_tuples(k - m + 1, 2), _sorted_tuples(k - 2, m - 1) + 2
        want = [[min(t, default=k) > b for t in tuples] for _, b in pairs]
        np.testing.assert_array_equal(mask, want)
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 0


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

    @pytest.mark.parametrize("resolution", [(7,), (3, 5), (4, 2, 3)])
    def test_grid_nodes_are_the_ij_meshgrid(self, resolution):
        # Axes and nodes, bit for bit and row-major, against the meshgrid
        # construction, with a different count and box on every axis.
        box = tuple((-0.1 * (i + 1), 0.3 + 0.7 * i) for i in range(len(resolution)))
        counts, axes, nodes = _grid(box, resolution)
        assert counts == resolution
        for axis, (lo, hi), n in zip(axes, box, resolution):
            assert axis.tobytes() == np.linspace(lo, hi, n).tobytes()
        want = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        assert nodes.shape == want.shape and nodes.tobytes() == want.tobytes()


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

    def test_repr(self):
        assert repr(QuadForm([[2, 1], [0, 3]])) == "QuadForm([[2.0, 0.5], [0.5, 3.0]])"

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
            S, duals, refused = _dual_forms(batch_moments(E, X)[3])
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
