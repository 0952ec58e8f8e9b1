"""Convex geometry of finite support sets and quadratic-form calculus.

A finite set A of points in R^m carries everything the rest of the package
needs from convex geometry: its support function, exposed faces, diameter,
the volume of its convex hull, and the squared volumes of its simplices
that every density determinant is summed from.  The set's geometry lives
in one coordinate system, about its barycenter c: :class:`SupportSet`
stores c and the centred points A - c once, and the one hull (vertices,
facet rows, gaps and volume, Qhull's coplanar triangles merged), the
exposed faces and every interior test read the centred points, by one
on-face rule (:func:`_face_mask`) and one facet-slack loop
(:func:`_facet_slack`).  Every sum and every function here given points
shares the support of those points through one bounded table
(:func:`_shared_support`), so all of this is built once per support.
User coordinates appear only at the public boundary (``facets``,
``vertices``, :func:`support_function`, :func:`exposed_face`,
:func:`interior_contains`), so a translate of A by an exactly
representable vector has the same faces and facet rows and gives the same
interior answers bit for bit.  Quadratic forms enter
through the metric of an exponential sum; this module supplies the dual
form (Gram-array inverse), whose gate :func:`dual_form` alone decides,
determinants, the stacked Cholesky factor-and-solve of Newton's method,
the unit-ball/unit-sphere constants that normalize every density in the
package, and the one box check and grid.  It also states the package's one
rule for each kind of outside number: arrays by :func:`_as_floats`, real
parameters (tolerances, weights, lengths) by :func:`_as_real` and counts by
:func:`_is_int` (:func:`_as_count` for a count of at least 1, :func:`_counts`
for a grid resolution); no other module tests for a bool or a complex value.
"""

from __future__ import annotations

import itertools
import math
import numbers
import threading
from collections import OrderedDict
from functools import cached_property, lru_cache

import numpy as np

from .errors import InputError, SingularFormError

__all__ = [
    "SupportSet",
    "QuadForm",
    "support_function",
    "exposed_face",
    "diameter",
    "hull_volume",
    "interior_contains",
    "dual_form",
    "form_det",
    "ball_sphere_constants",
]

#: Condition-number gate for dual_form; beyond this the inversion is refused.
DUAL_COND_LIMIT = 1e12

#: Below this determinant a form counts as flat: dual_form refuses it.
DET_FLOOR = 1e-300

#: Most entries a support's Cauchy-Binet block may store:
#: C(k-m+1, 2) C(k-2, m-1) for k points in R^m (kostlan(3, 2) has 300^2 and
#: kostlan(2, 10) 7140 * 119; kostlan(3, 3) has 1891^2 and kostlan(2, 11)
#: 10153 * 142, over it).  Each density row costs that many multiply-adds.
SIMPLEX_FORM_LIMIT = 2**20

#: Most entries k^2 m of the (k, k, m) difference array of a support's
#: pairwise pass (duplicate test and diameter), 128 MiB of doubles:
#: 4096 points on the line, kostlan(2, 52) and kostlan(3, 12) fit, and
#: kostlan(2, 53), kostlan(3, 13) and kostlan(2, 500) are refused.
PAIRWISE_LIMIT = 2**24

#: Supports that :func:`_shared_support`'s table holds, the least recently
#: used leaving first.  The quadrature benchmark's op sets touch 27 distinct
#: supports each, 8 of them in every set.  Over 11 such sets at seed 7 in
#: one process (2 CPUs, one BLAS thread, two runs each), the median op took
#: 0.49-0.50 ms with no table, 0.48-0.51 ms with 16 entries, which keep no
#: support to the next set, 0.31-0.41 ms with 32 and 0.27-0.31 ms with 64.
_SHARED_SUPPORTS = 64

#: Bytes that one support may hold in its two large arrays together: its
#: Cauchy-Binet block (``_simplex_form``), which must fit before the support
#: enters :func:`_shared_support`'s table, and the facet-log chart's
#: seed-pass terms, kept only in what the block leaves (``_spare_bytes``;
#: 57 KiB for a square, 15 KiB for a cube, 119 KiB for a hexagon and
#: 438 KiB for a 12-gon, none from the 13-gon on).
_SHARE_BYTES = 2**19


def _as_floats(value, what: str) -> np.ndarray:
    """value as a float array; InputError "<what>, got <value>" where the
    conversion fails, as it does on a ragged nesting, or where an entry is
    complex or a string (str or bytes, numeric or not, in an object array
    too)."""
    try:
        arr = np.asarray(value)
        strings = arr.dtype.kind == "O" and any(isinstance(v, (str, bytes)) for v in arr.flat)
        if arr.dtype.kind in "cUS" or strings:
            raise TypeError("complex or string entries")
        return arr.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what}, got {value!r}") from exc


def _as_point_array(points) -> np.ndarray:
    """Coerce point input to a float array of shape (k, m)."""
    arr = _as_floats(points, "support points must be real numbers")
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        # A flat list is read as k points on the line, not one point in R^k.
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InputError(f"expected a non-empty (k, m) point array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError("support points must be finite")
    return arr


class SupportSet:
    """An ordered finite set of points A in R^m.

    The convex hull of A is the Newton polytope of any exponential sum
    supported on A.  Points must be pairwise distinct beyond a dedup
    tolerance scaled to the set's size, and k points in R^m are refused
    with InputError where k^2 m passes ``PAIRWISE_LIMIT``.

    Everything cached on a support (hull, vertex corners, Cauchy-Binet
    block, rank, and the facet-log chart's support part, ``_chart``)
    depends on the points alone, so every sum and every geometry call on the
    same points can share one support: :func:`_shared_support` takes points
    to its table, keyed by the exact bytes and shape of the float64 points
    (a -0.0 keeps its own entry), at most ``_SHARED_SUPPORTS`` (64)
    supports of at most ``_SHARE_BYTES`` (512 KiB) of block and chart terms
    each, with under 32 KiB of points, hull, cell corners and facet
    coefficients beside them (a 52-gon, the most points in two variables
    whose block fits, takes 25 KiB): 34 MiB at worst.  A support passed in
    explicitly is used as it is and never enters the table; it keeps its
    chart terms within the same share.  Equal supports hash alike: the hash
    reads the points with -0.0 taken to 0.0, as ``==`` compares them.

    Parameters
    ----------
    points : array_like
        Shape (k, m); a flat length-k sequence is read as k points in R^1.
    """

    def __init__(self, points):
        # The points, their barycenter c, the centred points A - c (the
        # coordinates of the hull, the faces and every kernel; read-only)
        # and their spread max |a - c|, which the dedup tolerance and the
        # on-face rule (:func:`_face_mask`) scale with.
        self.points = _as_point_array(points).copy()
        k, m = self.points.shape
        if k * k * m > PAIRWISE_LIMIT:
            raise InputError(f"{k} points in R^{m} are over the pairwise limit k^2 m <= {PAIRWISE_LIMIT}")
        self._c = self.points.mean(axis=0)
        self._centred = self.points - self._c
        self._spread = _spread(self._centred)
        _read_only(self.points, self._c, self._centred)
        # One pairwise pass gives the duplicate test and the diameter.
        arr = self.points
        diff = arr[:, None, :] - arr[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1))
        if len(arr) > 1 and dist[np.triu_indices(len(arr), 1)].min() <= 1e-9 * (1.0 + self._spread):
            raise InputError("support points must be pairwise distinct")
        self._diameter = float(dist.max())
        # The facet-log chart's support part, kept by
        # :func:`.integrate._facet_log_chart`; None until a solve builds it.
        self._chart = None

    @staticmethod
    def dedup_tolerance(points) -> float:
        """Distance below which two points count as the same point:
        1e-9 (1 + max |a - c|), c the barycenter of the points, so that a
        translate of them has the same tolerance, as the on-face rule
        (:func:`_face_mask`) scales with the spread about c.  The points
        are converted by :func:`_as_floats`, so a string, complex or ragged
        input raises InputError."""
        arr = _as_floats(points, "points must be real numbers")
        return 1e-9 * (1.0 + (_spread(arr - arr.mean(axis=0)) if arr.size else 0.0))

    @property
    def dim(self) -> int:
        """Ambient dimension m."""
        return self.points.shape[1]

    @property
    def size(self) -> int:
        """Number of points."""
        return self.points.shape[0]

    @cached_property
    def affine_dim(self) -> int:
        """Dimension of the affine hull of the points.

        The rank is taken on the differences a_i - a_0, not on the centred
        points: those are exact for a representable translate, while every
        centred row carries the barycenter's rounding, about eps |c|, which
        would lift a flat support far from the origin to full rank.  In one
        variable k >= 2 distinct points have rank 1 with no SVD: the one
        singular value |a - a_0| >= max |a_i - a_0| clears the tolerance."""
        if self.size == 1:
            return 0
        if self.dim == 1:
            return 1
        diffs = self.points[1:] - self.points[0]
        tol = 1e-12 * np.abs(diffs).max() * max(diffs.shape)
        return int(np.count_nonzero(np.linalg.svd(diffs, compute_uv=False) > tol))

    @property
    def degenerate(self) -> bool:
        """True when conv(A) has empty interior (affine dimension < m)."""
        return self.affine_dim < self.dim

    @property
    def _spare_bytes(self) -> int:
        """Bytes of ``_SHARE_BYTES`` that the Cauchy-Binet block leaves for
        the facet-log chart's seed-pass terms (``_chart``); negative where
        the block alone passes the share, which keeps the support out of
        :func:`_shared_support`'s table.  Read from the block's shape, so
        the block is not built."""
        return _SHARE_BYTES - 8 * math.prod(_simplex_form_shape(self.size, self.dim))

    @cached_property
    def _hull(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, np.ndarray] | None:
        """(vertices, rows, gaps, volume, on) of conv(A) from one hull of
        the centred points A - c; None when the hull has no interior.

        Qhull triangulates its facets, so a facet with more than m vertices
        comes as several rows whose normals agree up to rounding.  A row's
        points of A are its exposed face (:func:`_face_mask`); rows with
        the same points are one facet, which keeps the first of them, in
        Qhull's order (where no rows merge, as on every polygon, Qhull's
        rows are kept as they are, with no copy).  ``rows`` (F, m+1) hold
        (unit normal n, offset -max n . (a - c)), so n . (p - c) + offset
        <= 0 inside and the plane passes through its face; ``gaps`` (F,)
        hold each facet's distance to the nearest point of A off its
        hyperplane (inf if none is), and ``on`` (k, F) which points lie on
        each facet.  So a translate whose centred points are the same bit
        for bit gets the same rows, gaps and incidence."""
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
        k, first = len(on), {}
        columns = on.T.tobytes()
        for j in range(on.shape[1]):
            first.setdefault(columns[j * k:(j + 1) * k], j)
        if len(first) < on.shape[1]:
            keep = list(first.values())
            normals, on, slack, top = normals[keep], on[:, keep], slack[:, keep], top[keep]
        rows = np.hstack([normals, -top[:, None]])
        gaps = np.min(slack, axis=0, where=~on, initial=np.inf)
        vertices, rows, gaps, on = _read_only(vertices, rows, gaps, on)
        return vertices, rows, gaps, float(volume), on

    @cached_property
    def _vertex_corners(self) -> np.ndarray | None:
        """The corners of one combinatorial cube per vertex of a simple
        conv(A), about the barycenter, from the hull's facet rows
        (``_hull``); read-only, shape (n, 2, ..., 2, m) with m binary axes.
        None when the hull has no interior, m > 3, some vertex lies on more
        than m facets, or some vertex lacks one neighbour across each of
        its facets.

        Incidence is the hull's ``on``, from the on-face rule
        (:func:`_face_mask`), read in plain Python over its few on-facet
        pairs (at most m per point): the vertices are the points of A on m
        facets (a point on more is a vertex where P is not simple), one per
        set of m facets: the point with the least summed distance to them,
        the first in point order among equal ones, since a point near a
        sharp vertex can lie within the rule of the same facets as the
        vertex; the distances are taken only where a set has more than one
        point.  Two vertices span an edge when they share m - 1 facets, and
        each such set must hold exactly two vertices.  Axis b of vertex i
        stands for the b-th of its m facets, in row order, and the corner
        whose ones pick the facets S is the centroid of the face they cut
        out: the vertex for all m, the midpoint of the edge for m - 1, the
        area centroid of the facet for one of three (each facet fanned from
        its vertex mean over its edges), and the centroid of P for none (P
        fanned from its vertex mean over the edges in two variables and the
        facet fans in three).  So the face of vertex i's cube with axis b at
        one lies on that facet, and two cubes that meet share a face's four
        corners."""
        m = self.dim
        if self._hull is None or m > 3:
            return None
        rows, on = self._hull[1], self._hull[4]
        normals = rows[:, :-1]
        # The incidence, in Python over the few on-facet pairs: each point's
        # facets, in row order, and the points on exactly m of them by facet set.
        on_facets = [[] for _ in range(len(on))]
        for point, facet in zip(*(index.tolist() for index in np.nonzero(on))):
            on_facets[point].append(facet)
        if max(map(len, on_facets)) > m:
            return None
        by_set = {}
        for point, facet_set in enumerate(on_facets):
            if len(facet_set) == m:
                by_set.setdefault(tuple(facet_set), []).append(point)
        if any(len(points) > 1 for points in by_set.values()):
            # One vertex per set of m facets: the point nearest them, the
            # first in point order among equal distances.
            distance = np.sum(-(self._centred @ normals.T + rows[:, -1]), axis=1, where=on).tolist()
            by_set = {key: [min(points, key=distance.__getitem__)] for key, points in by_set.items()}
        vertex = sorted(points[0] for points in by_set.values())
        facets = [on_facets[point] for point in vertex]
        # The vertices on each set of m - 1 facets; neighbour[i][b] is vertex
        # i's one neighbour off its b-th facet, across the edge on the others.
        sharing = {}
        for i, facet_set in enumerate(facets):
            for b in range(m):
                sharing.setdefault(tuple(facet_set[:b] + facet_set[b + 1:]), []).append(i)
        if len(vertex) <= m or any(len(ends) != 2 for ends in sharing.values()):
            return None
        neighbour = [[sum(sharing[tuple(facet_set[:b] + facet_set[b + 1:])]) - i for b in range(m)]
                     for i, facet_set in enumerate(facets)]
        on, V = on[vertex], self._centred[vertex]
        # mids[i, b]: the midpoint of the edge from vertex i off its b-th facet.
        mids = 0.5 * (V[:, None] + V[neighbour])
        edges = sorted(sharing.items(), key=lambda item: item[1])
        u, w = np.array([ends for _, ends in edges], dtype=np.intp).reshape(-1, 2).T
        if m == 3:
            # Each edge lies on two facets j: one triangle (o_j, a_u, a_w) of
            # each facet's fan, whose area is |det[n_j, a_u - o_j, a_w - o_j]| / 2.
            j = np.array([key for key, _ in edges], dtype=np.intp).ravel()
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
                corners[(slice(None),) + s] = centroids[[facet_set[s.index(1)] for facet_set in facets]]
        corners.flags.writeable = False
        return corners

    @cached_property
    def _simplex_form(self) -> np.ndarray:
        """The Cauchy-Binet block B, shape (C(k-m+1, 2), C(k-2, m-1)), which
        holds each (m+1)-subset S once, split into its two lowest indices
        a < b and the sorted (m-1)-tuple t of the rest: rows are the pairs
        of range(k-m+1) and columns the sorted (m-1)-tuples of range(2, k),
        both in lexicographic order, and B[(a, b), t] = D_S^2 where
        min t > b, 0 elsewhere.  So sum over a < b and t of
        W_a W_b B[(a, b), t] prod_t W is sum over S of D_S^2 prod_S W.
        D = det[1 a_i] = det[a_i - a_i0] (m! times the simplex volume)
        comes from the C(k, m+1) sorted subsets (:func:`_cauchy_binet_tables`);
        a D within 1e-12 w^m, w the widest coordinate range, is rounding on
        a flat simplex, set to 0.  A ``degenerate`` support (the rank test)
        has every D set to 0, so det g = 0 everywhere exactly where the
        integrals return 0.  The subsets (a, b, t), in lexicographic order,
        are B's entries with min t > b in row-major order, so one masked
        write places them all.  Raises InputError past
        ``SIMPLEX_FORM_LIMIT`` entries, before allocating anything."""
        k, m = self.points.shape
        shape = _simplex_form_shape(k, m)
        if shape[0] * shape[1] > SIMPLEX_FORM_LIMIT:
            raise InputError(
                f"{k} points in R^{m} need a Cauchy-Binet block of {shape[0] * shape[1]} "
                f"entries, over the limit of {SIMPLEX_FORM_LIMIT}"
            )
        S, _, mask = _cauchy_binet_tables(k, m)
        D = _cone_dets(self.points, S[:, 1:], self.points[S[:, 0]])
        D[(np.abs(D) <= 1e-12 * np.ptp(self.points, axis=0).max() ** m) | self.degenerate] = 0.0
        B = np.zeros(shape)
        B[mask] = D * D
        B.flags.writeable = False
        return B

    @cached_property
    def facets(self) -> np.ndarray | None:
        """Facet rows (unit normal, offset) of conv(A), one per facet, with
        normal . p + offset <= 0 inside: the hull's rows (``_hull``) with
        their offsets taken to the origin; read-only, None when the hull
        has no interior."""
        if self._hull is None:
            return None
        rows = self._hull[1].copy()
        rows[:, -1] -= rows[:, :-1] @ self._c
        rows.flags.writeable = False
        return rows

    @property
    def vertices(self) -> np.ndarray | None:
        """Vertices of conv(A), shape (n, m): in order along the boundary
        (counter-clockwise) for m <= 2, Qhull's order above; None when the
        hull has no interior."""
        return None if self._hull is None else self._hull[0]

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.points)

    def __repr__(self) -> str:
        return f"SupportSet({self.points.tolist()!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, SupportSet):
            return NotImplemented
        return self.points.shape == other.points.shape and bool(
            np.array_equal(self.points, other.points)
        )

    def __hash__(self):
        # + 0.0 takes -0.0 to 0.0, which == counts as equal.
        return hash((self.points.shape, (self.points + 0.0).tobytes()))


_supports = OrderedDict()
_supports_lock = threading.Lock()


def _shared_support(points) -> SupportSet:
    """The package's one rule from points to a :class:`SupportSet`: a
    SupportSet is used as it is, and other points take theirs from the
    process-wide table, keyed by the shape and the exact bytes of the
    C-ordered float64 points (:func:`_as_point_array`), so every sum and
    every geometry call on the same points shares one support and what it
    caches.  A miss builds the support, which checks the points as the
    constructor does, and enters it when it lies in at most three variables
    (where its hull's rows are few) and its Cauchy-Binet block fits
    ``_SHARE_BYTES``; past ``_SHARED_SUPPORTS`` entries the least recently
    used leaves."""
    if isinstance(points, SupportSet):
        return points
    arr = _as_point_array(points)
    key = (arr.shape, arr.tobytes())
    with _supports_lock:
        support = _supports.get(key)
        if support is not None:
            _supports.move_to_end(key)
            return support
    support = SupportSet(arr)
    if support.dim <= 3 and support._spare_bytes >= 0:
        with _supports_lock:
            support = _supports.setdefault(key, support)
            if len(_supports) > _SHARED_SUPPORTS:
                _supports.popitem(last=False)
    return support


def _simplex_form_shape(k: int, m: int) -> tuple[int, int]:
    """Shape (C(k-m+1, 2), C(k-2, m-1)) of the Cauchy-Binet block of k
    points in R^m (``SupportSet._simplex_form``)."""
    return math.comb(max(k - m + 1, 0), 2), math.comb(max(k - 2, 0), m - 1)


def _cone_dets(points: np.ndarray, tuples: np.ndarray, apex: np.ndarray) -> np.ndarray:
    """det[a_t1 - b, ..., a_tm - b] for each row t of ``tuples`` (shape
    (n, m), indices into ``points``, shape (k, m)), with b the matching row
    of ``apex`` (shape (n, m)) or one apex (shape (m,)) for every row; on
    the sorted (m+1)-subsets S, t = S[1:] and b = a_S0 give D_S."""
    # In place: one (n, m, m) temporary, not two; a cold block build for 27
    # points in R^3, index tables included, then peaks at 3.5 MB.
    edges = points[tuples]
    edges -= apex[..., None, :]
    return np.linalg.det(edges)


def _sorted_tuples(k: int, r: int) -> np.ndarray:
    """The sorted r-tuples of range(k) in lexicographic order, shape
    (C(k, r), r)."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(k), r))
    n = math.comb(k, r)
    return np.fromiter(flat, dtype=np.intp, count=n * r).reshape(n, r)


# A table of k points in R^m holds (m+1) C(k, m+1) + m k C(k, m-1) indices
# (0.8 MB for 27 points in R^3, 8.5 MB for 128 in R^2) and a mask of up to
# SIMPLEX_FORM_LIMIT bytes, so only the most recent shapes stay.
@lru_cache(maxsize=32)
def _cauchy_binet_tables(k: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of the Cauchy-Binet sums over k points in R^m, built
    once per (k, m); cached, read-only.

    Returns (subsets, cones, mask):
    * subsets, (C(k, m+1), m+1): the sorted (m+1)-subsets S,
      :func:`_sorted_tuples` (k, m+1), the simplices of
      ``SupportSet._simplex_form``;
    * cones, (C(k, m-1) k, m): each sorted (m-1)-tuple s followed by each
      point j, s-major, the rows t of the cone determinants det[a_t - a_0]
      of Psi's (C(k, m-1), k) matrix;
    * mask, (C(k-m+1, 2), C(k-2, m-1)): where ``SupportSet._simplex_form``
      holds a simplex, the entries of its (pair (a, b), tuple t) grid with
      min t > b.
    """
    subsets = _sorted_tuples(k, m + 1)
    s = _sorted_tuples(k, m - 1)
    cones = np.hstack([np.repeat(s, k, axis=0), np.tile(np.arange(k), len(s))[:, None]])
    # The second index of each row pair, and the first of each column
    # tuple: k for the one empty tuple of m = 1, above every b.
    b_row = _sorted_tuples(max(k - m + 1, 0), 2)[:, 1]
    first_t = np.min(_sorted_tuples(max(k - 2, 0), m - 1), axis=1, initial=k - 2) + 2
    return _read_only(subsets, cones, first_t[None, :] > b_row[:, None])


def _spread(centred: np.ndarray) -> float:
    """max |a - c| over the rows of the centred points A - c."""
    return float(np.linalg.norm(centred, axis=-1).max())


def _read_only(*arrays):
    """The arrays, each made read-only in place, as a tuple."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _is_int(v) -> bool:
    """True for a Python or numpy integer, False for a bool or anything else:
    the package's one rule for counts."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _as_count(value, what: str) -> int:
    """value as an int where it is a count by :func:`_is_int` and at least
    1; InputError "<what>, got <value>" otherwise."""
    if not (_is_int(value) and value >= 1):
        raise InputError(f"{what}, got {value!r}")
    return int(value)


def _as_real(value, what: str) -> float:
    """value as a float, the package's one rule for a real parameter: a
    ``numbers.Real`` that is not a bool (numpy's bool is not Real), finite
    and above 0 as a float (an int or Fraction past the largest float
    overflows, and a positive Fraction can round to 0.0); InputError
    "<what>, got <value>" otherwise."""
    try:
        real = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:
        real = math.inf
    if not 0.0 < real < math.inf:
        raise InputError(f"{what}, got {value!r}")
    return real


def _check_vector(u, m: int, name: str = "u") -> np.ndarray:
    """u as a finite float vector of length m; InputError otherwise."""
    vec = _as_floats(u, f"{name} must give real numbers").reshape(-1)
    if vec.shape[0] != m:
        raise InputError(f"{name} has length {vec.shape[0]}, expected {m}")
    if not np.all(np.isfinite(vec)):
        raise InputError(f"{name} must be finite")
    return vec


def _check_box(box, m: int) -> tuple:
    """A box as m (lo, hi) float pairs: shape (m, 2), or (2,) in one variable,
    every bound finite and lo < hi.  InputError otherwise."""
    arr = _as_floats(box, "box must give numeric (lo, hi) pairs")
    if arr.shape == (2,) and m == 1:
        arr = arr[None, :]
    if arr.shape != (m, 2):
        raise InputError(f"box must give (lo, hi) for each of {m} axes")
    if not np.all(np.isfinite(arr)) or np.any(arr[:, 0] >= arr[:, 1]):
        raise InputError("box must give finite lo < hi per axis")
    return tuple((float(a), float(b)) for a, b in arr)


def _counts(resolution, m: int) -> tuple:
    """A grid resolution on m axes as a tuple of m ints: one count for every
    axis, or one count per axis given as a tuple, list or 1-D array, each a
    count by :func:`_is_int` and at least 2; InputError otherwise."""
    listed = isinstance(resolution, (tuple, list)) or isinstance(resolution, np.ndarray) and resolution.ndim == 1
    per_axis = resolution if listed else (resolution,) * m
    if len(per_axis) != m or not all(_is_int(n) and n >= 2 for n in per_axis):
        raise InputError(f"resolution must be whole numbers >= 2 on {m} axes, got {resolution!r}")
    return tuple(map(int, per_axis))


def _grid(box, resolution):
    """(resolution, axes, nodes) of the grid on a checked box: resolution as
    :func:`_counts` resolves it on the box's axes; axes the linspace of each
    axis; nodes (prod(resolution), m), row-major, each axis broadcast into
    its column of one array."""
    m = len(box)
    counts = _counts(resolution, m)
    axes = tuple(np.linspace(a, b, n) for (a, b), n in zip(box, counts))
    nodes = np.empty(counts + (m,))
    for i, axis in enumerate(axes):
        nodes[..., i] = axis.reshape((-1,) + (1,) * (m - 1 - i))
    return counts, axes, nodes.reshape(-1, m)


def _csv_text(header, rows) -> str:
    """The CSV text of a header and rows, one line each: numbers as
    ``repr(float(v))``, so they read back as the same doubles, text as it
    is; every grid and ray writes its CSV by this one rule."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else repr(float(v)) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def support_function(A, u) -> float:
    """Support value h_A(u) = max over a in A of <u, a>.

    For the convex hull this is the polytope's support function: the sup
    over conv(A) is attained on A.
    """
    A = _shared_support(A)
    u = _check_vector(u, A.dim)
    return float(np.max(A.points @ u))


def exposed_face(A, u) -> SupportSet:
    """Points of A at the support value in direction u.

    This is the exposed face A^u = {a : <u, a> = h_A(u)} up to a gap
    tolerance of 1e-12 * max(1, |u| * max_a |a - c|), c the barycenter of
    A, which scales with the problem so that floating-point ties are kept
    together and a translate of A has the same face.  Never empty.
    """
    A = _shared_support(A)
    u = _check_vector(u, A.dim)
    return SupportSet(A.points[_face_mask(A, u)[0]])


def _face_mask(A: SupportSet, U: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(on, slack, top) of A's exposed faces in the directions U, shape (m,)
    or (m, F), on the centred points: top = max <u, a - c>, slack =
    top - <u, a - c> and ``on`` the points within the gap tolerance of
    :func:`exposed_face` (slack and on (k,) or (k, F), top a value per
    direction).  The one on-face rule, of exposed faces and of the hull's
    facets (``SupportSet._hull``)."""
    values = A._centred @ U
    top = values.max(axis=0)
    slack = top - values
    scale = np.linalg.norm(U, axis=0) * A._spread
    return slack <= 1e-12 * np.maximum(1.0, scale), slack, top


def diameter(A) -> float:
    """Largest pairwise Euclidean distance over A (equals diam conv(A)),
    computed once per support."""
    return _shared_support(A)._diameter


def hull_volume(A) -> float:
    """Euclidean volume of conv(A), exactly supported for m <= 3.

    Read from the support's cached hull.  Returns 0.0 for degenerate hulls
    (affine dimension < m); the degeneracy itself is queryable as
    ``A.degenerate``.  Dimensions above 3 are refused.
    """
    A = _shared_support(A)
    if A.dim > 3:
        raise InputError(f"hull_volume supports m <= 3, got m = {A.dim}")
    return 0.0 if A._hull is None else A._hull[3]


def interior_contains(A, p, tol: float) -> bool:
    """True iff p lies in the interior of conv(A) with margin ``tol``.

    Decided against the facet inequalities of the hull: every facet must
    clear the point by at least ``tol``.  A degenerate hull has no interior.
    ``tol`` is a real number by :func:`_as_real` (finite, above 0, not a
    bool), else InputError.
    """
    A = _shared_support(A)
    tol = _as_real(tol, "tol must be a finite real number > 0")
    p = _check_vector(p, A.dim, name="p")
    return bool(_interior_mask(A, p[None, :], tol)[0])


def _interior_mask(A: SupportSet, P: np.ndarray, tol: float) -> np.ndarray:
    """:func:`interior_contains` for each row of P (shape (N, m)): the
    hull's rows (``SupportSet._hull``) against P - c, written
    coordinate-major, through :func:`_facet_slack`, so a point's answer
    does not depend on its batch; the test over the facets runs along rows
    of N points."""
    if A._hull is None:
        return np.zeros(P.shape[0], dtype=bool)
    return np.all(_facet_slack(A._hull[1], np.subtract(P.T, A._c[:, None], order="C")) <= -tol, axis=0)


def _facet_slack(rows: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """n . q + offset of each hull row (F, m+1) (``SupportSet._hull``) at
    each column q of the centred, coordinate-major Q (m, N): shape (F, N),
    accumulated one coordinate at a time in coordinate order, the order of
    a sum over the coordinate axis, and without BLAS, so a column's slack
    does not depend on its batch."""
    slack = np.multiply.outer(rows[:, 0], Q[0])
    for i in range(1, len(Q)):
        slack += np.multiply.outer(rows[:, i], Q[i])
    slack += rows[:, -1, None]
    return slack


class QuadForm:
    """A symmetric quadratic form on R^m given by its Gram array.

    The stored array is symmetrized on construction, so symmetry is exact.
    Calling the form evaluates Q(u) = u^T M u.
    """

    def __init__(self, entries):
        arr = _as_floats(entries, "Gram entries must be real numbers")
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputError(f"expected a square Gram array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InputError("Gram entries must be finite")
        arr = 0.5 * (arr + arr.T)
        arr.flags.writeable = False
        self.entries = arr

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __call__(self, u) -> float:
        u = _check_vector(u, self.dim)
        return float(u @ self.entries @ u)

    def __repr__(self) -> str:
        return f"QuadForm({self.entries.tolist()!r})"


def dual_form(Q: QuadForm) -> QuadForm:
    """Dual quadratic form Q°, realized as the Gram-array inverse.

    Q°(u) = sup{<u, v>^2 : Q(v) <= 1}; its Gram array is the inverse of Q's.
    This is the package's one dual-form gate.  From one symmetric
    eigendecomposition Q = V diag(w) V^T it returns V diag(1/w) V^T, and it
    refuses (SingularFormError) a form with an eigenvalue that is not
    positive, a condition number above ``DUAL_COND_LIMIT`` or a determinant
    (the product of the eigenvalues) below ``DET_FLOOR``.
    """
    w, V = np.linalg.eigh(Q.entries)
    if not (w[0] > 0.0 and w[-1] <= DUAL_COND_LIMIT * w[0] and np.prod(w) >= DET_FLOOR):
        raise SingularFormError(f"form has no dual: eigenvalues {w[0]:.3e} to {w[-1]:.3e}")
    return QuadForm((V / w) @ V.T)


def _cholesky_solve(G: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X, ok): X with G X = B for each column n of the coordinate-major
    stack G (shape (m, m, N)) and right-hand sides B (shape (m, N)), by one
    Cholesky factorization L L^T = G read from G's lower triangle, forward
    substitution for L Y = B and back substitution for L^T X = Y.

    Every entry of L, Y and X is a contiguous row of N values, with Python
    loops only over the m axis and each inner sum written out term by term.
    ``ok`` is False where a pivot is not positive (or is NaN), as LAPACK's
    factorization fails; those columns of X hold NaN.
    """
    m = G.shape[0]
    L = [[None] * m for _ in range(m)]
    for j in range(m):
        pivot = G[j, j]
        for k in range(j):
            pivot = pivot - L[j][k] * L[j][k]
        positive = pivot > 0.0
        ok = positive if j == 0 else ok & positive
        root = np.sqrt(np.where(positive, pivot, np.nan))
        L[j][j] = root
        for i in range(j + 1, m):
            below = G[i, j]
            for k in range(j):
                below = below - L[i][k] * L[j][k]
            L[i][j] = below / root
    X = np.empty_like(B)
    for i in range(m):
        entry = B[i]
        for k in range(i):
            entry = entry - L[i][k] * X[k]
        X[i] = entry / L[i][i]
    for i in reversed(range(m)):
        entry = X[i]
        for k in range(i + 1, m):
            entry = entry - L[k][i] * X[k]
        X[i] = entry / L[i][i]
    return X, ok


def form_det(Q: QuadForm) -> float:
    """Determinant of the form's Gram array."""
    return float(np.linalg.det(Q.entries))


def ball_sphere_constants(m: int) -> tuple[float, float]:
    """Volumes (b_m, s_m) of the unit ball in R^m and unit sphere S^m in R^{m+1}.

    b_m = pi^{m/2} / Gamma(m/2 + 1) and s_m = 2 pi^{(m+1)/2} / Gamma((m+1)/2);
    they satisfy m! b_m s_m / (2 pi)^m = 2.  m is a count by :func:`_is_int`
    and at least 1 (:func:`_as_count`), else InputError, checked before the
    cache, which is keyed by the checked int: an unhashable m ([2], a 0-d
    array) is refused like any other, and True is not served from 1's entry.
    """
    return _ball_sphere_constants(_as_count(m, "m must be a positive integer"))


@lru_cache(maxsize=None)
def _ball_sphere_constants(m: int) -> tuple[float, float]:
    """:func:`ball_sphere_constants` of a checked int m, once per m."""
    b_m = math.exp(0.5 * m * math.log(math.pi) - math.lgamma(0.5 * m + 1.0))
    s_m = 2.0 * math.exp(0.5 * (m + 1) * math.log(math.pi) - math.lgamma(0.5 * (m + 1)))
    return b_m, s_m
