"""Convex geometry of finite support sets and quadratic-form calculus.

A finite set A of points in R^m carries everything the rest of the package
needs from convex geometry: its support function, exposed faces, diameter,
the volume of its convex hull, and the squared volumes of its simplices
that every density determinant is summed from.  Quadratic forms enter
through the metric of an exponential sum; this module supplies the dual
form (Gram-array inverse), whose gate :func:`dual_form` alone decides,
determinants, ellipsoid volumes, the stacked Cholesky factor-and-solve of
Newton's method, the unit-ball/unit-sphere constants that
normalize every density in the package, and the one box check and grid.
"""

from __future__ import annotations

import itertools
import math
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
    "ellipsoid_volume",
    "ball_sphere_constants",
]

#: Condition-number gate for dual_form; beyond this the inversion is refused.
DUAL_COND_LIMIT = 1e12

#: Below this determinant a form counts as flat: dual_form refuses it.
DET_FLOOR = 1e-300

#: Most entries a support's Cauchy-Binet block may store: C(k, 2) C(k, m-1)
#: for k points in R^m (kostlan(3, 2) has 351^2 and kostlan(2, 10) 7260 * 121;
#: kostlan(3, 3) has 2016^2, over it).  Each density row costs that many
#: multiply-adds.
SIMPLEX_FORM_LIMIT = 2**20


def _as_point_array(points) -> np.ndarray:
    """Coerce point input to a float array of shape (k, m)."""
    arr = np.asarray(points, dtype=float)
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
    tolerance scaled to the set's size.

    Parameters
    ----------
    points : array_like
        Shape (k, m); a flat length-k sequence is read as k points in R^1.
    """

    def __init__(self, points):
        arr = _as_point_array(points)
        tol = self.dedup_tolerance(arr)
        k = arr.shape[0]
        if k > 1:
            diff = arr[:, None, :] - arr[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=-1))
            iu = np.triu_indices(k, 1)
            if dist[iu].min() <= tol:
                raise InputError("support points must be pairwise distinct")
        arr = arr.copy()
        arr.flags.writeable = False
        self.points = arr

    @staticmethod
    def dedup_tolerance(points) -> float:
        """Distance below which two points count as the same point."""
        arr = np.asarray(points, dtype=float)
        scale = float(np.abs(arr).max()) if arr.size else 0.0
        return 1e-9 * (1.0 + scale)

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
        """Dimension of the affine hull of the points."""
        if self.size == 1:
            return 0
        centered = self.points[1:] - self.points[0]
        scale = np.abs(centered).max()
        if scale == 0.0:
            return 0
        return int(np.linalg.matrix_rank(centered, tol=1e-12 * scale * max(centered.shape)))

    @property
    def degenerate(self) -> bool:
        """True when conv(A) has empty interior (affine dimension < m)."""
        return self.affine_dim < self.dim

    @cached_property
    def _hull(self) -> tuple[np.ndarray, np.ndarray, float] | None:
        """(vertices, facet rows, volume) of conv(A) from one hull; None
        without interior."""
        if self.degenerate:
            return None
        if self.dim == 1:
            lo, hi = self.points.min(), self.points.max()
            vertices, rows = np.array([[lo], [hi]]), np.array([[-1.0, lo], [1.0, -hi]])
            volume = float(hi - lo)
        else:
            from scipy.spatial import ConvexHull, QhullError

            try:
                hull = ConvexHull(self.points)
            except QhullError:
                return None
            vertices, rows, volume = self.points[hull.vertices], hull.equations, hull.volume
        vertices.flags.writeable = False
        rows.flags.writeable = False
        return vertices, rows, float(volume)

    @cached_property
    def _simplex_form(self) -> np.ndarray:
        """The Cauchy-Binet block B, shape (C(k, 2), C(k, m-1)): rows are the
        pairs i < j and columns the sorted (m-1)-tuples t, both in
        lexicographic order, and B[(i, j), t] = D_S^2 / C(m+1, 2) where
        S = {i, j} + t has m+1 distinct points, 0 where they overlap.  Each
        (m+1)-subset is split C(m+1, 2) ways into a pair and a tuple, so
        sum over i < j and t of W_i W_j B[(i, j), t] prod_t W is sum over S of
        D_S^2 prod_S W.  D = det[1 a_i] = det[a_i - a_i0] (m! times the
        simplex volume) comes from the C(k, m+1) sorted subsets; a D within
        1e-12 w^m, w the widest coordinate range, is rounding on a flat
        simplex, set to 0.  A ``degenerate`` support (the rank test) has
        every D set to 0, so det g = 0 everywhere exactly where the
        integrals return 0.
        Raises InputError past ``SIMPLEX_FORM_LIMIT`` entries, before
        allocating anything."""
        k, m = self.points.shape
        shape = (math.comb(k, 2), math.comb(k, m - 1))
        if shape[0] * shape[1] > SIMPLEX_FORM_LIMIT:
            raise InputError(
                f"{k} points in R^{m} need a Cauchy-Binet block of {shape[0] * shape[1]} "
                f"entries, over the limit of {SIMPLEX_FORM_LIMIT}"
            )
        S = _sorted_tuples(k, m + 1)
        D = _cone_dets(self.points, S[:, 1:], self.points[S[:, 0]])
        D[(np.abs(D) <= 1e-12 * np.ptp(self.points, axis=0).max() ** m) | self.degenerate] = 0.0
        D *= D / math.comb(m + 1, 2)
        B = np.zeros(shape)
        for pair in itertools.combinations(range(m + 1), 2):
            rest = [p for p in range(m + 1) if p not in pair]
            B[_tuple_ranks(S[:, pair], k), _tuple_ranks(S[:, rest], k)] = D
        B.flags.writeable = False
        return B

    @cached_property
    def _diameter(self) -> float:
        """:func:`diameter` of the set."""
        if self.size == 1:
            return 0.0
        diff = self.points[:, None, :] - self.points[None, :, :]
        return float(np.sqrt((diff**2).sum(axis=-1)).max())

    @property
    def facets(self) -> np.ndarray | None:
        """Facet rows (unit normal, offset) of conv(A), with normal . p +
        offset <= 0 inside; None when the hull has no interior."""
        return None if self._hull is None else self._hull[1]

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
        return hash((self.points.shape, self.points.tobytes()))


def _cone_dets(points: np.ndarray, tuples: np.ndarray, apex: np.ndarray) -> np.ndarray:
    """det[a_t1 - b, ..., a_tm - b] for each row t of ``tuples`` (shape
    (n, m), indices into ``points``, shape (k, m)), with b the matching row
    of ``apex`` (shape (n, m)) or one apex (shape (m,)) for every row; on
    the sorted (m+1)-subsets S, t = S[1:] and b = a_S0 give D_S."""
    return np.linalg.det(points[tuples] - apex[..., None, :])


def _sorted_tuples(k: int, r: int) -> np.ndarray:
    """The sorted r-tuples of range(k) in lexicographic order, shape
    (C(k, r), r)."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(k), r))
    n = math.comb(k, r)
    return np.fromiter(flat, dtype=np.intp, count=n * r).reshape(n, r)


def _tuple_ranks(tuples: np.ndarray, k: int) -> np.ndarray:
    """Row of each sorted tuple (rows of ``tuples``, shape (n, r)) in
    :func:`_sorted_tuples` (k, r): C(k, r) - 1 - sum_p C(k - 1 - t_p, r - p)."""
    r = tuples.shape[1]
    binom = np.array([[math.comb(a, b) for b in range(r + 1)] for a in range(k)], dtype=np.intp)
    rank = np.full(len(tuples), math.comb(k, r) - 1, dtype=np.intp)
    for p in range(r):
        rank -= binom[k - 1 - tuples[:, p], r - p]
    return rank


def _coerce_support(A) -> SupportSet:
    return A if isinstance(A, SupportSet) else SupportSet(A)


def _check_vector(u, m: int, name: str = "u") -> np.ndarray:
    vec = np.asarray(u, dtype=float).reshape(-1)
    if vec.shape[0] != m:
        raise InputError(f"{name} has length {vec.shape[0]}, expected {m}")
    if not np.all(np.isfinite(vec)):
        raise InputError(f"{name} must be finite")
    return vec


def _check_box(box, m: int) -> tuple:
    """A box as m (lo, hi) float pairs: shape (m, 2), or (2,) in one variable,
    every bound finite and lo < hi.  InputError otherwise."""
    try:
        arr = np.asarray(box, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"box must give numeric (lo, hi) pairs, got {box!r}") from exc
    if arr.shape == (2,) and m == 1:
        arr = arr[None, :]
    if arr.shape != (m, 2):
        raise InputError(f"box must give (lo, hi) for each of {m} axes")
    if not np.all(np.isfinite(arr)) or np.any(arr[:, 0] >= arr[:, 1]):
        raise InputError("box must give finite lo < hi per axis")
    return tuple((float(a), float(b)) for a, b in arr)


def _grid(box, resolution):
    """(resolution, axes, nodes) of the grid on a checked box: resolution a
    whole number or one per axis, at least 2 each, else InputError; axes
    the linspace of each axis; nodes (prod(resolution), m), row-major."""
    m = len(box)
    per_axis = (resolution,) * m if np.isscalar(resolution) else resolution
    try:
        counts = tuple(int(r) for r in per_axis)
    except (TypeError, ValueError, OverflowError):
        counts = ()
    if len(counts) != m or any(n < 2 or n != r for n, r in zip(counts, per_axis)):
        raise InputError(f"resolution must be whole numbers >= 2 on {m} axes, got {resolution!r}")
    axes = tuple(np.linspace(a, b, n) for (a, b), n in zip(box, counts))
    nodes = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    return counts, axes, nodes


def support_function(A, u) -> float:
    """Support value h_A(u) = max over a in A of <u, a>.

    For the convex hull this is the polytope's support function: the sup
    over conv(A) is attained on A.
    """
    A = _coerce_support(A)
    u = _check_vector(u, A.dim)
    return float(np.max(A.points @ u))


def exposed_face(A, u, tol: float | None = None) -> SupportSet:
    """Points of A within ``tol`` of the support value in direction u.

    This is the exposed face A^u = {a : <u, a> = h_A(u)} up to a gap
    tolerance; the default tolerance scales with ``|u|`` times the largest
    point norm so that floating-point ties are kept together.  Never empty.
    """
    A = _coerce_support(A)
    u = _check_vector(u, A.dim)
    if tol is not None and tol < 0:
        raise InputError("tol must be nonnegative")
    return SupportSet(A.points[_face_mask(A, u, tol)])


def _face_mask(A: SupportSet, u: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Boolean mask over A of the exposed face in direction u, with the
    default tolerance of :func:`exposed_face`."""
    values = A.points @ u
    if tol is None:
        scale = float(np.linalg.norm(u)) * float(np.linalg.norm(A.points, axis=1).max())
        tol = 1e-12 * max(1.0, scale)
    return values >= values.max() - tol


def diameter(A) -> float:
    """Largest pairwise Euclidean distance over A (equals diam conv(A)),
    computed once per support."""
    return _coerce_support(A)._diameter


def hull_volume(A) -> float:
    """Euclidean volume of conv(A), exactly supported for m <= 3.

    Read from the support's cached hull.  Returns 0.0 for degenerate hulls
    (affine dimension < m); the degeneracy itself is queryable as
    ``A.degenerate``.  Dimensions above 3 are refused.
    """
    A = _coerce_support(A)
    if A.dim > 3:
        raise InputError(f"hull_volume supports m <= 3, got m = {A.dim}")
    return 0.0 if A._hull is None else A._hull[2]


def interior_contains(A, p, tol: float) -> bool:
    """True iff p lies in the interior of conv(A) with margin ``tol``.

    Decided against the facet inequalities of the hull: every facet must
    clear the point by at least ``tol``.  A degenerate hull has no interior.
    """
    A = _coerce_support(A)
    if not tol > 0:
        raise InputError("tol must be positive")
    p = _check_vector(p, A.dim, name="p")
    return bool(_interior_mask(A, p[None, :], tol)[0])


def _interior_mask(A: SupportSet, P: np.ndarray, tol: float) -> np.ndarray:
    """:func:`interior_contains` for each row of P (shape (N, m)).

    The slack of the F facets, shape (F, N), is accumulated one coordinate
    at a time in coordinate order, the order of a sum over the coordinate
    axis, and without BLAS, so a point's answer does not depend on its
    batch; the test over the facets then runs along rows of N points."""
    rows = A.facets
    if rows is None:
        return np.zeros(P.shape[0], dtype=bool)
    slack = np.multiply.outer(rows[:, 0], P[:, 0])
    for i in range(1, A.dim):
        slack += np.multiply.outer(rows[:, i], P[:, i])
    slack += rows[:, -1, None]
    return np.all(slack <= -tol, axis=0)


class QuadForm:
    """A symmetric quadratic form on R^m given by its Gram array.

    The stored array is symmetrized on construction, so symmetry is exact.
    Calling the form evaluates Q(u) = u^T M u.
    """

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=float)
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

    def __add__(self, other):
        if not isinstance(other, QuadForm):
            return NotImplemented
        return QuadForm(self.entries + other.entries)

    def __mul__(self, scalar):
        return QuadForm(self.entries * float(scalar))

    __rmul__ = __mul__

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
    ok = np.ones(G.shape[-1], dtype=bool)
    L = [[None] * m for _ in range(m)]
    for j in range(m):
        pivot = G[j, j]
        for k in range(j):
            pivot = pivot - L[j][k] * L[j][k]
        positive = pivot > 0.0
        ok &= positive
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


def ellipsoid_volume(Q: QuadForm) -> float:
    """Volume of the dual unit ball: vol(B_Q°) = b_m sqrt(det Q).

    Small negative determinants from roundoff clamp to zero; a clearly
    negative determinant is an error.
    """
    d = form_det(Q)
    scale = max(1.0, float(np.abs(Q.entries).max())) ** Q.dim
    if d < -1e-9 * scale:
        raise SingularFormError(f"negative determinant {d:.3e} beyond roundoff")
    b_m, _ = ball_sphere_constants(Q.dim)
    return b_m * math.sqrt(max(d, 0.0))


@lru_cache(maxsize=None)
def ball_sphere_constants(m: int) -> tuple[float, float]:
    """Volumes (b_m, s_m) of the unit ball in R^m and unit sphere S^m in R^{m+1}.

    b_m = pi^{m/2} / Gamma(m/2 + 1) and s_m = 2 pi^{(m+1)/2} / Gamma((m+1)/2);
    they satisfy m! b_m s_m / (2 pi)^m = 2.
    """
    if m < 1:
        raise InputError("m must be a positive integer")
    b_m = math.exp(0.5 * m * math.log(math.pi) - math.lgamma(0.5 * m + 1.0))
    s_m = 2.0 * math.exp(0.5 * (m + 1) * math.log(math.pi) - math.lgamma(0.5 * (m + 1)))
    return b_m, s_m
