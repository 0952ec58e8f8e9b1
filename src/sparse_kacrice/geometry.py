"""Convex geometry of finite support sets and quadratic-form calculus.

A finite set A of points in R^m carries everything the rest of the package
needs from convex geometry: its support function, exposed faces, diameter,
and the Euclidean volume of its convex hull.  Quadratic forms enter through
the metric attached to an exponential sum; this module supplies the dual
form (Gram-array inverse), determinants, ellipsoid volumes, and the
unit-ball/unit-sphere constants that normalize every density in the package.
"""

from __future__ import annotations

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


def _coerce_support(A) -> SupportSet:
    return A if isinstance(A, SupportSet) else SupportSet(A)


def _check_vector(u, m: int, name: str = "u") -> np.ndarray:
    vec = np.asarray(u, dtype=float).reshape(-1)
    if vec.shape[0] != m:
        raise InputError(f"{name} has length {vec.shape[0]}, expected {m}")
    if not np.all(np.isfinite(vec)):
        raise InputError(f"{name} must be finite")
    return vec


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
    """Largest pairwise Euclidean distance over A (equals diam conv(A))."""
    A = _coerce_support(A)
    if A.size == 1:
        return 0.0
    diff = A.points[:, None, :] - A.points[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=-1)).max())


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
    """:func:`interior_contains` for each row of P (shape (N, m)), summed
    without BLAS so a point's answer does not depend on its batch."""
    rows = A.facets
    if rows is None:
        return np.zeros(P.shape[0], dtype=bool)
    slack = (P[:, None, :] * rows[:, :-1]).sum(axis=-1) + rows[:, -1]
    return np.all(slack <= -tol, axis=1)


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


def dual_form(Q: QuadForm, cond_limit: float = DUAL_COND_LIMIT) -> QuadForm:
    """Dual quadratic form Q°, realized as the Gram-array inverse.

    Q°(u) = sup{<u, v>^2 : Q(v) <= 1}; its Gram array is the inverse of Q's.
    The inversion goes through a Cholesky factorization and is refused
    (SingularFormError) when the factorization fails, an eigenvalue is not
    positive, or the condition number exceeds ``cond_limit``.
    """
    flat, L = _dual_gate(Q.entries[None], cond_limit=cond_limit)
    if flat[0]:
        raise SingularFormError(
            f"form is not positive definite or its condition number exceeds {cond_limit:.1e}"
        )
    return _dual_from_cholesky(L[0])


def _dual_gate(
    G: np.ndarray, det_floor: float = -math.inf, cond_limit: float = DUAL_COND_LIMIT
) -> tuple[np.ndarray, np.ndarray]:
    """(flat, L) for the stack of Gram arrays G (shape (N, m, m)).

    ``flat`` marks the rows whose form has no dual: a determinant below
    ``det_floor``, a non-positive eigenvalue, a condition number above
    ``cond_limit``, or a failed Cholesky factorization.  ``L`` holds the
    Cholesky factors of the other rows.  The eigenvalues and the factors
    read the lower triangle of each row.
    """
    eigs = np.linalg.eigvalsh(G)
    flat = (np.linalg.det(G) < det_floor) | (eigs[:, 0] <= 0.0)
    flat |= eigs[:, -1] > cond_limit * eigs[:, 0]
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        # A stacked factorization fails as a whole; redo the other rows one by one.
        L = np.zeros_like(G)
        for i in np.flatnonzero(~flat):
            try:
                L[i] = np.linalg.cholesky(G[i])
            except np.linalg.LinAlgError:
                flat[i] = True
    return flat, L


def _dual_from_cholesky(L: np.ndarray) -> QuadForm:
    """The dual form (L L^T)^{-1} = L^{-T} L^{-1} from a Cholesky factor."""
    inv_chol = np.linalg.inv(L)
    return QuadForm(inv_chol.T @ inv_chol)


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
