"""Monte-Carlo estimate of the expected zero count, one variable.

Independent of the density pipeline: draw standard normal coefficients,
count the real zeros of each realized sum exactly, and average.

The count needs no scan interval.  With the exponents sorted, a draw whose
coefficient signs change at most once has exactly that many zeros, by
Descartes' rule of signs for exponential sums (Pólya–Szegő, *Problems and
Theorems in Analysis II*, Part V; Jameson 2006, *Math. Gazette* 90).  The
other draws go through a Rolle cascade.  Between two zeros of
``f = sum_j c_j exp(b_j x)`` lies a zero of the derivative of
``exp(-b_1 x) f``, which is ``sum_{j>1} c_j (b_j - b_1) exp((b_j - b_1) x)``:
a sum with one term fewer and the same coefficient signs.  Recursing down
to two terms, whose zero is closed-form, the zeros of each level split a
per-draw root bound (outside it the leading or trailing term outweighs all
others) into pieces on which the level above is monotone, so each piece
holds at most one of its zeros, found by safeguarded Newton.

The top level needs fewer of them.  On each piece of level 1 (the k - 1
terms from the second on) that level is monotone, so ``exp(-b_1 x) f`` is
unimodal there, with its extremum at the piece's level-1 zero.  Where f's
signs at the piece's two ends strictly differ, the piece holds exactly one
zero of f whatever the extremum's sign.  Where level 1's sign at the
piece's left end equals f's, ``s exp(-b_1 x) f`` (s that sign) rises to a
maximum and then falls, and the piece holds no zero.  So Newton runs only
on the other level-1 brackets, those whose end signs agree or touch zero
and that hold a minimum.  The zeros of f are then the strict sign changes
along f's signs at minus infinity, the level-1 ends, the extrema located
and plus infinity, plus the exact zeros among those points.  A three-term
draw needs no cascade: with signs +-+ or -+-, the weighted AM-GM
inequality bounds its outer terms below by one exponential, equal to them
at one x, so its count is closed-form.  And Newton stops a row once its
accepted step is below 1e-8 (1 + |x|): it converges quadratically, so the
error left is of order that step's square, roundoff.

Every array of the count is terms-major: a block of n draws of a k-term
sum is held as C-contiguous log weights L and signs S of shape (k, n), one
column per draw, and each level of the cascade keeps its last m rows.
Columns are gathered with ``take`` and ``compress``, never with a fancy
index, which would hand back a Fortran-ordered copy.  Sums over the terms
then add contiguous rows, one after another in term order
(:func:`.expsum._term_sum`), so a draw's zeros and count do not depend on
the other draws of its batch.  Each level writes its zeros in ascending order
per draw, so the next level's piece ends need no sort, and Newton steps on
the log ratio of the positive and negative parts of the level, which is
nearly linear in x.

Signs are evaluated overflow-safely (each value is scaled by its largest
term; signs are unchanged).  The draws are one keyed stream: for a seed s
and a k-term sum, draw j is the j-th run of k normals of
``Generator(Philox(key=s))``, normal i of each run going to term i in the
sum's own order.  So an estimate of n draws counts exactly the first n
draws of any longer estimate with the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .expsum import ExpSum, _term_sum
from .geometry import _as_count, _as_floats, _is_int

__all__ = ["McConfig", "sample_zero_count", "estimate_esol"]

#: Draws counted together, so memory does not grow with the sample count.
#: The count keeps its working set to a few (terms, draws) arrays per block.
BLOCK = 8192
#: Relative step sizes at which a zero counts as converged: a bisection
#: step below NEWTON_TOL, or an accepted Newton step below NEWTON_STOP,
#: since the error that Newton's quadratic convergence leaves after such a
#: step is of order its square, roundoff.  And the iteration cap (bisection
#: alone would reach NEWTON_TOL well within it).
NEWTON_TOL = 1e-13
NEWTON_STOP = 1e-8
NEWTON_STEPS = 100


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo run configuration: sample count and seed.

    The seed is the key of the estimate's one Philox stream, so it must lie
    in [0, 2**128).
    """

    n_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        _as_count(self.n_samples, "n_samples must be an integer of at least 1")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**128:
            raise InputError(f"seed must be an integer in [0, 2**128), not {self.seed!r}")


def _sorted_terms(E: ExpSum):
    """Term order by ascending exponent, the exponents and log weights."""
    if E.dim != 1:
        raise InputError("Monte-Carlo zero counting is limited to one variable")
    order = np.argsort(E.support.points[:, 0])
    return order, E.support.points[order, 0], E.log_coeffs[order]


def _signs(b, L, S, X):
    """Signs of sum_j S_j exp(b_j x + L_j) at points X, shape (points, draws).

    ``L`` and ``S`` are (terms, draws) and ``X`` is (points, draws).  One
    point is evaluated at a time, so the working set is a single
    (terms, draws) array whose sum over terms adds contiguous rows.
    """
    out = np.empty(X.shape)
    for p, x in enumerate(X):
        T = b[:, None] * x
        T += L
        T -= T.max(axis=0)
        T = np.exp(T, out=T)
        T *= S
        np.sign(_term_sum(T), out=out[p])
    return out


def _pieces(b, L, S, crit):
    """Ends of the monotone pieces of one level and its signs there.

    ``L`` and ``S`` are (m, draws); ``crit``, (m - 2, draws), holds the
    zeros of the level below, ascending in each draw with the absent ones
    (inf) last.  The outer ends are the root bound, past which the first
    or last term outweighs the other m - 1 together.  Clipping into it
    keeps that order, so both results are (m, draws), ends ascending.
    """
    gap = np.log(len(b) - 1)
    lo = ((L[:1] - L[1:] - gap) / (b[1:] - b[0])[:, None]).min(axis=0)
    hi = ((L[:-1] + gap - L[-1:]) / (b[-1] - b[:-1])[:, None]).max(axis=0)
    inner = np.clip(crit, lo, hi)
    ends = np.vstack([lo, inner, hi])
    signs = np.vstack([S[0], _signs(b, L, S, inner), S[-1]])
    return ends, signs


def _newton(b, L, S, lo, hi, s_lo):
    """The zero in each bracket (lo, hi) whose sign at lo is s_lo.

    ``L`` and ``S`` are (terms, brackets); the bracket arrays and the
    result are (brackets,).  The step is Newton's on psi = log P - log N,
    where P and N are the parts of the scaled level with positive and with
    negative signs: psi has the level's zeros and is linear in x for two
    terms.  With a = P + N and v = P - N, psi = 2 artanh(v / a).  A step is
    kept when it lands inside the bracket and at least halves the step
    before; otherwise the bracket is bisected.  A row converges on a kept
    step below ``NEWTON_STOP`` or a bisection step below ``NEWTON_TOL``,
    relative to 1 + |x|.  Each zero is written out in the iteration its
    bracket converges, and the bracket leaves every array then, so later
    iterations work on the live brackets alone.
    """
    x = 0.5 * (lo + hi)
    step = hi - lo
    out = np.empty_like(x)
    idx = np.arange(len(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_STEPS):
            if idx.size == 0:
                break
            T = b[:, None] * x
            T += L
            T -= T.max(axis=0)
            T = np.exp(T, out=T)
            a, da = _term_sum(T), _term_sum(b[:, None] * T)
            T *= S
            v, dv = _term_sum(T), _term_sum(b[:, None] * T)
            # freed here, not when the next iteration's block is built
            del T
            left = np.sign(v) == s_lo
            lo, hi = np.where(left, x, lo), np.where(left, hi, x)
            r = v / a
            newton = a * np.arctanh(r) * (1.0 - r * r) / (dv - r * da)
            inside = (x - newton >= lo) & (x - newton <= hi)
            halves = np.abs(newton) < 0.5 * np.abs(step)
            accept = inside & halves
            step = np.where(accept, newton, x - 0.5 * (lo + hi))
            live = np.abs(step) > np.where(accept, NEWTON_STOP, NEWTON_TOL) * (1.0 + np.abs(x))
            x = x - step
            if live.all():
                continue
            out[idx[~live]] = x[~live]
            idx, x, lo, hi, step, s_lo = (u[live] for u in (idx, x, lo, hi, step, s_lo))
            L, S = L.compress(live, axis=1), S.compress(live, axis=1)
    out[idx] = x
    return out


def _level_zeros(b, L, S, crit):
    """Zeros of one level of the cascade, (m - 1, draws) for m terms.

    ``crit`` holds the zeros of the level below (see :func:`_pieces`).  Each
    zero goes to its rank among its draw's sign-change pieces, so the result
    is ascending in each draw with the absent zeros (inf) last.
    """
    ends, signs = _pieces(b, L, S, crit)
    change = signs[:-1] * signs[1:] < 0
    piece, draw = np.nonzero(change)
    rank = np.cumsum(change, axis=0)[piece, draw] - 1
    zeros = np.full((len(b) - 1, S.shape[1]), np.inf)
    lo, hi = ends[piece, draw], ends[piece + 1, draw]
    zeros[rank, draw] = _newton(
        b, L.take(draw, axis=1), S.take(draw, axis=1), lo, hi, signs[piece, draw]
    )
    return zeros


def _top_count(b, L, S, L1, crit):
    """Zeros of f = sum_j S_j exp(b_j x + L_j) per draw, given level 1.

    ``L1`` holds the log weights of level 1, the last k - 1 terms, and
    ``crit`` the zeros of level 2, which end level 1's pieces.  On each
    piece, ``exp(-b[0] x) f`` is unimodal, so a piece whose f-signs at its
    ends strictly differ holds exactly one zero of f and its extremum is
    not located; nor is it where level 1's sign at the left end equals
    f's, a maximum of f's sign times ``exp(-b[0] x) f``.  A piece with an
    exact zero at an end still needs it, unless it holds a maximum.
    """
    S1 = S[1:]
    ends, signs = _pieces(b[1:], L1, S1, crit)
    fs = _signs(b, L, S, ends)
    need = (signs[:-1] * signs[1:] < 0) & ~(fs[:-1] * fs[1:] < 0) & (signs[:-1] != fs[:-1])
    piece, draw = np.nonzero(need)
    lo, hi = ends[piece, draw], ends[piece + 1, draw]
    x = _newton(b[1:], L1.take(draw, axis=1), S1.take(draw, axis=1), lo, hi, signs[piece, draw])
    fx = _signs(b, L.take(draw, axis=1), S.take(draw, axis=1), x[None])[0]
    # f's signs in x order: S_0 at minus infinity, the ends, S_{k-1} at plus
    # infinity; a located extremum splits its piece, whose ends' signs do
    # not strictly differ, into two
    f_lo, f_hi = fs[piece, draw], fs[piece + 1, draw]
    split = np.concatenate([draw[f_lo * fx < 0], draw[fx * f_hi < 0], draw[fx == 0]])
    # a level-2 zero clipped to (or absent and set to) an outer end repeats
    # that end, where an exact zero of f counts once
    zero = fs == 0
    zero[1:] &= ends[1:] != ends[:-1]
    return (
        zero.sum(axis=0)
        + (fs[:-1] * fs[1:] < 0).sum(axis=0)
        + (S[0] * fs[0] < 0)
        + (fs[-1] * S[-1] < 0)
        + np.bincount(split, minlength=S.shape[1])
    )


def _rolle_count(b, L, S):
    """Zeros of sum_j S_j exp(b_j x + L_j) per draw, for at least 3 terms.

    ``L`` and ``S`` are (terms, draws), C-contiguous; the result is (draws,).
    Three terms are counted in closed form.  Above that, each level below
    the top passes its zeros up (:func:`_level_zeros`); the top level
    locates only the extrema that can change its count (:func:`_top_count`).
    """
    if len(b) == 3:
        # Signs +-+ or -+-: by weighted AM-GM the outer terms together are at
        # least exp(M + b_1 x), with equality at one x, so there are 2, 1 or
        # 0 zeros as L_1 is above, equal to or below M.
        lam = (b[2] - b[1]) / (b[2] - b[0])
        M = lam * (L[0] - math.log(lam)) + (1.0 - lam) * (L[2] - math.log(1.0 - lam))
        return 2 * (L[1] > M) + (L[1] == M)
    # Level i holds the terms from i on, the last k - i rows: the derivative
    # of exp(-b_{i-1} x) times level i - 1, whose coefficients gain the
    # factors b_j - b_{i-1} > 0.
    Ls = [L]
    for i in range(1, len(b) - 1):
        Ls.append(Ls[-1][1:] + np.log(b[i:] - b[i - 1])[:, None])
    L2 = Ls.pop()
    crit = np.where(S[-2] != S[-1], (L2[0] - L2[1]) / (b[-1] - b[-2]), np.inf)[None, :]
    # each level is dropped once the level above has its zeros
    del L2
    while len(Ls) > 2:
        Li = Ls.pop()
        m = len(Li)
        crit = _level_zeros(b[-m:], Li, S[-m:], crit)
    return _top_count(b, L, S, Ls[1], crit)


def _count_zeros(b, w, C):
    """Real zeros of sum_j C[j, r] exp(b_j x + w_j) for each draw r, b ascending.

    ``C`` is (terms, draws), one column per draw.  Descartes' sign changes
    come from a bool array; only the draws that need the cascade get float
    signs and log weights, gathered with ``take``, which keeps them
    C-contiguous.
    """
    counts = np.zeros(C.shape[1], dtype=np.int64)
    sparse = np.any(C == 0.0, axis=0)
    for r in np.flatnonzero(sparse):
        keep = C[:, r] != 0.0
        counts[r] = _count_zeros(b[keep], w[keep], C[keep, r : r + 1])[0]
    neg = C < 0.0
    changes = (neg[1:] != neg[:-1]).sum(axis=0)
    counts[~sparse] = changes[~sparse]
    hard = np.flatnonzero(~sparse & (changes > 1))
    if hard.size:
        H = C.take(hard, axis=1)
        S = np.sign(H)
        L = np.log(np.abs(H, out=H), out=H)
        L += w[:, None]
        counts[hard] = _rolle_count(b, L, S)
    return counts


def sample_zero_count(E: ExpSum, coeffs_draw) -> int:
    """Number of real zeros of the sum with coefficients alpha_a * draw_a.

    Exact for any real exponents: Descartes' rule of signs when the signs
    change at most once, the weighted AM-GM bound of the outer terms for
    three terms whose signs change twice, else a Rolle cascade inside the
    draw's own root bound.  A zero coefficient drops its term, and a
    multiple zero counts once.  The result never exceeds the number of
    terms minus one.
    """
    order, b, w = _sorted_terms(E)
    xi = _as_floats(coeffs_draw, "coefficient draw must give real numbers").reshape(-1)
    if xi.shape[0] != E.n_terms or not np.all(np.isfinite(xi)):
        raise InputError(f"coefficient draw must be {E.n_terms} finite reals")
    return int(_count_zeros(b, w, xi[order][:, None])[0])


def _draw_blocks(order, seed: int, n: int):
    """Standard normal draws for n samples, (terms, draws) blocks in turn.

    One generator, ``Generator(Philox(key=seed))``, draws the stream in
    (draws, terms) blocks of up to ``BLOCK`` draws, the last one cut to n,
    so draw j is its j-th run of ``len(order)`` normals.  Each block is
    handed on terms-major, row i holding term ``order[i]``: a row index
    gathers it, which gives a C-contiguous copy.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    for first in range(0, n, BLOCK):
        yield rng.standard_normal((min(BLOCK, n - first), len(order))).T[order]


def estimate_esol(E: ExpSum, cfg: McConfig | None = None) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of the real zero count.

    Every sample's zeros are counted exactly, as in
    :func:`sample_zero_count`, over the whole real line; there is no scan
    interval.  Draw j is the j-th run of ``E.n_terms`` normals of one
    Philox generator keyed by the seed (:func:`_draw_blocks`), so the first
    n draws of an estimate do not depend on its sample count.  They are
    counted in blocks of ``BLOCK`` draws; only a histogram of counts is kept.
    """
    order, b, w = _sorted_terms(E)
    cfg = cfg or McConfig()
    n = cfg.n_samples
    tally = np.zeros(E.n_terms, dtype=np.int64)
    for xi in _draw_blocks(order, cfg.seed, n):
        tally += np.bincount(_count_zeros(b, w, xi), minlength=E.n_terms)
    s1 = int(tally @ np.arange(E.n_terms))
    s2 = int(tally @ np.arange(E.n_terms) ** 2)
    mean = s1 / n
    stderr = math.sqrt((n * s2 - s1 * s1) / (n * (n - 1)) / n) if n > 1 else float("inf")
    return mean, stderr
