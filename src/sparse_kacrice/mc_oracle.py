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
holds at most one of its zeros, found by safeguarded Newton.  The zeros
of f are the sign changes of f over its own pieces.

Every array of the count is terms-major: a block of n draws of a k-term
sum is held as log weights L and signs S of shape (k, n), one column per
draw, and each level of the cascade keeps its last m rows.  Reductions over
the terms then run over axis 0, across contiguous rows, and the
derivative at the Newton iterates is ``b @ V``.

Signs are evaluated overflow-safely (each value is scaled by its largest
term; signs are unchanged) and results are reproducible: the sample
stream is partitioned into fixed-size chunks with counter-based
substreams, so results do not depend on how work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .expsum import ExpSum

__all__ = ["McConfig", "sample_zero_count", "estimate_esol"]

#: Samples per substream chunk (fixed, so the stream is scheduler-independent).
CHUNK = 512
#: Chunks counted together, so memory does not grow with the sample count.
BLOCK_CHUNKS = 8
#: Relative step size at which a Newton zero counts as converged, and the
#: iteration cap (bisection alone would reach the tolerance well within it).
NEWTON_TOL = 1e-13
NEWTON_STEPS = 100


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo run configuration: sample count and seed."""

    n_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise InputError("n_samples must be at least 1")


def _sorted_terms(E: ExpSum):
    """Term order by ascending exponent, the exponents and log weights."""
    if E.dim != 1:
        raise InputError("Monte-Carlo zero counting is limited to one variable")
    order = np.argsort(E.support.points[:, 0])
    return order, E.support.points[order, 0], E.log_coeffs[order]


def _signs(b, L, S, X):
    """Signs of sum_j S_j exp(b_j x + L_j) at points X, shape (points, draws).

    ``L`` and ``S`` are (terms, draws) and ``X`` is (points, draws).
    """
    T = b[:, None, None] * X + L[:, None, :]
    return np.sign((S[:, None, :] * np.exp(T - T.max(axis=0))).sum(axis=0))


def _pieces(b, L, S, crit):
    """Ends of the monotone pieces of one level and its signs there.

    ``L`` and ``S`` are (m, draws); ``crit``, (m - 1, draws), holds the
    zeros of the level below (inf where absent).  The outer ends are the
    root bound, past which the first or last term outweighs the other
    m - 1 together.  Both results are (m + 1, draws), ends ascending.
    """
    gap = np.log(len(b) - 1)
    lo = ((L[:1] - L[1:] - gap) / (b[1:] - b[0])[:, None]).min(axis=0)
    hi = ((L[:-1] + gap - L[-1:]) / (b[-1] - b[:-1])[:, None]).max(axis=0)
    inner = np.sort(np.clip(crit, lo, hi), axis=0)
    ends = np.vstack([lo, inner, hi])
    signs = np.vstack([S[0], _signs(b, L, S, inner), S[-1]])
    return ends, signs


def _newton(b, L, S, lo, hi, s_lo):
    """The zero in each bracket (lo, hi) whose sign at lo is s_lo.

    ``L`` and ``S`` are (terms, brackets); the bracket arrays and the
    result are (brackets,).  Newton steps are kept when they land inside
    the bracket and at least halve the step before; otherwise the bracket
    is bisected.  Live brackets stay packed: those that converge are
    written out and dropped once per iteration.
    """
    x = 0.5 * (lo + hi)
    step = hi - lo
    out = np.empty_like(x)
    idx = np.arange(len(x))
    for _ in range(NEWTON_STEPS):
        if idx.size == 0:
            break
        T = b[:, None] * x + L
        V = S * np.exp(T - T.max(axis=0))
        v = V.sum(axis=0)
        left = np.sign(v) == s_lo
        lo, hi = np.where(left, x, lo), np.where(left, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = v / (b @ V)
        inside = (x - newton >= lo) & (x - newton <= hi)
        halves = np.abs(newton) < 0.5 * np.abs(step)
        step = np.where(inside & halves, newton, x - 0.5 * (lo + hi))
        live = np.abs(step) > NEWTON_TOL * (1.0 + np.abs(x))
        x = x - step
        if not live.all():
            out[idx[~live]] = x[~live]
            idx, x, lo, hi, step, s_lo = (a[live] for a in (idx, x, lo, hi, step, s_lo))
            L, S = L[:, live], S[:, live]
    out[idx] = x
    return out


def _rolle_count(b, L, S):
    """Zeros of sum_j S_j exp(b_j x + L_j) per draw, for at least 3 terms.

    ``L`` and ``S`` are (terms, draws); the result is (draws,).
    """
    # Level i holds the terms from i on, the last k - i rows: the derivative
    # of exp(-b_{i-1} x) times level i - 1, whose coefficients gain the
    # factors b_j - b_{i-1} > 0.
    Ls = [L]
    for i in range(1, len(b) - 1):
        Ls.append(Ls[-1][1:] + np.log(b[i:] - b[i - 1])[:, None])
    L2 = Ls.pop()
    crit = np.where(S[-2] != S[-1], (L2[0] - L2[1]) / (b[-1] - b[-2]), np.inf)[None, :]
    for Li in reversed(Ls[1:]):
        m = len(Li)
        bi, Si = b[-m:], S[-m:]
        ends, signs = _pieces(bi, Li, Si, crit)
        piece, draw = np.nonzero(signs[:-1] * signs[1:] < 0)
        crit = np.full((m - 1, S.shape[1]), np.inf)
        lo, hi = ends[piece, draw], ends[piece + 1, draw]
        crit[piece, draw] = _newton(bi, Li[:, draw], Si[:, draw], lo, hi, signs[piece, draw])
    _, signs = _pieces(b, L, S, crit)
    return (signs == 0).sum(axis=0) + (signs[:-1] * signs[1:] < 0).sum(axis=0)


def _count_zeros(b, w, C):
    """Real zeros of sum_j C[j, r] exp(b_j x + w_j) for each draw r, b ascending.

    ``C`` is (terms, draws), one column per draw.
    """
    counts = np.zeros(C.shape[1], dtype=np.int64)
    sparse = np.any(C == 0.0, axis=0)
    for r in np.flatnonzero(sparse):
        keep = C[:, r] != 0.0
        counts[r] = _count_zeros(b[keep], w[keep], C[keep, r : r + 1])[0]
    S = np.sign(C)
    changes = (S[1:] != S[:-1]).sum(axis=0)
    counts[~sparse] = changes[~sparse]
    hard = ~sparse & (changes > 1)
    if np.any(hard):
        counts[hard] = _rolle_count(b, np.log(np.abs(C[:, hard])) + w[:, None], S[:, hard])
    return counts


def sample_zero_count(E: ExpSum, coeffs_draw) -> int:
    """Number of real zeros of the sum with coefficients alpha_a * draw_a.

    Exact for any real exponents: Descartes' rule of signs when the signs
    change at most once, else a Rolle cascade inside the draw's own root
    bound.  A zero coefficient drops its term, and a multiple zero counts
    once.  The result never exceeds the number of terms minus one.
    """
    order, b, w = _sorted_terms(E)
    xi = np.asarray(coeffs_draw, dtype=float).reshape(-1)
    if xi.shape[0] != E.n_terms or not np.all(np.isfinite(xi)):
        raise InputError(f"coefficient draw must be {E.n_terms} finite reals")
    return int(_count_zeros(b, w, xi[order][:, None])[0])


def _chunk_draws(E: ExpSum, seed: int, chunk_index: int) -> np.ndarray:
    """Standard normal draws for one fixed-size chunk, from its own substream.

    The substream is ``Philox(key=seed).jumped(chunk_index)``, built
    directly at its counter: a jump advances the third counter word by one.
    """
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, chunk_index, 0]))
    return rng.standard_normal((E.n_terms, CHUNK))


def estimate_esol(E: ExpSum, cfg: McConfig | None = None) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of the real zero count.

    Every sample's zeros are counted exactly, as in
    :func:`sample_zero_count`, over the whole real line; there is no scan
    interval.  Draws are counted in blocks of ``BLOCK_CHUNKS`` chunks and
    only a histogram of counts is kept.
    """
    order, b, w = _sorted_terms(E)
    cfg = cfg or McConfig()
    n = cfg.n_samples
    n_chunks = (n + CHUNK - 1) // CHUNK
    tally = np.zeros(E.n_terms, dtype=np.int64)
    for first in range(0, n_chunks, BLOCK_CHUNKS):
        chunks = range(first, min(first + BLOCK_CHUNKS, n_chunks))
        xi = np.concatenate([_chunk_draws(E, cfg.seed, c) for c in chunks], axis=1)
        xi = xi[order, : n - first * CHUNK]
        tally += np.bincount(_count_zeros(b, w, xi), minlength=E.n_terms)
    s1 = int(tally @ np.arange(E.n_terms))
    s2 = int(tally @ np.arange(E.n_terms) ** 2)
    mean = s1 / n
    stderr = math.sqrt((n * s2 - s1 * s1) / (n * (n - 1)) / n) if n > 1 else float("inf")
    return mean, stderr
