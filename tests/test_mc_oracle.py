"""Tests for the Monte-Carlo zero-count estimator."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sparse_kacrice import (
    ExpSum,
    InputError,
    McConfig,
    esol_total,
    estimate_esol,
    kostlan,
    sample_zero_count,
)
from sparse_kacrice import mc_oracle
from sparse_kacrice.mc_oracle import BLOCK, _draw_blocks

TWO_TERM = ExpSum([[0.0], [1.0]])
THREE_TERM = ExpSum([[0.0], [1.0], [2.0]])
_SIX_TERM = [0.0, 0.3, 1.1, math.e, 3.9, 4.0]
# real exponents out of order, reweighted by e^{0.4 b}
_REAL = np.array([2.9, -0.6, 1.3, 0.4, 3.2])


class TestConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            McConfig(n_samples=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_samples": 1000.5},
            {"n_samples": True},
            {"n_samples": "100"},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": 2**128},
            {"seed": False},
        ],
        ids=[
            "samples-fractional",
            "samples-bool",
            "samples-str",
            "seed-negative",
            "seed-fractional",
            "seed-past-key-range",
            "seed-bool",
        ],
    )
    def test_rejects_non_integral_or_out_of_range(self, kwargs):
        with pytest.raises(InputError):
            McConfig(**kwargs)

    def test_accepts_numpy_integers_and_the_full_key_range(self):
        cfg = McConfig(n_samples=np.int64(1000), seed=np.uint64(7))
        assert estimate_esol(TWO_TERM, cfg) == estimate_esol(TWO_TERM, McConfig(1000, 7))
        McConfig(seed=2**128 - 1)

    def test_defaults(self):
        cfg = McConfig()
        assert cfg.n_samples == 100_000


class TestSampleZeroCount:
    def test_same_signs_never_cross(self):
        assert sample_zero_count(TWO_TERM, [1.0, 1.0]) == 0

    def test_opposite_signs_cross_once(self):
        assert sample_zero_count(TWO_TERM, [1.0, -1.0]) == 1

    def test_quadratic_pattern_crosses_twice(self):
        # e^{2x} - 3 e^{x} + 1 factors over u = e^x with two positive roots
        assert sample_zero_count(THREE_TERM, [1.0, -3.0, 1.0]) == 2

    def test_scaling_invariance(self):
        draws = ([1.0, -2.0], [0.3, 0.9], [-1.0, 0.5])
        for d in draws:
            a = sample_zero_count(TWO_TERM, d)
            b = sample_zero_count(TWO_TERM, [5.0 * v for v in d])
            assert a == b

    def test_count_never_exceeds_term_bound(self):
        # a k-term real exponential sum has at most k - 1 real zeros
        rng = np.random.default_rng(5)
        for _ in range(50):
            draw = rng.standard_normal(3)
            assert sample_zero_count(THREE_TERM, draw) <= 2

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            sample_zero_count(TWO_TERM, [1.0])

    def test_rejects_non_finite_draw(self):
        for draw in ([1.0, math.nan], [math.inf, -1.0]):
            with pytest.raises(InputError):
                sample_zero_count(TWO_TERM, draw)

    def test_zero_coefficient_drops_its_term(self):
        assert sample_zero_count(THREE_TERM, [1.0, 0.0, -1.0]) == 1
        assert sample_zero_count(THREE_TERM, [0.0, 0.0, 1.0]) == 0

    def test_multiple_zeros_counted_once(self):
        # (e^x - 1)^2 touches zero at x = 0; (e^x - 1)^3 crosses there
        assert sample_zero_count(THREE_TERM, [1.0, -2.0, 1.0]) == 1
        four = ExpSum([[0.0], [1.0], [2.0], [3.0]])
        assert sample_zero_count(four, [-1.0, 3.0, -3.0, 1.0]) == 1

    def test_flat_minimum_between_close_zeros(self):
        # the derivative of f is e^x (e^x - 1)^3, so f has a flat minimum
        # of -1e-4 at x = 0 and crosses zero at about -0.15 and 0.13
        five = ExpSum([[0.0], [1.0], [2.0], [3.0], [4.0]])
        assert sample_zero_count(five, [0.25 - 1e-4, -1.0, 1.5, -1.0, 0.25]) == 2

    def test_far_zero_is_counted(self):
        # 1 - e^{x - 30} vanishes at x = 30
        assert sample_zero_count(TWO_TERM, [1.0, -math.exp(-30.0)]) == 1

    @pytest.mark.parametrize(
        "b, alpha",
        [
            (np.array(_SIX_TERM), np.ones(len(_SIX_TERM))),
            (_REAL, np.exp(0.4 * _REAL) * [1, 2, 0.5, 3, 1]),
        ],
        ids=["six-term", "reweighted-real"],
    )
    def test_matches_dense_grid_per_draw(self, b, alpha):
        E = ExpSum(b[:, None], alpha)
        order = np.argsort(b)
        rng = np.random.default_rng(17)
        for draw in rng.standard_normal((300, b.size)):
            assert sample_zero_count(E, draw) == _grid_zero_count(b[order], (alpha * draw)[order])


class TestEstimate:
    def test_deterministic_for_fixed_seed(self):
        cfg = McConfig(n_samples=4000, seed=11)
        a = estimate_esol(TWO_TERM, cfg)
        b = estimate_esol(TWO_TERM, cfg)
        assert a == b

    @pytest.mark.parametrize("seed", [0, 3, 12345, 2**31 - 1, 2**128 - 1])
    def test_blocks_are_the_keyed_stream(self, seed):
        # draw j is the j-th run of k normals of one keyed generator, normal
        # i going to term i; the blocks span several and end in a partial one
        n, order = 2 * BLOCK + 100, np.array([2, 0, 1])
        blocks = list(_draw_blocks(order, seed, n))
        assert [block.shape for block in blocks] == [(3, BLOCK), (3, BLOCK), (3, 100)]
        assert all(block.flags.c_contiguous for block in blocks)
        np.testing.assert_array_equal(np.concatenate(blocks, axis=1), _stream(3, seed, n).T[order])

    def test_shorter_estimate_counts_a_prefix_of_the_draws(self, monkeypatch):
        # an estimate of n draws counts the first n draws of a longer one
        count, counts = mc_oracle._count_zeros, []

        def record(*args):
            counts.append(count(*args))
            return counts[-1]

        monkeypatch.setattr(mc_oracle, "_count_zeros", record)
        E = kostlan(1, 4)
        estimate_esol(E, McConfig(n_samples=5_000, seed=13))
        short = np.concatenate(counts)
        counts.clear()
        estimate_esol(E, McConfig(n_samples=20_000, seed=13))
        long = np.concatenate(counts)
        assert short.shape == (5_000,) and long.shape == (20_000,)
        np.testing.assert_array_equal(short, long[:5_000])

    def test_seed_changes_estimate(self):
        a = estimate_esol(TWO_TERM, McConfig(n_samples=4000, seed=11))
        b = estimate_esol(TWO_TERM, McConfig(n_samples=4000, seed=12))
        assert a != b

    def test_two_term_hits_half(self):
        mean, stderr = estimate_esol(TWO_TERM, McConfig(n_samples=20_000, seed=0))
        assert stderr > 0.0
        assert abs(mean - 0.5) < 4.0 * stderr

    def test_three_term_matches_quadrature(self):
        want = esol_total(THREE_TERM).value
        mean, stderr = estimate_esol(THREE_TERM, McConfig(n_samples=20_000, seed=1))
        assert abs(mean - want) < 4.0 * stderr

    def test_far_zeros_counted_silently(self):
        # zeros spread far out (gaps of 0.5 and 1.2) are counted without a
        # truncation interval, and without any warning
        E = ExpSum([[0.0], [0.5], [1.7]], [1.0, 2.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, stderr = estimate_esol(E, McConfig(n_samples=20_000, seed=3))
        want = esol_total(E).value
        assert abs(mean - want) < 4.0 * stderr

    def test_wide_interval_stays_silent(self):
        # no scan interval is left to widen: the default count is silent
        E = ExpSum([[0.0], [0.5], [1.7]], [1.0, 2.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate_esol(E, McConfig(n_samples=5_000, seed=3))

    def test_affine_images_give_identical_estimates(self):
        # x -> (x - t) / s maps the zeros of the image onto those of E
        E = kostlan(1, 2)
        cfg = McConfig(n_samples=20_000, seed=3)
        want = estimate_esol(E, cfg)
        for scale, shift in ((0.25, 0.5), (3.0, -1.0), (-1.0, 0.0)):
            image = ExpSum(scale * E.support.points + shift, E.coeffs)
            assert estimate_esol(image, cfg) == want

    def test_one_term_sum_has_no_zeros(self):
        assert estimate_esol(ExpSum([[2.0]]), McConfig(n_samples=1000)) == (0.0, 0.0)


class TestBatchedCount:
    """The count ``estimate_esol`` runs on a whole block of draws equals the
    one-row count draw by draw: brackets that leave the Newton loop at
    different iterations keep their own zeros."""

    @pytest.mark.parametrize(
        "E, n",
        [
            (kostlan(1, 4), 2048),
            (kostlan(1, 7), 512),
            (ExpSum(np.array(_SIX_TERM)[:, None]), 512),
            (ExpSum(_REAL[:, None], np.exp(0.4 * _REAL) * [1, 2, 0.5, 3, 1]), 512),
        ],
        ids=["kostlan(1,4)", "kostlan(1,7)", "six-term", "reweighted-real"],
    )
    def test_block_count_equals_one_row_count(self, monkeypatch, E, n):
        count, blocks = mc_oracle._count_zeros, []

        def record(*args):
            blocks.append(count(*args))
            return blocks[-1]

        monkeypatch.setattr(mc_oracle, "_count_zeros", record)
        seed = 9
        estimate_esol(E, McConfig(n_samples=n, seed=seed))
        got = blocks[-1]
        want = [sample_zero_count(E, draw) for draw in _stream(E.n_terms, seed, n)]
        assert len(got) == n and max(got) >= 2
        np.testing.assert_array_equal(got, want)


class TestNewtonBatch:
    """A zero does not depend on the batch of brackets it is found in, so a
    count decided near a double root is the same in a block of any width."""

    @pytest.mark.parametrize(
        "E",
        [kostlan(1, 8), ExpSum(_REAL[:, None], np.exp(0.4 * _REAL) * [1, 2, 0.5, 3, 1])],
        ids=["kostlan(1,8)", "reweighted-real"],
    )
    def test_zeros_of_a_batch_equal_those_of_its_sub_batches(self, monkeypatch, E):
        calls, newton = [], mc_oracle._newton

        def record(*args):
            calls.append(args)
            return newton(*args)

        monkeypatch.setattr(mc_oracle, "_newton", record)
        estimate_esol(E, McConfig(n_samples=512, seed=11))
        monkeypatch.undo()
        assert max(len(b) for b, *_ in calls) == E.n_terms - 1 >= 4
        for b, L, S, lo, hi, s_lo in calls:
            whole = newton(b, L, S, lo, hi, s_lo)
            # Halves, thirds and the first 32 brackets one at a time.
            for parts in (2, 3, lo.size):
                pieces = np.array_split(np.arange(lo.size), parts)[:32]
                for idx in pieces:
                    part = newton(b, L.take(idx, axis=1), S.take(idx, axis=1), lo[idx], hi[idx], s_lo[idx])
                    np.testing.assert_array_equal(part, whole[idx])


class TestLayout:
    def test_cascade_arrays_are_c_contiguous(self, monkeypatch):
        # the cascade reduces over contiguous term rows only if every L and
        # S it hands on is C-contiguous; a fancy column index is not
        seen = []
        for name in ("_pieces", "_newton"):

            def wrapped(b, L, S, *rest, name=name, fn=getattr(mc_oracle, name)):
                seen.append((name, L.shape[0], L.flags.c_contiguous and S.flags.c_contiguous))
                return fn(b, L, S, *rest)

            monkeypatch.setattr(mc_oracle, name, wrapped)
        estimate_esol(kostlan(1, 4), McConfig(n_samples=4096, seed=2))
        assert {name for name, _, _ in seen} == {"_pieces", "_newton"}
        assert [entry for entry in seen if not entry[2]] == []


class TestPinnedEstimates:
    """Seeded estimates are pinned bit for bit: a rewrite of the count
    kernel must leave every draw's count as it is."""

    @pytest.mark.parametrize(
        "E, seed, want",
        [
            (ExpSum([[0.0], [0.5], [1.7]], [1.0, 2.0, 1.0]), 5, (0.7873, 0.006658100632342758)),
            (kostlan(1, 4), 6, (1.003, 0.007779791289954476)),
            (kostlan(1, 7), 7, (1.3053, 0.008925085809989255)),
        ],
        ids=["3-term", "5-term", "8-term"],
    )
    def test_estimate_is_pinned(self, E, seed, want):
        assert estimate_esol(E, McConfig(n_samples=10_000, seed=seed)) == want

    @pytest.mark.parametrize(
        "E, seed, want",
        [
            (TWO_TERM, 21, (0.49765, 0.0035355832464311486)),
            (kostlan(1, 2), 22, (0.71205, 0.004563198550803011)),
            (kostlan(1, 4), 23, (1.0055, 0.005461682799188355)),
            (ExpSum([[0.0], [math.sqrt(2)], [math.pi]], [1, 2, 1]), 24, (0.7608, 0.0047143694450014414)),
        ],
        ids=["two-term", "kostlan(1,2)", "kostlan(1,4)", "real-exponent"],
    )
    def test_multi_block_estimate_is_pinned(self, E, seed, want):
        # 20 000 draws span several blocks and end in a partial one
        assert 20_000 > 2 * BLOCK and 20_000 % BLOCK
        assert estimate_esol(E, McConfig(n_samples=20_000, seed=seed)) == want


class TestTopLevelRule:
    """On each piece of level 1, exp(-b_0 x) f is unimodal with its
    extremum at the piece's level-1 zero, so the top level locates that
    extremum only where f's signs at the piece's ends do not strictly
    differ, and not where s exp(-b_0 x) f, s f's sign at the left end,
    rises to it: such a maximum holds no zero.  The draws are for e^{jx},
    j < k, and each puts a piece with a level-1 zero in the named case;
    ``want`` is the number of positive roots of sum_j draw_j u^j."""

    CASES = {
        "k4-signs-differ": ((-1, -1, 1, 1), 1),
        "k4-agree-two-zeros": ((-2, 1, 2, -1), 2),
        "k4-agree-no-zero": ((-1, -1, -1, 1), 1),
        # a zero of f at x = log 2, level 1's root bound
        "k4-zero-at-end": ((-2, 3, 3, -2), 2),
        # the one piece whose f-signs agree holds a maximum of f > 0
        "k4-agree-maximum": ((-1, 3, 1, -1), 2),
        "k5-signs-differ": ((-1, -1, -1, -1, 1), 1),
        "k5-agree-two-zeros": ((-2, 1, 1, 1, -1), 2),
        "k5-agree-no-zero": ((-1, -1, 1, 1, -1), 0),
        # a zero of f at x = 0, level 1's root bound
        "k5-zero-at-end": ((-1, 1, 2, 1, -3), 2),
        # the one piece whose f-signs agree holds a maximum of -f > 0
        "k5-agree-maximum": ((-3, -1, 1, -1, 2), 1),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_count_matches_dense_grid(self, name):
        draw, want = self.CASES[name]
        b = np.arange(len(draw), dtype=float)
        assert sample_zero_count(ExpSum(b[:, None]), draw) == want
        assert _grid_zero_count(b, np.array(draw, dtype=float)) == want

    def test_top_call_gets_only_brackets_whose_f_signs_agree(self, monkeypatch):
        calls, newton = [], mc_oracle._newton

        def record(b, L, S, lo, hi, s_lo):
            calls.append((len(b), lo, hi, s_lo))
            return newton(b, L, S, lo, hi, s_lo)

        monkeypatch.setattr(mc_oracle, "_newton", record)
        rng = np.random.default_rng(4)
        draws = [np.array(draw, dtype=float) for draw, _ in self.CASES.values()]
        draws += list(rng.standard_normal((200, 4))) + list(rng.standard_normal((200, 5)))
        located = 0
        for draw in draws:
            b = np.arange(draw.size, dtype=float)
            calls.clear()
            sample_zero_count(ExpSum(b[:, None]), draw)
            for m, lo, hi, s_lo in calls:
                if m == draw.size - 1:
                    f_lo = _f_signs(b, draw, lo)
                    assert np.all(f_lo * _f_signs(b, draw, hi) >= 0)
                    # a minimum of s exp(-b_0 x) f: level 1's sign is
                    # opposite to f's, or f vanishes there
                    assert np.all(s_lo * f_lo <= 0)
                    located += lo.size
        assert located > 0


class TestThreeTermCount:
    """A three-term draw with signs +-+ or -+- has 2, 1 or 0 zeros as |c_1|
    is above, at or below the weighted AM-GM bound of the outer terms.
    Draws 1e-9 either side of the bound are checked against the sign of
    the sum at its extremum, taken in 50 digits."""

    @pytest.mark.parametrize("side", [1.0 + 1e-9, 1.0 - 1e-9], ids=["above", "below"])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+-+", "-+-"])
    @pytest.mark.parametrize("b", [(0.0, 1.0, 2.0), (0.0, math.sqrt(2), math.pi)], ids=["integer", "real"])
    def test_draws_next_to_the_bound(self, b, sign, side):
        mpmath = pytest.importorskip("mpmath")
        c0, c2 = 0.7, 1.9
        with mpmath.workdps(50):
            b0, b1, b2 = map(mpmath.mpf, b)
            lam = (b2 - b1) / (b2 - b0)
            bound = mpmath.exp(lam * mpmath.log(c0 / lam) + (1 - lam) * mpmath.log(c2 / (1 - lam)))
            c1 = float(bound * side)
            # e^{-b_1 x} f is least where its derivative vanishes
            x = mpmath.log(c0 * (b1 - b0) / (c2 * (b2 - b1))) / (b2 - b0)
            g = c0 * mpmath.exp(b0 * x) - c1 * mpmath.exp(b1 * x) + c2 * mpmath.exp(b2 * x)
            want = 2 if g < 0 else 0
        assert want == (2 if side > 1.0 else 0)
        E = ExpSum(np.array(b)[:, None])
        assert sample_zero_count(E, [sign * c0, -sign * c1, sign * c2]) == want


class TestNewtonAccuracy:
    """A row leaves Newton once its accepted Newton step is below 1e-8
    (1 + |x|); the error left is of order that step's square."""

    @pytest.mark.parametrize(
        "E",
        [kostlan(1, 4), ExpSum(_REAL[:, None], np.exp(0.4 * _REAL) * [1, 2, 0.5, 3, 1])],
        ids=["kostlan(1,4)", "reweighted-real"],
    )
    def test_zeros_match_50_digit_roots(self, monkeypatch, E):
        mpmath = pytest.importorskip("mpmath")
        calls, newton = [], mc_oracle._newton

        def record(b, L, S, lo, hi, s_lo):
            calls.append((b, L, S, lo, hi, newton(b, L, S, lo, hi, s_lo)))
            return calls[-1][-1]

        monkeypatch.setattr(mc_oracle, "_newton", record)
        estimate_esol(E, McConfig(n_samples=2048, seed=5))
        # the 3-term level 2 and the 4-term level 1
        assert sorted(len(call[0]) for call in calls) == [3, 4]
        rng = np.random.default_rng(8)
        with mpmath.workdps(50):
            for b, L, S, lo, hi, x in calls:
                for r in rng.choice(x.size, size=25, replace=False):
                    root = _bisected_root(mpmath, b, L[:, r], S[:, r], lo[r], hi[r])
                    assert abs(x[r] - root) <= 1e-12 * (1.0 + abs(root))


class TestBlockMemory:
    def test_block_working_set(self):
        # a block of 8192 draws of a 5-term sum, with the cascade's arrays
        # held terms by draws; about 2.95 MB when measured
        E, cfg = kostlan(1, 4), McConfig(n_samples=20_000, seed=3)
        estimate_esol(E, McConfig(n_samples=1000, seed=3))
        tracemalloc.start()
        try:
            estimate_esol(E, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6


def _f_signs(b, draw, X):
    """Signs of sum_j draw_j e^{b_j x} at the points X, each scaled by its
    largest term, as the count evaluates them."""
    T = b[:, None] * X + np.log(np.abs(draw))[:, None]
    T -= T.max(axis=0)
    return np.sign((np.sign(draw)[:, None] * np.exp(T)).sum(axis=0))


def _bisected_root(mpmath, b, L, S, lo, hi):
    """The zero of sum_j S_j e^{b_j x + L_j} in the bracket (lo, hi), whose
    ends it has opposite signs at, bisected at the working precision to a
    width of 1e-30 (1 + |x|)."""
    terms = [(mpmath.mpf(bj), mpmath.mpf(lj), sj) for bj, lj, sj in zip(b, L, S)]
    sign = lambda t: mpmath.sign(mpmath.fsum(sj * mpmath.exp(bj * t + lj) for bj, lj, sj in terms))
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    s_lo = sign(lo)
    assert s_lo * sign(hi) < 0
    while hi - lo > 1e-30 * (1 + abs(lo)):
        mid = (lo + hi) / 2
        if sign(mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def _stream(k, seed, n):
    """The first n draws of a k-term sum's keyed stream, (draws, terms):
    row j is the j-th run of k normals of a fresh keyed generator."""
    return np.random.Generator(np.random.Philox(key=seed)).standard_normal((n, k))


def _grid_zero_count(b, draw, per_unit=500):
    """Sign changes of sum_j draw_j e^{b_j x} on a dense grid that covers
    every zero: past hi (below lo) the last (first) term outweighs the
    other terms together."""
    L = np.log(np.abs(draw))
    k = b.size
    lo = min((L[0] - L[j] - math.log(k)) / (b[j] - b[0]) for j in range(1, k))
    hi = max((L[j] - L[-1] + math.log(k)) / (b[-1] - b[j]) for j in range(k - 1))
    xs = np.linspace(lo, hi, int((hi - lo) * per_unit) + 2)
    T = xs[:, None] * b + L
    signs = np.sign((np.sign(draw) * np.exp(T - T.max(axis=1, keepdims=True))).sum(axis=1))
    signs = signs[signs != 0.0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))
