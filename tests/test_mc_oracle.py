"""Tests for the Monte-Carlo zero-count estimator."""

from __future__ import annotations

import math
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
from sparse_kacrice.mc_oracle import CHUNK, _chunk_draws

TWO_TERM = ExpSum([[0.0], [1.0]])
THREE_TERM = ExpSum([[0.0], [1.0], [2.0]])


class TestConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            McConfig(n_samples=0)

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

    def test_matches_dense_grid_per_draw(self):
        b = np.array([0.0, 0.3, 1.1, math.e, 3.9, 4.0])
        E = ExpSum(b[:, None])
        rng = np.random.default_rng(17)
        for draw in rng.standard_normal((300, b.size)):
            assert sample_zero_count(E, draw) == _grid_zero_count(b, draw)


class TestEstimate:
    def test_deterministic_for_fixed_seed(self):
        cfg = McConfig(n_samples=4000, seed=11)
        a = estimate_esol(TWO_TERM, cfg)
        b = estimate_esol(TWO_TERM, cfg)
        assert a == b

    @pytest.mark.parametrize("seed", [0, 3, 12345, 2**31 - 1])
    def test_chunk_stream_is_the_jumped_philox_stream(self, seed):
        for chunk in (0, 1, 7, 39, 1000):
            jumped = np.random.Generator(np.random.Philox(key=seed).jumped(chunk))
            want = jumped.standard_normal((THREE_TERM.n_terms, CHUNK))
            np.testing.assert_array_equal(_chunk_draws(THREE_TERM, seed, chunk), want)

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


_SIX_TERM = [0.0, 0.3, 1.1, math.e, 3.9, 4.0]
# real exponents out of order, reweighted by e^{0.4 b}
_REAL = np.array([2.9, -0.6, 1.3, 0.4, 3.2])


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
        draws = np.concatenate([_chunk_draws(E, seed, c) for c in range(-(-n // CHUNK))], axis=1)
        want = [sample_zero_count(E, draws[:, j]) for j in range(n)]
        assert len(got) == n and max(got) >= 2
        np.testing.assert_array_equal(got, want)


class TestPinnedEstimates:
    """Seeded estimates are pinned bit for bit: a rewrite of the count
    kernel must leave every draw's count as it is."""

    @pytest.mark.parametrize(
        "E, seed, want",
        [
            (ExpSum([[0.0], [0.5], [1.7]], [1.0, 2.0, 1.0]), 5, (0.7876, 0.006800974145292165)),
            (kostlan(1, 4), 6, (1.0014, 0.007733419979443625)),
            (kostlan(1, 7), 7, (1.32, 0.008917844627222405)),
        ],
        ids=["3-term", "5-term", "8-term"],
    )
    def test_estimate_is_pinned(self, E, seed, want):
        assert estimate_esol(E, McConfig(n_samples=10_000, seed=seed)) == want


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
