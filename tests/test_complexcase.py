"""Tests for the complex-coefficient root count and its volume identity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sparse_kacrice import (
    ComplexExpSum,
    ExpSum,
    InputError,
    Quadrature,
    bkk_density,
    bkk_total,
    evaluate,
    kostlan,
    n_factorial_volume,
)

SEGMENT = ComplexExpSum([[0.0], [1.0]])
SQUARE = ComplexExpSum([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])


class TestComplexExpSum:
    def test_is_an_exponential_sum(self):
        assert isinstance(SEGMENT, ExpSum)
        assert SEGMENT.dim == 1
        assert SEGMENT.n_terms == 2

    def test_json_round_trip_preserves_class(self):
        back = ComplexExpSum.from_json(SEGMENT.to_json())
        assert isinstance(back, ComplexExpSum)


class TestDensity:
    def test_segment_at_origin(self):
        assert bkk_density(SEGMENT, [0.0]) == pytest.approx(1.0 / (4.0 * math.pi))

    def test_square_at_origin(self):
        assert bkk_density(SQUARE, [0.0, 0.0]) == pytest.approx(
            1.0 / (8.0 * math.pi**2)
        )

    def test_one_variable_matches_scaled_metric(self):
        # n = 1: the complex density is g / pi
        E = ExpSum([[0.0], [0.5], [1.7]], [1.0, 2.0, 1.0])
        C = ComplexExpSum([[0.0], [0.5], [1.7]], [1.0, 2.0, 1.0])
        for x in (-1.0, 0.3, 2.1):
            want = evaluate(E, [x]).g.entries[0, 0] / math.pi
            assert bkk_density(C, [x]) == pytest.approx(want, rel=1e-12)

    def test_degenerate_support_vanishes(self):
        line = ComplexExpSum([[0.0, 0.0], [1.0, 1.0]])
        assert bkk_density(line, [0.3, -0.2]) == pytest.approx(0.0, abs=1e-12)


class TestTotal:
    def test_segments_count_their_degree(self):
        for d in range(1, 5):
            C = ComplexExpSum([[float(k)] for k in range(d + 1)])
            r = bkk_total(C)
            assert r.route == "bkk"
            assert r.value == pytest.approx(d, abs=1e-6)
            assert n_factorial_volume(C) == pytest.approx(float(d))

    def test_unit_square_counts_two(self):
        r = bkk_total(SQUARE)
        assert r.value == pytest.approx(2.0, abs=1e-6)
        assert n_factorial_volume(SQUARE) == pytest.approx(2.0)

    def test_coefficients_do_not_matter(self):
        skewed = ComplexExpSum([[0.0], [1.0], [2.0]], [0.3, 5.0, 1.2])
        assert bkk_total(skewed).value == pytest.approx(2.0, abs=1e-6)

    def test_triangle_support(self):
        C = ComplexExpSum([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        r = bkk_total(C)
        assert r.value == pytest.approx(1.0, abs=1e-6)
        assert n_factorial_volume(C) == pytest.approx(1.0)

    def test_degenerate_support_is_zero(self):
        line = ComplexExpSum([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert bkk_total(line).value == 0.0
        assert n_factorial_volume(line) == 0.0

    @pytest.mark.parametrize("points, coeffs, want", [
        ([[0.0], [0.5]], None, 0.5),
        (SQUARE.support.points @ [[math.cos(0.7), math.sin(0.7)], [-math.sin(0.7), math.cos(0.7)]], None, 2.0),
        (kostlan(2, 2).support.points @ [[1.0, 0.5], [0.25, 1.0]], kostlan(2, 2).coeffs, 7.0),
        ([[0.0], [math.sqrt(2.0)], [math.pi]], None, math.pi),
    ], ids=["half segment", "turned square", "sheared kostlan(2,2)", "irrational line"])
    def test_real_exponents_give_n_factorial_volume(self, points, coeffs, want):
        # The volume identity holds for every full-dimensional real
        # support; only the root-count reading needs integer exponents.
        C = ComplexExpSum(points, coeffs)
        q = Quadrature()
        assert n_factorial_volume(C) == pytest.approx(want, rel=1e-14)
        assert abs(bkk_total(C, q).value - want) <= max(q.abs_tol, q.rel_tol * want)

    def test_too_many_variables_rejected(self):
        pts = np.vstack([np.zeros(4), np.eye(4)])
        with pytest.raises(InputError):
            bkk_total(ComplexExpSum(pts))
