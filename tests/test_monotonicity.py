"""Tests for augmentation, the density-drop functional, and region scans."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from sparse_kacrice import (
    Augmentation,
    DegenerateMetricError,
    DomainError,
    ExpSum,
    InputError,
    augment,
    augmented_metric,
    classify,
    density,
    diameter,
    evaluate,
    interior_contains,
    invert_moment,
    kostlan,
    levelset_projection_check,
    psi,
    psi_via_phi0,
    ray_scan_unbounded,
    region_scan,
    witness_interior,
)
from sparse_kacrice.expsum import _invert_moment_many
from sparse_kacrice.monotonicity import _logistic

TWO_TERM = ExpSum([[0.0], [1.0]])
SQUARE = kostlan(2, 1)
SQ_AUG = Augmentation([0.5, 0.5])

#: Supports for the scan-equals-scalar test, with an interior and an exterior a0.
SCAN_CASES = {
    "unit_square": (SQUARE, [0.3, 0.6], [2.0, -1.0]),
    "weighted_triangle": (ExpSum([[0, 0], [1, 0], [0, 1]], [1.0, 2.0, 0.5]), [0.25, 0.3], [1.5, 1.5]),
    "sheared_square": (ExpSum([[0, 0], [1, 0], [0.5, 1], [1.5, 1]]), [0.7, 0.5], [-1.0, 0.5]),
}


class TestAugmentation:
    def test_augment_appends_term(self):
        E0 = augment(TWO_TERM, Augmentation([3.0], alpha0=2.0))
        assert E0.n_terms == 3
        pts = np.asarray(E0.support.points).ravel()
        assert 3.0 in pts
        assert np.asarray(E0.coeffs)[-1] == pytest.approx(2.0)

    def test_rejects_duplicate_point(self):
        with pytest.raises(InputError):
            augment(TWO_TERM, Augmentation([1.0]))

    def test_rejects_bad_alpha(self):
        with pytest.raises(InputError):
            Augmentation([3.0], alpha0=0.0)
        with pytest.raises(InputError):
            Augmentation([math.nan])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(InputError):
            psi(TWO_TERM, Augmentation([1.0, 2.0]), [0.0])


class TestPsi:
    def test_witness_value(self):
        ev = psi(SQUARE, SQ_AUG, [0.0, 0.0])
        assert ev.psi == pytest.approx(0.8, rel=1e-12)
        assert ev.classification == "U_minus"

    def test_density_ratio_identity(self):
        # psi is exactly the density ratio after augmentation
        rng = np.random.default_rng(7)
        aug = Augmentation([3.0], alpha0=1.5)
        E0 = augment(TWO_TERM, aug)
        for _ in range(20):
            x = rng.uniform(-4, 4, size=1)
            ratio = density(E0, x) / density(TWO_TERM, x)
            assert psi(TWO_TERM, aug, x).psi == pytest.approx(ratio, rel=1e-10)

    def test_two_routes_agree(self):
        rng = np.random.default_rng(8)
        for E, aug in ((TWO_TERM, Augmentation([3.0])), (SQUARE, SQ_AUG)):
            for _ in range(20):
                x = rng.uniform(-5, 5, size=E.dim)
                a = psi(E, aug, x).psi
                b = psi_via_phi0(E, aug, x)
                assert b == pytest.approx(a, rel=1e-12)

    def test_far_tail_stays_small(self):
        aug = Augmentation([3.0])
        for t in (10.0, 20.0, 40.0):
            ev = psi(TWO_TERM, aug, [t])
            assert 0.0 < ev.psi < 1.0
            assert ev.classification == "U_minus"
        # the stable route must not collapse to zero ratio
        assert psi_via_phi0(TWO_TERM, aug, [40.0]) > 0.0

    def test_logistic_matches_scipy_in_both_tails(self):
        from scipy.special import expit

        for t in np.linspace(-700.0, 700.0, 561):
            assert _logistic(t) == pytest.approx(expit(t), rel=1e-15, abs=0.0)

    def test_ray_scan_equals_scalar_psi(self):
        evs = ray_scan_unbounded(SQUARE, SQ_AUG, [1.0, -0.4], 12.0, 6)
        for ev in evs:
            want = psi(SQUARE, SQ_AUG, ev.x)
            assert ev.psi == pytest.approx(want.psi, rel=1e-12)
            assert ev.classification == want.classification
            assert ev.tau_normsq == pytest.approx(want.tau_normsq, rel=1e-12)

    def test_degenerate_ray_raises(self):
        # Far along (1, 0.3) the square's metric fails the condition gate.
        with pytest.raises(DegenerateMetricError):
            ray_scan_unbounded(SQUARE, Augmentation([3.0, 3.0]), [1.0, 0.3], 60.0, 64)

    def test_ray_scan_decreases(self):
        evs = ray_scan_unbounded(TWO_TERM, Augmentation([3.0]), [1.0], 40.0, 8)
        values = [e.psi for e in evs]
        assert len(values) == 8
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(e.classification == "U_minus" for e in evs)


class TestClassify:
    def test_agrees_with_psi(self):
        rng = np.random.default_rng(9)
        aug = Augmentation([3.0])
        for _ in range(50):
            x = rng.uniform(-5, 5, size=1)
            label = classify(TWO_TERM, aug, x)
            value = psi(TWO_TERM, aug, x).psi
            if label == "U_minus":
                assert value < 1.0
            elif label == "U_plus":
                assert value > 1.0

    def test_boundary_band(self):
        # bracket the psi = 1 crossing on the diagonal, then widen the
        # tolerance until the crossing itself reads as boundary
        lo, hi = 0.0, 2.5  # psi(lo) < 1 < psi(hi)
        assert psi(SQUARE, SQ_AUG, [lo, lo]).psi < 1.0
        assert psi(SQUARE, SQ_AUG, [hi, hi]).psi > 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if psi(SQUARE, SQ_AUG, [mid, mid]).psi < 1.0:
                lo = mid
            else:
                hi = mid
        crossing = 0.5 * (lo + hi)
        assert classify(SQUARE, SQ_AUG, [crossing, crossing], tol=1e-6) == "boundary"

    def test_square_has_both_regions(self):
        labels = {
            classify(SQUARE, SQ_AUG, x)
            for x in ([0.0, 0.0], [2.5, 2.5], [-2.5, -2.5], [3.0, -3.0])
        }
        assert "U_minus" in labels
        assert "U_plus" in labels


class TestWitness:
    def test_interior_witness_drops_density(self):
        x0 = witness_interior(SQUARE, SQ_AUG)
        np.testing.assert_allclose(x0, [0.0, 0.0], atol=1e-8)
        assert psi(SQUARE, SQ_AUG, x0).psi < 1.0

    def test_exterior_point_rejected(self):
        with pytest.raises(DomainError):
            witness_interior(TWO_TERM, Augmentation([-0.5]))

    def test_every_interior_point_yields_witness(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            a0 = rng.uniform(0.1, 0.9, size=2)
            x0 = witness_interior(SQUARE, Augmentation(a0))
            assert psi(SQUARE, Augmentation(a0), x0).psi < 1.0
            np.testing.assert_allclose(evaluate(SQUARE, x0).mu, a0, atol=1e-8)


class TestAugmentedMetric:
    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(11)
        aug = Augmentation([3.0], alpha0=0.7)
        E0 = augment(TWO_TERM, aug)
        for _ in range(10):
            x = rng.uniform(-3, 3, size=1)
            got = augmented_metric(TWO_TERM, aug, x).entries
            want = evaluate(E0, x).g.entries
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_matches_direct_evaluation_2d(self):
        E0 = augment(SQUARE, SQ_AUG)
        for x in ([0.3, -0.2], [1.5, 0.5]):
            got = augmented_metric(SQUARE, SQ_AUG, x).entries
            want = evaluate(E0, x).g.entries
            np.testing.assert_allclose(got, want, rtol=1e-10)


class TestLevelsetProjection:
    def test_one_variable_is_vacuous(self):
        rep = levelset_projection_check(TWO_TERM, Augmentation([3.0]), [1.0])
        assert rep.vacuous
        assert rep.passed

    def test_tangent_restriction_matches(self):
        rep = levelset_projection_check(SQUARE, SQ_AUG, [0.7, -0.3])
        assert not rep.vacuous
        assert rep.passed
        assert rep.residual < 1e-10

    def test_critical_point_rejected(self):
        with pytest.raises(DomainError):
            levelset_projection_check(SQUARE, SQ_AUG, [0.0, 0.0])


class TestRegionScan:
    def test_moment_grid_contains_drop_region(self):
        scan = region_scan(SQUARE, SQ_AUG, resolution=16, space="p")
        labels = np.asarray(scan.classes)
        assert (labels == "U_minus").any()
        assert (labels == "outside").any()
        interior = labels != "outside"
        assert np.isfinite(np.asarray(scan.psi)[interior]).all()
        assert np.isnan(np.asarray(scan.psi)[~interior]).all()

    def test_native_grid_has_no_outside(self):
        scan = region_scan(
            SQUARE, SQ_AUG, box=[(-3, 3), (-3, 3)], resolution=8, space="x"
        )
        assert "outside" not in np.asarray(scan.classes)

    @pytest.mark.parametrize("space", ["p", "x"])
    @pytest.mark.parametrize("where", ["interior", "exterior"])
    @pytest.mark.parametrize("name", sorted(SCAN_CASES))
    def test_scan_equals_scalar_psi(self, name, where, space):
        E, inner, outer = SCAN_CASES[name]
        aug = Augmentation(inner if where == "interior" else outer)
        scan = region_scan(E, aug, resolution=16, space=space)
        nodes = np.stack(np.meshgrid(*scan.axes, indexing="ij"), axis=-1).reshape(-1, 2)
        values, labels = scan.psi.ravel(), scan.classes.ravel()
        if space == "x":
            X, classified = nodes, np.arange(len(nodes))
        else:
            margin = 1e-6 * diameter(E.support)
            inside = np.array([interior_contains(E.support, p, margin) for p in nodes])
            np.testing.assert_array_equal(labels == "outside", ~inside)
            X, ok = _invert_moment_many(E, nodes[inside])
            assert ok.all()
            classified = np.flatnonzero(inside)
        assert classified.size > 0
        for i, x in zip(classified, X):
            want = psi(E, aug, x)
            assert values[i] == pytest.approx(want.psi, rel=1e-12)
            assert labels[i] == want.classification
            # The independent route through evaluate checks the kernel itself.
            assert values[i] == pytest.approx(psi_via_phi0(E, aug, x), rel=1e-10)

    def test_degenerate_metric_raises(self):
        # Far along the axes the square's metric fails the condition gate.
        with pytest.raises(DegenerateMetricError):
            region_scan(SQUARE, SQ_AUG, box=[(-20, 20), (-20, 20)], resolution=64, space="x")

    def test_csv_layout(self):
        scan = region_scan(SQUARE, SQ_AUG, resolution=(6, 8), space="p")
        lines = scan.to_csv().strip().split("\n")
        assert lines[0] == "p1,p2,psi,class"
        assert len(lines) == 1 + 6 * 8
        assert "np.float64" not in lines[1]

    def test_json_layout(self):
        scan = region_scan(SQUARE, SQ_AUG, resolution=6, space="p")
        doc = json.loads(scan.to_json())
        assert doc["schema"] == 1
        assert doc["space"] == "p"
        assert doc["resolution"] == [6, 6]
        assert len(doc["psi"]) == 36
        assert len(doc["class"]) == 36
        nulls = [i for i, v in enumerate(doc["psi"]) if v is None]
        outside = [i for i, c in enumerate(doc["class"]) if c == "outside"]
        assert nulls == outside

    def test_rejects_bad_space(self):
        with pytest.raises(InputError):
            region_scan(SQUARE, SQ_AUG, resolution=4, space="q")
