"""Sums on the same points share one support (``geometry._shared_support``),
and with it the facet-log chart's support part (``SupportSet._chart``): the
results are those of a sum on a support of its own, bit for bit, and the
table keeps within its bound."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from sparse_kacrice import (
    ComplexExpSum, ExpSum, Quadrature, SupportSet, bkk_total, esol_pspace, esol_total, expsum, geometry, integrate,
    kostlan,
)
from sparse_kacrice.geometry import _SHARE_BYTES, _SHARED_SUPPORTS
from test_expsum import PENTAGON, _reachable_arrays


def _weightings(E, seed):
    """E's points with two weightings: a toric reweighting alpha_a e^<a, c>,
    on which the facet-log map is the inverse moment map, and one moved off
    it by e^(0.01 xi), on which it is not."""
    rng = np.random.default_rng(seed)
    A = np.array(E.support.points)
    toric = E.coeffs * np.exp(A @ rng.normal(scale=0.5, size=E.dim))
    return A, [toric, toric * np.exp(0.01 * rng.normal(size=E.n_terms))]


#: The sums of a weight study, each as its points and two weightings.
SUMS = {
    name: _weightings(E, seed)
    for seed, (name, E) in enumerate({
        "kostlan(1,4)": kostlan(1, 4),
        "kostlan(2,1)": kostlan(2, 1),
        "kostlan(2,2)": kostlan(2, 2),
        "kostlan(2,3)": kostlan(2, 3),
        "kostlan(3,1)": kostlan(3, 1),
        "simplex(2,1)": ExpSum([[0, 0], [1, 0], [0, 1]]),
        "simplex(3,1)": ExpSum([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        "pentagon": PENTAGON,
    }.items())
}

ROUTES = {"esol_total": (ExpSum, esol_total), "bkk_total": (ComplexExpSum, bkk_total),
          "esol_pspace": (ExpSum, esol_pspace)}


def _solve(route, support, coeffs):
    """The route's result on a sum over support (points or a SupportSet),
    as a tuple: 1e-6 in one and two variables, 1e-4 in three."""
    cls, integral = ROUTES[route]
    E = cls(support, coeffs)
    tol = 1e-4 if E.dim == 3 else 1e-6
    return dataclasses.astuple(integral(E, Quadrature(tol, tol)))


def _in_table(support) -> bool:
    return any(entry is support for entry in geometry._supports.values())


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", SUMS)
def test_a_shared_support_gives_a_private_supports_bits(name, route, empty_support_table):
    # Every sum on a fresh SupportSet of its own builds all it reads; the
    # same sums on points take the table's support, cold, warm and evicted
    # and rebuilt, and give the same results bit for bit.
    points, weights = SUMS[name]
    private = [_solve(route, SupportSet(points), w) for w in weights]
    assert len(empty_support_table) == 0
    assert _solve(route, points, weights[0]) == private[0]
    support = ExpSum(points).support
    assert _in_table(support) and len(empty_support_table) == 1
    # Warm: the second weighting reads what the first solve kept, the chart's
    # support part with it where the route goes over P by the facet-log map.
    assert [_solve(route, points, w) for w in weights] == private
    if route != "esol_pspace" and ExpSum(points, weights[0])._facet_start is not None:
        assert support._chart is not None and support._chart[1] is not None
    assert ExpSum(points, weights[1]).support is support
    # Evicted by as many other supports as the table holds, then rebuilt.
    for j in range(_SHARED_SUPPORTS):
        ExpSum(points + (j + 1.0))
    assert not _in_table(support) and len(empty_support_table) == _SHARED_SUPPORTS
    assert [_solve(route, points, w) for w in weights[::-1]] == private[::-1]
    rebuilt = ExpSum(points).support
    assert rebuilt is not support and _in_table(rebuilt)


def test_sums_on_equal_points_share_one_support(empty_support_table):
    points = [[0, 0], [1, 0], [0, 1], [1, 1]]
    E = ExpSum(points, [1.0, 0.7, 1.3, 0.9])
    for same in (np.array(points, dtype=float), tuple(map(tuple, points)), np.array(points).T.copy().T):
        assert ExpSum(same).support is E.support
    assert ComplexExpSum(points).support is E.support
    # A SupportSet passed in is used as it is and never enters the table.
    own = SupportSet(points)
    assert ExpSum(own).support is own and not _in_table(own)
    # The key is the exact bytes: -0.0 has its own entry and keeps its bits.
    signed = ExpSum([[-0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert signed.support is not E.support and signed.support == E.support
    assert np.signbit(signed.support.points[0, 0]) and not np.signbit(E.support.points[0, 0])
    # Weights stay on the sum.
    assert E._newton_start[0] is not ExpSum(points)._newton_start[0]
    assert len(empty_support_table) == 2


def _polygon(n):
    t = 2.0 * math.pi * np.arange(n) / n
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def test_the_table_stays_within_its_bound(empty_support_table, monkeypatch):
    # Regular polygons of 3 to 60 vertices (chart terms kept up to the
    # hexagon, 476 KiB, none from the octagon on), the largest supports
    # whose block fits the share in one, two and three variables (362
    # points on a line, a 52-gon, 25 points on a sphere), a prism over a
    # 12-gon, and translated squares: after each, at most 64 supports, and
    # each holds at most _SHARE_BYTES in its block and chart terms and under
    # 32 KiB in its other arrays.  The sum test of the facet-log start is
    # lifted, so every support here builds its chart.
    monkeypatch.setattr(expsum, "FACET_START_SHARE", math.inf)
    rng = np.random.default_rng(12)
    sphere = rng.normal(size=(25, 3))
    ring = np.hstack([_polygon(12), np.zeros((12, 1))])
    extremes = [np.sort(rng.uniform(0, 10, 362))[:, None], _polygon(52),
                sphere / np.linalg.norm(sphere, axis=1)[:, None], np.vstack([ring, ring + [0, 0, 1]])]
    supports = [_polygon(n) for n in range(3, 61)] + extremes + [kostlan(2, 1).support.points + j for j in range(40)]
    kept = {}
    for points in supports:
        E = ExpSum(points)
        E.support._simplex_form
        if E.support._vertex_corners is not None:
            integrate._facet_log_chart(E)
            kept[len(points)] = E.support._chart[1] is not None
        assert len(empty_support_table) <= _SHARED_SUPPORTS
        worst = 0
        for support in empty_support_table.values():
            arrays = {id(a): a for a in _reachable_arrays(support)}.values()
            large = support._simplex_form.nbytes
            if support._chart is not None and support._chart[1] is not None:
                large += sum(a.nbytes for a in support._chart[1])
            assert large <= _SHARE_BYTES
            assert sum(a.nbytes for a in arrays) - large < 32 * 2**10
            worst += sum(a.nbytes for a in arrays)
        assert worst <= _SHARED_SUPPORTS * (_SHARE_BYTES + 32 * 2**10) == 34 * 2**20
    assert kept[4] and kept[6] and not kept[8] and not kept[52]
    # Past the share, or past three variables, a support is not entered.
    for points in (np.arange(363.0), np.eye(5)):
        assert not _in_table(ExpSum(points).support)
    assert _in_table(ExpSum(np.arange(362.0)).support)
