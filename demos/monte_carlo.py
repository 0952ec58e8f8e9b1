"""
Monte-Carlo confirmation of the expected counts
===============================================

Independent of all quadrature, one can draw the Gaussian coefficients,
count the real zeros of each realized sum exactly, and average.  A draw
whose coefficient signs change at most once has that many zeros
(Descartes' rule of signs); any other goes through a Rolle cascade of
derivatives inside its own root bound, so there is no scan interval to
choose.  The estimator is deterministic for a fixed seed and comes with a
standard error.
"""

import math

from sparse_kacrice import ExpSum, McConfig, esol_total, estimate_esol, sample_zero_count

two_term = ExpSum([[0.0], [1.0]])

# Single draws first: the coefficient signs decide everything for a
# two-term sum.
print("draw (+1, +1):", sample_zero_count(two_term, [1.0, 1.0]), "zeros")
print("draw (+1, -1):", sample_zero_count(two_term, [1.0, -1.0]), "zero")

# A three-term draw can cross twice; this one factors over w = e^x with
# two positive roots.
three_term = ExpSum([[0.0], [1.0], [2.0]])
print("draw (1, -3, 1):", sample_zero_count(three_term, [1.0, -3.0, 1.0]), "zeros")

# Averaging over draws reproduces the quadrature values within the
# reported standard error.
for name, E in (
    ("two-term", two_term),
    ("irrational support", ExpSum([[0.0], [math.sqrt(2.0)], [math.pi]], [1.0, 2.0, 1.0])),
):
    want = esol_total(E).value
    mean, stderr = estimate_esol(E, McConfig(n_samples=50_000, seed=42))
    sigmas = abs(mean - want) / stderr
    print(f"{name}: estimate {mean:.5f} +- {stderr:.5f}  "
          f"quadrature {want:.5f}  ({sigmas:.2f} standard errors)")

# The same seed always returns the identical estimate, bit for bit.
a = estimate_esol(two_term, McConfig(n_samples=10_000, seed=7))
b = estimate_esol(two_term, McConfig(n_samples=10_000, seed=7))
print("deterministic repeat:", a == b)
