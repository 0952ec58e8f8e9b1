"""
Products of exponential sums
============================

Two constructions combine independent sums: the tensor product puts the
factors on disjoint variables, while the Aronszajn product multiplies
them on shared variables.  Both act simply on the potential and the
metric, which makes exact cross-checks possible.
"""

import math

import numpy as np

from sparse_kacrice import (
    ExpSum,
    aronszajn,
    aronszajn_power,
    ball_sphere_constants,
    density,
    esol_total,
    evaluate,
    potential,
    tensor,
)

A = ExpSum([[0.0], [0.7]], [1.0, 2.0])
B = ExpSum([[0.1], [1.3], [2.0]], [0.5, 1.0, 1.5])

# Aronszajn product: supports add as Minkowski sums, squared coefficients
# convolve, and the potential adds pointwise.
P = aronszajn(A, B)
x = [0.4]
print(f"potential additivity: {potential(P, x):.10f} = "
      f"{potential(A, x) + potential(B, x):.10f}")

# The d-th Aronszajn power of a two-point sum is exactly binomial, which
# is how the kostlan family arises from repeated products.
pw = aronszajn_power(ExpSum([[0.0], [1.0]]), 4)
print(f"4th power coefficients squared: "
      f"{np.round(np.asarray(pw.coeffs)**2).astype(int).tolist()}")

# Tensor product: the metric is block diagonal, so densities multiply up
# to a sphere-volume constant.
T = tensor(A, B)
g = evaluate(T, [0.4, -0.2]).g.entries
print(f"tensor metric off-diagonal: {g[0, 1]:.1e} (block diagonal up to roundoff)")

# The expected counts then satisfy a product law with the explicit
# constant s_1 s_1 / (2 s_2) = pi/2 for two one-variable factors.
_, s1 = ball_sphere_constants(1)
_, s2 = ball_sphere_constants(2)
constant = s1 * s1 / (2.0 * s2)
lhs = esol_total(T).value
rhs = constant * esol_total(A).value * esol_total(B).value
print(f"count of tensor: {lhs:.8f} = {constant:.6f} * product of counts "
      f"= {rhs:.8f}  (constant pi/2 = {math.pi/2:.6f})")

# The product density always sits between the factor densities scaled by
# 1/sqrt(2) and their plain sum.
for xv in (-1.0, 0.0, 1.5):
    da, db, dp = density(A, [xv]), density(B, [xv]), density(P, [xv])
    print(f"x={xv:+.1f}: {(da+db)/math.sqrt(2):.6f} <= {dp:.6f} <= {da+db:.6f}")
