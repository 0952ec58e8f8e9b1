"""
The moment map and the polytope-side integral
=============================================

The gradient of the potential Phi = (1/2) log K maps R^m bijectively onto
the interior of the Newton polytope (the convex hull of the exponents).
Rewriting the zero-count integral in those coordinates turns an integral
over all of R^m into one over a bounded polytope.
"""

import math

from sparse_kacrice import (
    ExpSum,
    esol_pspace,
    esol_total,
    evaluate,
    invert_moment,
    kostlan,
    legendre_density,
    lower_bound_check,
)

# The moment map of the two-term sum is the logistic function: mu(x)
# sweeps (0, 1) as x sweeps the line.
two_term = ExpSum([[0.0], [1.0]])
for x in (-2.0, 0.0, 2.0):
    print(f"mu({x:+.0f}) = {evaluate(two_term, [x]).mu[0]:.6f}")

# invert_moment solves mu(x) = p by a damped Newton iteration; for the
# two-term sum the answer is artanh(2p - 1).
p = 0.99
x = invert_moment(two_term, [p])
print(f"invert_moment(0.99) = {x[0]:.10f}  (exact {math.atanh(2*p-1):.10f})")

# The polytope-side density blows up like an inverse square root at the
# boundary but stays integrable; at the midpoint it equals sqrt(2).
print(f"legendre_density(1/2) = {legendre_density(two_term, [0.5]):.10f}")

# Both coordinate systems integrate to the same expected count.  The
# polytope route is a genuinely independent computation: different
# integrand, different domain, different quadrature.  It splits the
# polytope into one quadrilateral per vertex, so a triangle (count 1/4)
# is handled exactly like a square.
triangle = ExpSum([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
for name, E in (("two-term", two_term), ("unit square", kostlan(2, 1)), ("triangle", triangle)):
    native = esol_total(E)
    polytope = esol_pspace(E)
    print(f"{name}: x-route {native.value:.8f}  p-route {polytope.value:.8f}  "
          f"gap {abs(native.value - polytope.value):.2e}")

# The polytope volume also gives a strict lower bound on the count.
rep = lower_bound_check(two_term)
print(f"lower bound {rep.bound:.6f} < expected count {rep.esol:.6f}: "
      f"strict={rep.strict}")
