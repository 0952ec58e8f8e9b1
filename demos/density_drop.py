"""
Does one more exponent create or destroy zeros?
===============================================

Appending a term alpha_0 e^{<a_0, x>} multiplies the zero density
pointwise by a computable factor Psi(x).  Where Psi < 1 (the region
U_minus) the extra term lowers the expected number of zeros; where
Psi > 1 it raises them.
"""

import numpy as np

from sparse_kacrice import (
    Augmentation,
    ExpSum,
    augment,
    density,
    kostlan,
    psi,
    ray_scan_unbounded,
    region_scan,
    witness_interior,
)

# Augment the unit-square binomial family with a center exponent.
square = kostlan(2, 1)
aug = Augmentation([0.5, 0.5])

# Psi is exactly the ratio of the augmented density to the base density.
x = [0.7, -0.3]
ev = psi(square, aug, x)
direct = density(augment(square, aug), x) / density(square, x)
print(f"Psi{tuple(x)} = {ev.psi:.8f}   density ratio = {direct:.8f}")

# When a_0 lies inside the Newton polytope, the preimage of a_0 under the
# moment map always witnesses a density drop.
x0 = witness_interior(square, aug)
print(f"witness x0 = {np.round(x0, 8)}  Psi(x0) = {psi(square, aug, x0).psi}")

# Each evaluation labels its point against Psi = 1.
for point in ([0.0, 0.0], [2.5, 2.5]):
    print(f"psi({point}).classification = {psi(square, aug, point).classification}")

# A full region scan grids the polytope in moment coordinates, evaluates
# Psi at each interior node, and labels the two regions.
scan = region_scan(square, aug, resolution=32, space="p")
labels = np.asarray(scan.classes)
print(f"32x32 scan: {np.sum(labels == 'U_minus')} drop nodes, "
      f"{np.sum(labels == 'U_plus')} gain nodes, "
      f"{np.sum(labels == 'outside')} outside")
print("CSV head:")
print("\n".join(scan.to_csv().splitlines()[:3]))

# With a_0 far outside the polytope, the drop region is unbounded: Psi
# dies off along the ray toward the new exponent.
two_term = ExpSum([[0.0], [1.0]])
far = Augmentation([3.0])
for ev in ray_scan_unbounded(two_term, far, [1.0], t_max=40.0, n_steps=4):
    print(f"t = {ev.x[0]:5.1f}: Psi = {ev.psi:.3e}  ({ev.classification})")
