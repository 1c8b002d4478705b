"""The wp evaluator: invariants, Laurent data, and duplication-based values.

Any point of the plane is reduced into the fundamental cell, halved into the
disc where the Laurent series of wp converges fast, and pushed back up with
the degree-4 duplication map.  wp(2z) = f(wp(z)) makes wp a Poincare
function of f with multiplier 2, so this is the linearizer's climb: the same
pull-back, push-forward and rule for infinity.  The classical identities then
serve as live accuracy meters; the half-period identity (DLMF 23.10)
    (wp(z + w_j) - e_j)(wp(z) - e_j) = (e_j - e_k)(e_j - e_l),  e_j = wp(w_j),
for the three half-periods w_j and j, k, l distinct, needs wp alone.
"""

import math

import numpy as np

from invarcurves import Lattice, invariants_from_lattice
from invarcurves.lattes import lattes_from_invariants, verify_lattes

for label, lat in [
    ("square      <2, 2i>", Lattice(2.0, 2j)),
    ("rectangular <2, 2.6i>", Lattice(2.0, 2.6j)),
    ("skew        <1, sqrt2+i>", Lattice(1.0, math.sqrt(2) + 1j)),
]:
    inv = invariants_from_lattice(lat)
    print(f"{label}:  g2 = {inv.g2:.10g}   g3 = {inv.g3:.10g}")

    rng = np.random.default_rng(0)
    zs = (rng.uniform(-0.5, 0.5, 64) * lat.g1 + rng.uniform(-0.5, 0.5, 64) * lat.g2)
    even = max(abs(inv.wp(z) - inv.wp(-z)) for z in zs)
    periodic = max(abs(inv.wp(z + lat.g1) - inv.wp(z)) for z in zs)
    half = [lat.g1 / 2, lat.g2 / 2, (lat.g1 + lat.g2) / 2]
    e = [inv.wp(h) for h in half]
    identity = max(abs((inv.wp(z + half[j]) - e[j]) * (inv.wp(z) - e[j])
                       - (e[j] - e[k]) * (e[j] - e[l])) / abs((e[j] - e[k]) * (e[j] - e[l]))
                   for z in zs for j, k, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    system = lattes_from_invariants(inv)
    dup = verify_lattes(system, n_samples=300)
    print(f"  evenness {even:.1e}   periodicity {periodic:.1e}   "
          f"half-period identity {identity:.1e}   duplication {dup:.1e}")

# the duplication map in closed form, for the invariants g2 = 4, g3 = 0
from invarcurves.elliptic import square_lattice_with_g2

system = lattes_from_invariants(invariants_from_lattice(square_lattice_with_g2(4.0)))
print("\nduplication map for g2 = 4, g3 = 0 (expect (w^2+1)^2 / (4w(w^2-1))):")
print("  numerator  ", np.round(np.real(system.map.num.coefficients), 12))
print("  denominator", np.round(np.real(system.map.den.coefficients), 12))
