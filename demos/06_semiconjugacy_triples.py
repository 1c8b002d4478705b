"""Building and certifying solutions of h o g = f^n o h.

Two constructions cover the simplest solutions: composing two maps in both
orders (f = u o v, g = v o u, h = u), and the power family f = z^m w(z)^n,
g = z^m w(z^n), h = z^n.  The certifier evaluates both sides of the
functional equation on a unit-circle sample in extended precision, so a
valid triple sits at the rounding floor and a corrupted one stands out by
fifteen orders of magnitude.
"""

import numpy as np

from invarcurves import RationalMap, make_power_family, make_ritt_triple
from invarcurves.semiconj import IDENTITY_RESIDUAL_TOL, SemiconjTriple

u = RationalMap([0, 0, 1])        # z^2
v = RationalMap([1, 1])           # z + 1
t = make_ritt_triple(u, v)
print("composition-swap triple from u = z^2, v = z + 1:")
print("  f =", np.round(np.real(t.f.num.coefficients), 10), "(num)")
print("  g =", np.round(np.real(t.g.num.coefficients), 10), "(num)")
print("  h =", np.round(np.real(t.h.num.coefficients), 10), "(num)")
print("  certification residual:", f"{t.residual():.2e}")

swapped = SemiconjTriple(f=t.g, g=t.f, h=v, n=1)
print("  swapped-roles triple residual:", f"{swapped.residual():.2e}")

w = RationalMap([1, 1])
p = make_power_family(w, m=1, n=2)
print("\npower family with w = z + 1, m = 1, n = 2:")
print("  f = z (z+1)^2 ->", np.round(np.real(p.f.num.coefficients), 10))
print("  g = z (z^2+1) ->", np.round(np.real(p.g.num.coefficients), 10))
print("  residual:", f"{p.residual():.2e}")

bad = SemiconjTriple(f=t.f, g=t.g, h=RationalMap([0, 1, 1]), n=1)
print("\nnegative control (corrupted h):", f"{bad.residual():.2e}",
      "-> fails certification" if bad.residual() > IDENTITY_RESIDUAL_TOL else "")

rng = np.random.default_rng(1)
worst = 0.0
for _ in range(25):
    def poly(d):
        c = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        return c
    uu = RationalMap(poly(2), poly(1))
    vv = RationalMap(poly(2), poly(2))
    worst = max(worst, make_ritt_triple(uu, vv).residual())
print("worst residual over 25 random pairs:", f"{worst:.2e}")
