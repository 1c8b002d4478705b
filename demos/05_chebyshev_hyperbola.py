"""Chebyshev polynomials, the halved-sum map, and an invariant hyperbola.

J(z) = (z + 1/z)/2 intertwines powers with Chebyshev polynomials:
J o P_n = T_n o J.  Precomposing with a primitive n-th root of unity eps
leaves the right side unchanged, so u(z) = J(eps z) maps the real line onto
a hyperbola that the composition u o T_n maps into itself.  On the sphere a
hyperbola passes through infinity, so this invariant curve is not a Jordan
curve, which is exactly why it is the boundary case worth demonstrating.
"""

import numpy as np

from invarcurves import chebyshev, verify_joukowski_identity
from invarcurves.curves import algebraic_fit
from invarcurves.semiconj import pakovich_example

print("T_n with leading coefficient 2^(n-1):")
for n in (1, 2, 3, 4):
    print(f"  T_{n}:", np.round(np.real(chebyshev(n).coefficients), 10))

print("\ncoefficientwise residual of J o P_n = T_n o J:")
for n in range(1, 9):
    print(f"  n = {n}: {verify_joukowski_identity(n):.2e}")

ex = pakovich_example(3, n_samples=8001)
print("\nn = 3 system: eps =", ex.epsilon)
print("rotation identity residual R(eps z) = R(z):", f"{ex.rotation_residual:.2e}")
print("hyperbola equation (X/cos)^2 - (Y/sin)^2 = 1 residual:",
      f"{ex.hyperbola_residual():.2e}")

rep = algebraic_fit(ex.trace, 2)
print("implicit degree-2 fit of the traced branch:", f"{rep.residual:.2e}")

# f o u = u o J o P_3, so f(u(x)) = u(J(x^3)) lies on the branch for every x > 0
print("invariance of the branch under u o T_3, f(u(x)) = u(J(x^3)):",
      f"{ex.invariance_residual():.2e}")
