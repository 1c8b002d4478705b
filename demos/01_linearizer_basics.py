"""Linearizers at repelling fixed points, from coefficients to global values.

For f(z) = z^2 the fixed point 1 has multiplier 2 and the linearizer is the
exponential: F(2z) = F(z)^2 with F(0) = 1 forces F = exp.  For f(z) = z^2 - 2
the fixed point 2 has multiplier 4 and F(z) = 2 cosh(sqrt z).  The solver
recovers both coefficient-by-coefficient, and the functional equation then
evaluates F far outside the disc of convergence of the series.
"""

import math

import numpy as np

from invarcurves import RationalMap, poincare

square = RationalMap([0, 0, 1])            # z^2
shifted = RationalMap([-2, 0, 1])          # z^2 - 2

F = poincare.solve_coefficients(square, 1.0, order=20)
print("f = z^2 at a = 1: multiplier", F.multiplier.real)
print("  k  c_k             1/k!")
for k in (1, 2, 3, 5, 10):
    print(f"  {k:2d}  {F.coefficients[k].real:.12e}  {1 / math.factorial(k):.12e}")

print("\nF extends by F(lambda z) = f(F(z)):")
for t in (math.log(2), 3.0, 10.0):
    v = poincare.evaluate(F, t).real
    print(f"  F({t:.4f}) = {v:.10f}   exp(t) = {math.exp(t):.10f}")

G = poincare.solve_coefficients(shifted, 2.0, order=30)
print("\nf = z^2 - 2 at a = 2: multiplier", G.multiplier.real)
print("  coefficient ratios against 2/(2k)!:")
for k in (2, 5, 10):
    target = 2 / math.factorial(2 * k)
    print(f"  k={k}: {abs(G.coefficients[k] - target):.2e} absolute deviation")

# the image of the real line under each linearizer
tr_exp = poincare.trace_real_axis(F, 20.0, 1501)
tr_cosh = poincare.trace_real_axis(G, 45.0, 2001)
print("\nexp-image crossings (should be none):",
      len(poincare.injectivity_check(tr_exp)))
crossings = poincare.injectivity_check(tr_cosh)
print("cosh-image crossings (the curve retraces [-2, 2]):", len(crossings))
s, t = crossings[0].s, crossings[0].t
print(f"  first detected pair: parameters {s:.3f} and {t:.3f}, "
      f"values {tr_cosh.values[np.searchsorted(tr_cosh.params, s)]:.6f} "
      f"vs {tr_cosh.values[np.searchsorted(tr_cosh.params, t)]:.6f}")
