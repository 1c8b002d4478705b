"""Solutions of the semiconjugacy equation h(g(z)) = f^n(h(z)).

Constructors cover the composition-swap triple (f, g, h) = (u o v, v o u, u),
the z^m w^n power family, and the Chebyshev / halved-sum system whose
invariant hyperbola illustrates the non-Jordan case.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import curves
from .rational import (DegreeCapExceeded, DEGREE_CAP, Polynomial, RationalMap,
                       chain_identity_residual, chordal_array, coefficient_residual,
                       compose, identity_residual)

IDENTITY_RESIDUAL_TOL = 1e-9


@dataclass
class SemiconjTriple:
    """Maps with h o g = f^n o h; holds by construction, certified numerically."""
    f: RationalMap
    g: RationalMap
    h: RationalMap
    n: int = 1

    def residual(self):
        return certify_triple(self)

    def verify(self):
        return self.residual() <= IDENTITY_RESIDUAL_TOL

    def to_json_dict(self):
        return {"f": self.f.to_json_dict(), "g": self.g.to_json_dict(),
                "h": self.h.to_json_dict(), "n": self.n}

    @classmethod
    def from_json_dict(cls, d):
        return cls(RationalMap.from_json_dict(d["f"]),
                   RationalMap.from_json_dict(d["g"]),
                   RationalMap.from_json_dict(d["h"]), int(d["n"]))


def certify_triple(triple):
    """Max unit-circle deviation between h o g and f^n o h.

    Both sides are composed in extended precision (chains, outermost first):
    comparing two independently rounded double compositions would bottom out
    near weak poles well above the certification tolerance.
    n = 0 is the degenerate h o g = h case: accepted, compared literally.
    """
    if triple.h.degree * max(triple.g.degree, 1) > DEGREE_CAP or \
            triple.f.degree ** max(triple.n, 1) * triple.h.degree > DEGREE_CAP:
        raise DegreeCapExceeded("triple certification exceeds the degree cap")
    left = [triple.h, triple.g]
    right = [triple.f] * triple.n + [triple.h]
    return chain_identity_residual(left, right)


def make_ritt_triple(u, v):
    """f = u o v, g = v o u, h = u; then h o g = u o v o u = f o h."""
    if u.degree * v.degree > DEGREE_CAP:
        raise DegreeCapExceeded("u o v exceeds the degree cap")
    return SemiconjTriple(f=compose(u, v), g=compose(v, u), h=u, n=1)


def make_power_family(w, m, n):
    """f = z^m w(z)^n, g = z^m w(z^n), h = z^n; then h o g = f o h."""
    if m < 0 or n < 1:
        raise ValueError("need m >= 0 and n >= 1")
    if (m + w.degree * n) * n > DEGREE_CAP:
        raise DegreeCapExceeded("power family exceeds the degree cap")
    zm = RationalMap(Polynomial.monomial(m))
    zn = RationalMap(Polynomial.monomial(n))
    f = zm * (w ** n)
    g = zm * compose(w, zn)
    return SemiconjTriple(f=f, g=g, h=zn, n=1)


# ---------------------------------------------------------------------------
# Chebyshev / halved-sum system
# ---------------------------------------------------------------------------

def chebyshev(n):
    """Degree-n polynomial with T_n(cos t) = cos(n t), leading coefficient
    2^(n-1); three-term recurrence."""
    if n < 1:
        raise ValueError("need n >= 1")
    prev = Polynomial([1])
    cur = Polynomial([0, 1])
    two_z = Polynomial([0, 2])
    for _ in range(n - 1):
        prev, cur = cur, two_z * cur - prev
    return cur


def chebyshev_map(n):
    return RationalMap(chebyshev(n))


def joukowski():
    """J(z) = (z + 1/z)/2 as a rational map."""
    return RationalMap([1, 0, 1], [0, 2])


def power_map(n):
    return RationalMap(Polynomial.monomial(n))


def verify_joukowski_identity(n):
    """Coefficientwise residual of J o P_n = T_n o J."""
    lhs = compose(joukowski(), power_map(n))
    rhs = compose(chebyshev_map(n), joukowski())
    return coefficient_residual(lhs, rhs)


@dataclass
class HyperbolaExample:
    """u = J(eps z) with eps = exp(2 pi i / n): u(R) is a hyperbola swept by
    (cos(theta) (x + 1/x)/2, sin(theta) (x - 1/x)/2), invariant under u o T_n."""
    map: RationalMap          # f = u o T_n
    trace: "curves.CurveTrace"  # the x = e^s > 0 branch of u(R), s the parameter
    u: RationalMap
    n: int
    epsilon: complex
    theta: float
    rotation_residual: float  # identity residual of R(eps z) = R(z)

    def hyperbola_residual(self):
        """Max |(X/cos theta)^2 - (Y/sin theta)^2 - 1| over the trace."""
        if abs(math.cos(self.theta)) < 1e-9 or abs(math.sin(self.theta)) < 1e-9:
            raise ValueError("degenerate image: the swept curve is a line, "
                             "not a hyperbola (cos or sin of theta vanishes)")
        pts = self.trace.finite_values
        x = pts.real / math.cos(self.theta)
        y = pts.imag / math.sin(self.theta)
        return float(np.max(np.abs(x * x - y * y - 1.0)))

    def invariance_residual(self):
        """Max chordal |f(u(x)) - u(J(x^n))| over the trace's x = e^s: as
        eps^n = 1, f o u = u o T_n o J o eps = u o J o P_n, and J(x^n) = cosh(n s)
        is real, so f maps the branch into u(R)."""
        if len(self.trace) < 16:
            raise ValueError("trace too coarse for an invariance check")
        with np.errstate(over="ignore"):    # cosh beyond the floats is infinity
            images = self.u.eval_array(np.cosh(self.n * self.trace.params).astype(complex))
        return float(np.max(chordal_array(self.map.eval_array(self.trace.values), images)))


def pakovich_example(n, n_samples=4001, principal=True):
    """The invariant-hyperbola system for n >= 3, traced for s in [-3, 3].

    principal picks eps = exp(2 pi i/n); other primitive roots give conjugate
    systems (exposed via principal=False, which uses exp(-2 pi i/n)).
    ValueError from n = 406 on, where f's coefficients leave the floats.
    """
    if n < 3:
        raise ValueError("need n >= 3 for a nondegenerate hyperbola")
    if 2 * n > DEGREE_CAP:          # before T_n's n - 1 step recurrence
        raise DegreeCapExceeded(f"u o T_n has degree {2 * n} > cap {DEGREE_CAP}")
    theta = 2.0 * math.pi / n
    if not principal:
        theta = -theta
    eps = cmath.exp(1j * theta)
    u = joukowski().precompose_scale(eps)
    with np.errstate(over="ignore", invalid="ignore"):    # checked just below
        f = compose(u, chebyshev_map(n))
    if not all(np.isfinite(p.coefficients).all() for p in (f.num, f.den)):
        raise ValueError(f"u o T_{n} has coefficients beyond the float range")
    big_r = compose(joukowski(), power_map(n))
    rot = identity_residual(big_r.precompose_scale(eps), big_r)
    ss = np.linspace(-3.0, 3.0, n_samples)
    xs = np.exp(ss)
    values = u.eval_array(xs.astype(complex))
    trace = curves.CurveTrace(ss, values, closed=False,
                              source=f"halved-sum hyperbola (n={n}, positive branch)")
    return HyperbolaExample(map=f, trace=trace, u=u, n=n, epsilon=eps, theta=theta,
                            rotation_residual=rot)
