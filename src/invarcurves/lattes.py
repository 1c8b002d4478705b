"""Degree-4 maps semiconjugate to doubling on a torus via wp.

The duplication identity wp(2z) = f(wp(z)) defines f from the invariants;
the map is certified against the independent wp evaluator rather than
re-derived.  Both run one point at a time on Python complex, without numpy.
"""

import cmath
import math

from .draws import UniformStream
from .rational import RationalMap, chordal


class LattesSystem:
    """Elliptic invariants together with their duplication map."""

    __slots__ = ("invariants", "map")

    def __init__(self, invariants, map):
        self.invariants = invariants
        self.map = map

    def __repr__(self):
        return f"LattesSystem({self.invariants!r})"


def lattes_from_invariants(invariants):
    """The map f with wp(2z) = f(wp(z)), from the duplication coefficients
    the invariants carry."""
    if not all(cmath.isfinite(c) for part in invariants.duplication for c in part):
        raise ValueError("duplication map coefficients leave the float range")
    f = RationalMap(*invariants.duplication, reduce=False)
    if f.degree != 4:
        raise ValueError("degenerate invariants: duplication map is not degree 4")
    return LattesSystem(invariants, f)


def verify_lattes(system, n_samples=500, seed=0):
    """Max chordal residual of wp(2z) vs f(wp(z)) at random cell points, one
    point at a time; inf if wp is nan anywhere, so that a failed evaluation
    never certifies.  The points are those of the seed's uniform draws, n
    of x and then n of y, at z = x g1 + y g2."""
    inv, f = system.invariants, system.map
    g1, g2 = inv.lattice.g1, inv.lattice.g2
    rng = UniformStream(seed)
    xs = rng.floats(-0.5, 0.5, n_samples)
    worst = 0.0
    for x, y in zip(xs, rng.floats(-0.5, 0.5, n_samples)):
        z = x * g1 + y * g2
        lhs, w = inv.wp(2.0 * z), inv.wp(z)
        if cmath.isnan(lhs) or cmath.isnan(w):
            return math.inf
        worst = max(worst, chordal(lhs, f(w)))
    return worst
