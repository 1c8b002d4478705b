"""Degree-4 maps semiconjugate to doubling on a torus via wp.

The duplication identity wp(2z) = f(wp(z)) defines f from the invariants;
the map is certified against the independent wp evaluator rather than
re-derived.
"""

import numpy as np

from .elliptic import invariants_from_lattice
from .rational import RationalMap, SpherePoint, chordal


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
    f = RationalMap(*invariants.duplication, reduce=False)
    if f.degree != 4:
        raise ValueError("degenerate invariants: duplication map is not degree 4")
    return LattesSystem(invariants, f)


def lattes_from_lattice(lattice):
    return lattes_from_invariants(invariants_from_lattice(lattice))


def verify_lattes(system, n_samples=500, seed=0):
    """Max chordal residual of wp(2z) vs f(wp(z)) at random cell points."""
    inv = system.invariants
    f = system.map
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-0.5, 0.5, n_samples)
    ys = rng.uniform(-0.5, 0.5, n_samples)
    worst = 0.0
    for x, y in zip(xs, ys):
        z = x * inv.lattice.g1 + y * inv.lattice.g2
        lhs = SpherePoint.of(inv.wp(2.0 * z))
        rhs = f(SpherePoint.of(inv.wp(z)))
        worst = max(worst, chordal(lhs, rhs))
    return worst
