"""Degree-4 maps semiconjugate to doubling on a torus via wp.

The duplication identity wp(2z) = f(wp(z)) defines f from the invariants;
the map is certified against the independent wp evaluator rather than
re-derived.
"""

import math

import numpy as np

from .elliptic import invariants_from_lattice
from .rational import RationalMap, chordal_array


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
    if not np.all(np.isfinite(np.concatenate(invariants.duplication))):
        raise ValueError("duplication map coefficients leave the float range")
    f = RationalMap(*invariants.duplication, reduce=False)
    if f.degree != 4:
        raise ValueError("degenerate invariants: duplication map is not degree 4")
    return LattesSystem(invariants, f)


def lattes_from_lattice(lattice):
    return lattes_from_invariants(invariants_from_lattice(lattice))


def verify_lattes(system, n_samples=500, seed=0):
    """Max chordal residual of wp(2z) vs f(wp(z)) at random cell points;
    inf if wp is nan anywhere, so that a failed evaluation never certifies."""
    inv = system.invariants
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-0.5, 0.5, n_samples)
    ys = rng.uniform(-0.5, 0.5, n_samples)
    z = xs * inv.lattice.g1 + ys * inv.lattice.g2
    w = inv.wp(np.concatenate([2.0 * z, z]))
    if np.isnan(w).any():
        return math.inf
    lhs, rhs = w[:n_samples], system.map.eval_array(w[n_samples:])
    return float(np.max(chordal_array(lhs, rhs), initial=0.0))
