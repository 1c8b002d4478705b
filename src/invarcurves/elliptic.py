"""Weierstrass elliptic functions for an arbitrary period lattice.

Invariants come from the weight-4/6 Eisenstein series, evaluated by exact
row resummation over a Gauss-reduced basis (each horizontal row of lattice
points collapses to a closed cosecant form, so the tail decays geometrically;
the raw square-shell sums decay only cubically and cannot reach 1e-12).

Evaluation of wp anywhere: reduce to the fundamental cell, then climb as a
linearizer with multiplier 2 does, since wp(2z) = f(wp(z)): halve into the
disc where the Laurent series is accurate and push back through the degree-4
duplication map f, with the linearizer's pull-back, push-forward and rule for
infinity (rational.py).
"""

import cmath
import math

import numpy as np

from .rational import _INF, RationalMap, pull_back, push_forward

ZETA4 = math.pi ** 4 / 90.0
ZETA6 = math.pi ** 6 / 945.0

LAURENT_ORDER = 24       # c_2..c_M of wp(z) = z^-2 + sum c_k z^(2k-2)
ROW_TOL = 1e-16          # relative cutoff for the row resummation
DEGENERACY_TOL = 1e-12   # |Im(g2/g1)| / scale below this is a degenerate lattice
MAX_HALVINGS = 1100      # a finite point of the frame's cell needs at most ~1030


class Lattice:
    """Full period lattice spanned by two non-parallel generators.

    Generators are stored as given except for orientation: if Im(g2/g1) < 0
    they are swapped so the basis is positively oriented.
    """

    __slots__ = ("g1", "g2")

    def __init__(self, g1, g2):
        g1 = complex(g1)
        g2 = complex(g2)
        if g1 == 0 or g2 == 0:
            raise ValueError("lattice generators must be nonzero")
        ratio = g2 / g1
        if abs(ratio.imag) <= DEGENERACY_TOL * max(1.0, abs(ratio)):
            raise ValueError("generators are parallel (degenerate lattice)")
        if ratio.imag < 0:
            g1, g2 = g2, g1
        self.g1 = g1
        self.g2 = g2

    def basis_matrix(self):
        return np.array([[self.g1.real, self.g2.real],
                         [self.g1.imag, self.g2.imag]])

    def coordinates(self, z):
        """Real coordinates (x, y) with z = x*g1 + y*g2, elementwise."""
        z = np.asarray(z, dtype=complex)
        m = self.basis_matrix()
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        x = (m[1, 1] * z.real - m[0, 1] * z.imag) / det
        y = (-m[1, 0] * z.real + m[0, 0] * z.imag) / det
        return x, y

    def reduced_basis(self):
        """Gauss-reduced generators (same lattice, near-shortest vectors)."""
        a, b = self.g1, self.g2
        if abs(a) > abs(b):
            a, b = b, a
        for _ in range(64):
            mu = round((b * a.conjugate()).real / abs(a) ** 2)
            b = b - mu * a
            if abs(b) >= abs(a):
                break
            a, b = b, a
        if (b / a).imag < 0:
            b = -b
        return a, b

    def shortest_vector_length(self):
        a, _ = self.reduced_basis()
        return abs(a)

    def to_json_dict(self):
        return {"g1": [self.g1.real, self.g1.imag],
                "g2": [self.g2.real, self.g2.imag]}

    @classmethod
    def from_json_dict(cls, d):
        return cls(complex(*d["g1"]), complex(*d["g2"]))

    def __repr__(self):
        return f"Lattice(g1={self.g1!r}, g2={self.g2!r})"


def reduce_to_fundamental(lattice, z):
    """Representative of z in the centered cell (coordinates in [-1/2, 1/2)),
    elementwise."""
    x, y = lattice.coordinates(z)
    x = x - np.floor(x + 0.5)
    y = y - np.floor(y + 0.5)
    return x * lattice.g1 + y * lattice.g2


def _row_sums(tau):
    """G4 and G6 for the lattice <1, tau> by row resummation.

    sum over m of (m + z)^(-4) and (-6) have closed forms in
    u = csc^2(pi z) = -4 q_z / (1 - q_z)^2 with q_z = exp(2 pi i z);
    rows n >= 1 then decay like |q|^n.
    """
    q = cmath.exp(2j * math.pi * tau)
    g4 = 2.0 * ZETA4
    g6 = 2.0 * ZETA6
    qn = 1.0 + 0j
    for _ in range(1, 4000):
        qn *= q
        u = -4.0 * qn / (1.0 - qn) ** 2
        s4 = math.pi ** 4 * u * (3.0 * u - 2.0) / 3.0
        s6 = math.pi ** 6 * u * (15.0 * u * u - 15.0 * u + 2.0) / 15.0
        g4 += 2.0 * s4
        g6 += 2.0 * s6
        if abs(s4) <= ROW_TOL * abs(g4) and abs(s6) <= ROW_TOL * abs(g6):
            break
    return g4, g6


def laurent_coefficients(g2, g3):
    """Coefficients c_2..c_LAURENT_ORDER of wp(z) = z^-2 + sum c_k z^(2k-2).

    c_2 = g2/20, c_3 = g3/28, and the classical quadratic recursion above.
    """
    c = np.zeros(LAURENT_ORDER + 1, dtype=complex)
    c[2] = g2 / 20.0
    c[3] = g3 / 28.0
    for k in range(4, LAURENT_ORDER + 1):
        acc = 0j
        for m in range(2, k - 1):
            acc += c[m] * c[k - m]
        c[k] = 3.0 * acc / ((2 * k + 1) * (k - 3))
    return c


def _duplication_coefficients(g2, g3):
    """Ascending numerator and denominator of the duplication map f with
    wp(2z) = f(wp(z)):
        f(w) = (w^4 + (g2/2) w^2 + 2 g3 w + g2^2/16) / (4 w^3 - g2 w - g3)"""
    return ((g2 * g2 / 16.0, 2.0 * g3, 0.5 * g2, 0j, 1 + 0j),
            (-g3, -g2, 0j, 4 + 0j))


class EllipticInvariants:
    """Lattice with its invariants g2, g3 and the Laurent data of wp.

    wp is evaluated in the frame Lambda / 2^e, where 2^e is the power of two
    of the shortest lattice vector (math.frexp): there the invariants, the
    Laurent data and the duplication map are O(1) whatever the lattice's
    size, and wp and wp' scale back by 2^-2e and 2^-3e.  Scaling by a power
    of two is exact, so the frame changes no value that stays finite without
    it.  `laurent` and `duplication` are the lattice's own coefficients.
    """

    __slots__ = ("lattice", "g2", "g3", "laurent", "duplication", "base_radius",
                 "_exponent", "_cell", "_laurent", "_duplication_map")

    def __init__(self, lattice, g2, g3):
        self.lattice = lattice
        self.g2 = complex(g2)
        self.g3 = complex(g3)
        shortest = lattice.shortest_vector_length()
        e = self._exponent = math.frexp(shortest)[1]
        g2f = self.g2 * math.ldexp(1.0, 4 * e)
        g3f = self.g3 * math.ldexp(1.0, 6 * e)
        scale = max(abs(g2f) ** 3, 27.0 * abs(g3f) ** 2)
        if abs(g2f ** 3 - 27.0 * g3f ** 2) <= 1e-12 * scale:
            raise ValueError("discriminant ~ 0: degenerate invariants")
        # the lattice, Laurent data and duplication map (coprime: the
        # discriminant is not 0) of the frame
        self._cell = Lattice(math.ldexp(1.0, -e) * lattice.g1,
                             math.ldexp(1.0, -e) * lattice.g2)
        self._laurent = laurent_coefficients(g2f, g3f)
        self._duplication_map = RationalMap(*_duplication_coefficients(g2f, g3f), reduce=False)
        with np.errstate(all="ignore"):    # far from side 1 these leave the float range
            self.laurent = laurent_coefficients(self.g2, self.g3)
        self.duplication = _duplication_coefficients(self.g2, self.g3)
        self.base_radius = shortest / 4.0

    # -- evaluation ---------------------------------------------------------

    def wp(self, z):
        """wp(z): a complex for a scalar z, a complex array for an array;
        complex inf at lattice points."""
        return self._climb(z, False)[0]

    def wp_prime(self, z):
        """(wp(z), wp'(z)), scalars or arrays as for wp."""
        return self._climb(z, True)

    def _climb(self, z, derivative):
        """wp (and wp') in the frame: reduce to the centred cell, pull each
        point back by 2 into the disc |z| <= shortest/4 where the Laurent
        series is accurate, then push it forward through the duplication map
        f: the linearizer's climb (rational.pull_back, push_forward) and its
        rule for infinity; lattice points give complex inf.  wp' climbs as
        (f^k)'(wp(z/2^k)) wp'(z/2^k) = 2^k wp'(z), scaled back exactly."""
        z = np.asarray(z, dtype=complex)
        shape, z = z.shape, z.ravel()
        e = self._exponent
        values = [np.full(len(z), _INF) for _ in range(1 + derivative)]
        z = reduce_to_fundamental(self._cell, z * math.ldexp(1.0, -e))
        shortest = math.ldexp(4.0 * self.base_radius, -e)
        live = np.flatnonzero(np.abs(z) > 1e-14 * shortest)
        # division by 2 is exact: the pulled-back points carry no rounding
        z, depth = pull_back(z[live], 2.0, shortest / 4.0, MAX_HALVINGS)
        u = z * z
        c = self._laurent
        acc = dacc = 0j
        for k in range(len(c) - 1, 1, -1):
            acc = (acc + c[k]) * u
            if derivative:
                dacc = (dacc + (2 * k - 2) * c[k]) * u
        w = 1.0 / u + acc
        d = -2.0 / (u * z) + dacc / z if derivative else None
        climbed = push_forward(self._duplication_map, w, depth, d)
        with np.errstate(over="ignore"):    # wp of a tiny lattice leaves the float range
            for out, v, power in zip(values, climbed if derivative else (climbed,),
                                     (-2 * e, -3 * e - depth)):
                out.real[live] = np.ldexp(v.real, power)
                out.imag[live] = np.ldexp(v.imag, power)
        return tuple(v.reshape(shape) if shape else complex(v[0]) for v in values)

    def to_json_dict(self):
        return {
            "lattice": self.lattice.to_json_dict(),
            "g2": [self.g2.real, self.g2.imag],
            "g3": [self.g3.real, self.g3.imag],
        }

    def __repr__(self):
        return (f"EllipticInvariants(g2={self.g2:.12g}, g3={self.g3:.12g}, "
                f"lattice={self.lattice!r})")


def invariants_from_lattice(lattice):
    """g2 = 60 sum' w^-4 and g3 = 140 sum' w^-6 plus the Laurent data."""
    a, b = lattice.reduced_basis()
    tau = b / a
    g4, g6 = _row_sums(tau)
    g2 = 60.0 * g4 / a ** 4
    g3 = 140.0 * g6 / a ** 6
    # a rectangular lattice has exactly real invariants; snap rounding dust
    if abs(g2.imag) <= 1e-14 * abs(g2) and abs(g3.imag) <= 1e-14 * max(abs(g3), abs(g2)):
        g2 = complex(g2.real, 0.0)
        g3 = complex(g3.real, 0.0)
    return EllipticInvariants(lattice, g2, g3)


def square_lattice_with_g2(target_g2):
    """Square lattice <s, is> scaled so its invariant g2 equals the target
    (g3 = 0 by symmetry).  Used for the lemniscatic duplication map."""
    base = invariants_from_lattice(Lattice(1.0, 1j))
    s = (base.g2.real / float(target_g2)) ** 0.25
    return Lattice(s, s * 1j)
