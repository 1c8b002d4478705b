"""Weierstrass elliptic functions for an arbitrary period lattice.

Invariants come from the weight-4/6 Eisenstein series, evaluated by exact
row resummation over a Gauss-reduced basis (each horizontal row of lattice
points collapses to a closed cosecant form, so the tail decays geometrically;
the raw square-shell sums decay only cubically and cannot reach 1e-12).
A brute-force shell summer is kept as an independent cross-check.

Evaluation of wp anywhere: reduce to the fundamental cell, halve the
argument into the disc where the Laurent series is accurate, then climb back
with the degree-4 duplication map.
"""

import cmath
import math

import numpy as np

from .rational import INFINITY, SpherePoint

ZETA4 = math.pi ** 4 / 90.0
ZETA6 = math.pi ** 6 / 945.0

LAURENT_ORDER = 24       # c_2..c_M of wp(z) = z^-2 + sum c_k z^(2k-2)
ROW_TOL = 1e-16          # relative cutoff for the row resummation
DEGENERACY_TOL = 1e-12   # |Im(g2/g1)| / scale below this is a degenerate lattice

_INF = complex(math.inf, 0.0)


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
        """Real coordinates (x, y) with z = x*g1 + y*g2."""
        z = complex(z)
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
    """Representative of z in the centered cell (coordinates in [-1/2, 1/2))."""
    x, y = lattice.coordinates(z)
    x -= math.floor(x + 0.5)
    y -= math.floor(y + 0.5)
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


def eisenstein_sum_brute(lattice, weight, n_max):
    """Direct truncated lattice sum of w^(-weight) over max(|m|,|n|) <= n_max.

    Shell-by-shell in integer order with compensated accumulation; this is
    the slow reference the fast invariants are checked against.
    """
    g1, g2 = lattice.g1, lattice.g2
    total = 0j
    comp = 0j
    for s in range(1, n_max + 1):
        edge = np.arange(-s, s + 1)
        m = np.concatenate([edge, edge, np.full(2 * s - 1, -s), np.full(2 * s - 1, s)])
        n = np.concatenate([np.full(2 * s + 1, -s), np.full(2 * s + 1, s),
                            edge[1:-1], edge[1:-1]])
        shell = complex(np.sum((m * g1 + n * g2) ** (-float(weight))))
        # Neumaier-style compensated add across shells
        t = total + shell
        if abs(total) >= abs(shell):
            comp += (total - t) + shell
        else:
            comp += (shell - t) + total
        total = t
    return total + comp


def laurent_coefficients(g2, g3, order=LAURENT_ORDER):
    """Coefficients c_2..c_order of wp(z) = z^-2 + sum c_k z^(2k-2).

    c_2 = g2/20, c_3 = g3/28, and the classical quadratic recursion above.
    """
    c = np.zeros(order + 1, dtype=complex)
    c[2] = g2 / 20.0
    c[3] = g3 / 28.0
    for k in range(4, order + 1):
        acc = 0j
        for m in range(2, k - 1):
            acc += c[m] * c[k - m]
        c[k] = 3.0 * acc / ((2 * k + 1) * (k - 3))
    return c


class EllipticInvariants:
    """Lattice with its invariants g2, g3 and the Laurent data of wp."""

    __slots__ = ("lattice", "g2", "g3", "laurent", "duplication", "base_radius",
                 "_shortest")

    def __init__(self, lattice, g2, g3, laurent=None):
        self.lattice = lattice
        self.g2 = complex(g2)
        self.g3 = complex(g3)
        scale = max(abs(self.g2) ** 3, 27.0 * abs(self.g3) ** 2)
        if abs(self.discriminant) <= 1e-12 * scale:
            raise ValueError("discriminant ~ 0: degenerate invariants")
        self.laurent = laurent if laurent is not None \
            else laurent_coefficients(self.g2, self.g3)
        # ascending numerator and denominator of the duplication map f with
        # wp(2z) = f(wp(z)):
        #   f(w) = (w^4 + (g2/2) w^2 + 2 g3 w + g2^2/16) / (4 w^3 - g2 w - g3)
        g2, g3 = self.g2, self.g3
        self.duplication = ((g2 * g2 / 16.0, 2.0 * g3, 0.5 * g2, 0j, 1 + 0j),
                            (-g3, -g2, 0j, 4 + 0j))
        self._shortest = lattice.shortest_vector_length()
        self.base_radius = self._shortest / 4.0

    @property
    def discriminant(self):
        return self.g2 ** 3 - 27.0 * self.g3 ** 2

    # -- evaluation ---------------------------------------------------------

    def _series_pair(self, z):
        """(wp, wp') from the Laurent data, valid for |z| <= base_radius."""
        u = z * z
        acc = 0j
        dacc = 0j
        c = self.laurent
        for k in range(len(c) - 1, 1, -1):
            acc = (acc + c[k]) * u
            dacc = (dacc + (2 * k - 2) * c[k]) * u
        wp = 1.0 / u + acc
        wpp = -2.0 / (u * z) + dacc / z
        return wp, wpp

    def _prepare(self, z):
        z = reduce_to_fundamental(self.lattice, complex(z))
        if abs(z) <= 1e-14 * self._shortest:
            return None, 0
        k = 0
        while abs(z) > self.base_radius:
            z *= 0.5
            k += 1
        return z, k

    def _double(self, w):
        """(f(w), f'(w)) for the duplication map f, by Horner on its
        coefficients; infinite at the poles of f and past the overflow guard."""
        if not (math.isfinite(w.real) and math.isfinite(w.imag)) or abs(w) > 1e100:
            return _INF, _INF
        (a0, a1, a2, a3, a4), (b0, b1, b2, b3) = self.duplication
        den = ((b3 * w + b2) * w + b1) * w + b0
        if den == 0:
            return _INF, _INF
        num = (((a4 * w + a3) * w + a2) * w + a1) * w + a0
        dnum = ((4.0 * a4 * w + 3.0 * a3) * w + 2.0 * a2) * w + a1
        dden = (3.0 * b3 * w + 2.0 * b2) * w + b1
        return num / den, (dnum * den - num * dden) / (den * den)

    def wp(self, z):
        """wp(z) as a complex number (complex inf at lattice points)."""
        zb, k = self._prepare(z)
        if zb is None:
            return _INF
        w, _ = self._series_pair(zb)
        for _ in range(k):
            w, _ = self._double(w)
        return w

    def wp_prime(self, z):
        """(wp(z), wp'(z)); the derivative climbs the doubling chain by
        wp'(2z) = f'(wp(z)) * wp'(z) / 2."""
        zb, k = self._prepare(z)
        if zb is None:
            return _INF, _INF
        w, wp = self._series_pair(zb)
        for _ in range(k):
            w, fprime = self._double(w)
            if w == _INF:
                return _INF, _INF
            wp = 0.5 * fprime * wp
        return w, wp

    def to_json_dict(self):
        return {
            "lattice": self.lattice.to_json_dict(),
            "g2": [self.g2.real, self.g2.imag],
            "g3": [self.g3.real, self.g3.imag],
        }

    def __repr__(self):
        return (f"EllipticInvariants(g2={self.g2:.12g}, g3={self.g3:.12g}, "
                f"lattice={self.lattice!r})")


def invariants_from_lattice(lattice, laurent_order=LAURENT_ORDER):
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
    return EllipticInvariants(lattice, g2, g3,
                              laurent_coefficients(g2, g3, laurent_order))


def wp_eval(invariants, z):
    """wp(z) as a SpherePoint (total: lattice points go to infinity)."""
    w = invariants.wp(z)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        return INFINITY
    return SpherePoint(w)


def wp_prime_eval(invariants, z):
    """wp'(z) as a SpherePoint."""
    _, wp = invariants.wp_prime(z)
    if not (math.isfinite(wp.real) and math.isfinite(wp.imag)):
        return INFINITY
    return SpherePoint(wp)


def square_lattice_with_g2(target_g2):
    """Square lattice <s, is> scaled so its invariant g2 equals the target
    (g3 = 0 by symmetry).  Used for the lemniscatic duplication map."""
    base = invariants_from_lattice(Lattice(1.0, 1j))
    s = (base.g2.real / float(target_g2)) ** 0.25
    return Lattice(s, s * 1j)
