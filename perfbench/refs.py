"""References computed apart from the program under test.

Nothing here imports `invarcurves`.  Elliptic data come from Jacobi theta
functions in mpmath (a different algorithm from the program's row
resummation and argument halving); rational maps are built and evaluated in
exact or arbitrary-precision arithmetic from the coefficients the benchmark
itself generated; linearizers are known in closed form.
"""

import cmath
import math
from fractions import Fraction

import mpmath as mp

DPS = 30


# ---------------------------------------------------------------------------
# Sphere geometry
# ---------------------------------------------------------------------------

def chordal(a, b):
    """Chordal distance on the Riemann sphere (inf is the pole)."""
    def emb(z):
        if not cmath.isfinite(z):
            return (0.0, 0.0, 1.0)
        r2 = abs(z) ** 2
        return (2 * z.real / (1 + r2), 2 * z.imag / (1 + r2), (r2 - 1) / (1 + r2))
    pa, pb = emb(a), emb(b)
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(pa, pb)))


def projective_chordal(p1, q1, p2, q2):
    """Chordal distance of p1/q1 and p2/q2 from homogeneous values (mpmath)."""
    n1 = mp.sqrt(abs(p1) ** 2 + abs(q1) ** 2)
    n2 = mp.sqrt(abs(p2) ** 2 + abs(q2) ** 2)
    return float(2 * abs(p1 * q2 - p2 * q1) / (n1 * n2))


# ---------------------------------------------------------------------------
# Weierstrass data from theta functions
# ---------------------------------------------------------------------------

def _reduce_basis(a, b):
    """Gauss reduction of a lattice basis, positively oriented."""
    if abs(a) > abs(b):
        a, b = b, a
    while True:
        mu = mp.nint(mp.re(b * mp.conj(a)) / abs(a) ** 2)
        b = b - mu * a
        if abs(b) >= abs(a):
            break
        a, b = b, a
    if mp.im(b / a) < 0:
        b = -b
    return a, b


class ThetaLattice:
    """Invariants and wp of the lattice Z g1 + Z g2 at DPS digits.

    With a reduced basis (a, b), half-period w1 = a/2, nome q = exp(i pi b/a):
        e1 = k (t2^4 + 2 t4^4), e2 = k (t2^4 - t4^4), e3 = -k (2 t2^4 + t4^4),
        k = (pi / (2 w1))^2 / 3,  g2 = 2 (e1^2 + e2^2 + e3^2),  g3 = 4 e1 e2 e3,
        wp(z) = e1 + (pi/(2 w1) * t1'(0) t2(v) / (t2(0) t1(v)))^2,  v = pi z / (2 w1)
    (DLMF 23.6.2-23.6.5), t_j the Jacobi thetas at nome q.
    """

    def __init__(self, g1, g2):
        with mp.workdps(DPS):
            a, b = _reduce_basis(mp.mpc(g1), mp.mpc(g2))
            self.a, self.b = a, b
            self.q = mp.exp(1j * mp.pi * b / a)
            t2, t4 = mp.jtheta(2, 0, self.q), mp.jtheta(4, 0, self.q)
            self.scale = mp.pi / a          # pi / (2 w1)
            k = self.scale ** 2 / 3
            e1 = k * (t2 ** 4 + 2 * t4 ** 4)
            e2 = k * (t2 ** 4 - t4 ** 4)
            e3 = -k * (2 * t2 ** 4 + t4 ** 4)
            self.e1 = e1
            self.inv_g2 = 2 * (e1 ** 2 + e2 ** 2 + e3 ** 2)
            self.inv_g3 = 4 * e1 * e2 * e3
            self._t1p = mp.jtheta(1, 0, self.q, 1)
            self._t2 = t2

    def invariants(self):
        return complex(self.inv_g2), complex(self.inv_g3)

    @property
    def wp_scale(self):
        """The lattice's own magnitude of wp values, max(|g2|^1/2, |g3|^1/3);
        either invariant alone can vanish (square or hexagonal lattices)."""
        g2, g3 = self.invariants()
        return max(abs(g2) ** 0.5, abs(g3) ** (1 / 3))

    def _reduce(self, z):
        """z minus the nearest lattice point in the reduced basis."""
        a, b = self.a, self.b
        det = mp.re(a) * mp.im(b) - mp.im(a) * mp.re(b)
        x = (mp.im(b) * mp.re(z) - mp.re(b) * mp.im(z)) / det
        y = (-mp.im(a) * mp.re(z) + mp.re(a) * mp.im(z)) / det
        return z - mp.nint(x) * a - mp.nint(y) * b

    def wp(self, z):
        """wp(z) as a Python complex (inf at lattice points)."""
        with mp.workdps(DPS):
            z = self._reduce(mp.mpc(z))
            if abs(z) < mp.mpf(10) ** (-DPS // 2) * abs(self.a):
                return complex(math.inf, 0.0)
            v = self.scale * z
            r = self.scale * self._t1p * mp.jtheta(2, v, self.q) \
                / (self._t2 * mp.jtheta(1, v, self.q))
            return complex(self.e1 + r * r)


def duplication_coefficients(g2, g3):
    """The classical duplication map wp(2z) = f(wp(z)), ascending powers,
    denominator made monic: f = (w^4 + g2/2 w^2 + 2 g3 w + g2^2/16) /
    (4 w^3 - g2 w - g3)."""
    num = [g2 * g2 / 16, 2 * g3, g2 / 2, 0, 1]
    den = [-g3, -g2, 0, 4]
    return [c / 4 for c in num], [c / 4 for c in den]


def rel_coefficient_error(got, want, unit=1.0):
    """Max coefficientwise deviation over the joint coefficient scale, with
    the variable measured in `unit` (coefficient k weighted by unit**k), so
    that rescaling the variable does not change the figure."""
    n = max(len(got), len(want))
    got = [complex(c) * unit ** k for k, c in enumerate(list(got) + [0] * (n - len(got)))]
    want = [complex(c) * unit ** k for k, c in enumerate(list(want) + [0] * (n - len(want)))]
    scale = max(max(abs(c) for c in want), 1e-300)
    return max(abs(g - w) for g, w in zip(got, want)) / scale


def concyclic_deviation(points):
    """How far points are from one circle or line, scale-free.

    Circle through three well-spread points, then the largest relative
    deviation |(|p - c| - R)| / R of the rest.  A collinear triple (a line)
    reports the largest distance to that line over the points' extent.
    """
    pts = [p for p in points if cmath.isfinite(p)]
    n = len(pts)
    a, b, c = pts[0], pts[n // 3], pts[(2 * n) // 3]
    ext = max(abs(p - a) for p in pts)
    d = 2 * ((a.real - c.real) * (b.imag - c.imag) - (b.real - c.real) * (a.imag - c.imag))
    if abs(d) <= 1e-14 * ext * ext:
        u = (b - a) / abs(b - a)
        return max(abs(((p - a) / u).imag) for p in pts) / ext
    aa, bb, cc = abs(a) ** 2, abs(b) ** 2, abs(c) ** 2
    cx = (aa * (b.imag - c.imag) + bb * (c.imag - a.imag) + cc * (a.imag - b.imag)) / d
    cy = (aa * (c.real - b.real) + bb * (a.real - c.real) + cc * (b.real - a.real)) / d
    center = complex(cx, cy)
    radius = abs(a - center)
    return max(abs(abs(p - center) - radius) for p in pts) / radius


# ---------------------------------------------------------------------------
# Rational maps: exact construction, arbitrary-precision evaluation
# ---------------------------------------------------------------------------
# A map is a pair (num, den) of coefficient lists, ascending powers.  The
# polynomial helpers work on any number type: Fractions give exact
# construction, mpmath numbers extended precision.

def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def poly_scale(p, c):
    return [c * a for a in p]


def poly_pow(p, k):
    out = [1]
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def degree(m):
    num, den = m
    def deg(p):
        d = len(p) - 1
        while d > 0 and p[d] == 0:
            d -= 1
        return d
    return max(deg(num), deg(den))


def compose_exact(f, g):
    """f o g by homogeneous substitution: f = P/Q of degree d at g = A/B gives
    sum p_k A^k B^(d-k) / sum q_k A^k B^(d-k)."""
    (fp, fq), (ga, gb) = f, g
    d = degree(f)
    fp = list(fp) + [0] * (d + 1 - len(fp))
    fq = list(fq) + [0] * (d + 1 - len(fq))
    num, den = [0], [0]
    for k in range(d + 1):
        term = poly_mul(poly_pow(ga, k), poly_pow(gb, d - k))
        num = poly_add(num, poly_scale(term, fp[k]))
        den = poly_add(den, poly_scale(term, fq[k]))
    return num, den


def mobius_coefficients(m):
    """(a, b, c, d) of the map (a z + b) / (c z + d) given as (num, den)."""
    (b, a), (d, c) = (tuple(list(p) + [0] * (2 - len(p))) for p in m)
    return a, b, c, d


def mobius_inverse(m):
    """Inverse of (a z + b) / (c z + d) as (d z - b) / (-c z + a)."""
    a, b, c, d = mobius_coefficients(m)
    return [-b, d], [a, -c]


def to_json_map(m):
    """Wire format of the program: {"num": [[re, im], ...], "den": ...}."""
    def enc(p):
        return [[z.real, z.imag] for z in map(to_complex, p)]
    return {"num": enc(m[0]), "den": enc(m[1])}


def to_complex(c):
    return complex(float(c)) if isinstance(c, Fraction) else complex(c)


def _mpc(c):
    if isinstance(c, Fraction):
        return mp.mpf(c.numerator) / c.denominator
    return mp.mpc(c)


def from_json_map(d):
    return ([complex(re, im) for re, im in d["num"]],
            [complex(re, im) for re, im in d["den"]])


def _horner(coeffs, z):
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + _mpc(c)
    return acc


def mp_chain_pair(chain, z):
    """Homogeneous value of a composition chain (outermost first) at z."""
    p, q = z, mp.mpc(1)
    for m in reversed(chain):
        num, den = m
        d = degree(m)
        num = list(num) + [0] * (d + 1 - len(num))
        den = list(den) + [0] * (d + 1 - len(den))
        pn, qn = _mpc(num[d]), _mpc(den[d])
        for k in range(d - 1, -1, -1):
            qk = q ** (d - k)
            pn = pn * p + _mpc(num[k]) * qk
            qn = qn * p + _mpc(den[k]) * qk
        p, q = pn, qn
    return p, q


def chain_deviation(left, right, points):
    """Max chordal deviation of two chains at the given points, at DPS digits."""
    worst = 0.0
    with mp.workdps(DPS):
        for z in points:
            z = mp.mpc(z)
            p1, q1 = mp_chain_pair(left, z)
            p2, q2 = mp_chain_pair(right, z)
            worst = max(worst, projective_chordal(p1, q1, p2, q2))
    return worst


def mp_value(m, z):
    """m(z) as a Python complex (inf at poles), evaluated at DPS digits."""
    with mp.workdps(DPS):
        z = mp.mpc(z)
        p, q = _horner(m[0], z), _horner(m[1], z)
        if q == 0:
            return complex(math.inf, 0.0)
        return complex(p / q)


def mp_derivative(m, z):
    """m'(z) by the quotient rule at DPS digits."""
    num, den = m
    dnum = [k * c for k, c in enumerate(num)][1:] or [0]
    dden = [k * c for k, c in enumerate(den)][1:] or [0]
    with mp.workdps(DPS):
        z = mp.mpc(z)
        p, q, dp, dq = (_horner(c, z) for c in (num, den, dnum, dden))
        return complex((dp * q - p * dq) / (q * q))


# ---------------------------------------------------------------------------
# Closed-form linearizers
# ---------------------------------------------------------------------------

def mobius_value(m, w):
    """(a w + b) / (c w + d) in double, inf at the pole."""
    a, b, c, d = (complex(float(x), 0.0) for x in mobius_coefficients(m))
    den = c * w + d
    if den == 0:
        return complex(math.inf, 0.0)
    return (a * w + b) / den


def closed_form_linearizer(family, conj, c, t):
    """F(t) = M(exp(t/c)) for z^d, M(cosh(sqrt(2t/c))) for Chebyshev T_d."""
    s = t / c
    w = cmath.exp(s) if family == "exp" else cmath.cosh(cmath.sqrt(2 * s))
    return mobius_value(conj, w)
