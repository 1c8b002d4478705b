"""Rational maps on the Riemann sphere with floating complex coefficients.

Polynomials are stored as ascending lists of Python complex coefficients;
rational maps keep a coprime numerator/denominator pair with monic
denominator.  Exactness is replaced throughout by explicit tolerances:
equality of maps is tested by evaluation on the unit circle, common factors
are removed by an approximate Euclidean algorithm, and roots carry a
residual bound.

The map algebra and the chain certifier run without numpy; the array
kernels (evaluation on the sphere, the climb, roots, seeded draws) import it
in their own bodies.
"""

import math
import operator
from itertools import repeat

TAU_GCD = 1e-10      # relative tolerance for approximate common factors
TAU_ROOT = 1e-10     # scaled residual bound for polynomial roots
TAU_CLASS = 1e-9     # classification band around |multiplier| = 1
TAU_IDENTITY = 1e-9  # unit-circle sampling tolerance for map identity
DEGREE_CAP = 4096    # cap on composition/iteration degree growth

SUPERATTRACTING = "superattracting"
ATTRACTING = "attracting"
REPELLING = "repelling"
NEUTRAL_RATIONAL = "neutral-rational"
NEUTRAL_IRRATIONAL = "neutral-irrational-candidate"

_HUGE = 1e150        # moduli beyond this are treated as the point at infinity
_INF = complex(math.inf, 0.0)


class DegreeCapExceeded(ValueError):
    """Composition or iteration would exceed DEGREE_CAP."""


class RootConvergenceError(ArithmeticError):
    """Computed polynomial roots miss the residual target."""


# ---------------------------------------------------------------------------
# Points on the sphere: complex(inf, 0) is the point at infinity, and so is
# every value that is not finite or exceeds _HUGE in modulus
# ---------------------------------------------------------------------------

def chordal(a, b):
    """Chordal distance on the Riemann sphere (symmetric, <= 2)."""
    return float(chordal_array(a, b))


def embed_points(values):
    """Vectorized sphere embedding: complex array -> (n, 3) array.

    Non-finite or overly large entries map to the north pole.
    """
    import numpy as np
    z = np.asarray(values, dtype=complex)
    bad = ~(np.abs(z) <= _HUGE)          # nan and inf compare false
    zs = np.where(bad, 0.0, z)
    n = np.abs(zs) ** 2
    out = np.empty(z.shape + (3,))
    out[..., 0] = 2 * zs.real / (n + 1)
    out[..., 1] = 2 * zs.imag / (n + 1)
    out[..., 2] = (n - 1) / (n + 1)
    out[bad] = (0.0, 0.0, 1.0)
    return out


def chordal_array(values_a, values_b):
    """Chordal distances between two complex arrays (inf-aware)."""
    import numpy as np
    return np.linalg.norm(embed_points(values_a) - embed_points(values_b), axis=-1)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

def _quotient(a, b):
    """a / b for complex a, b, rounded as numpy's complex division rounds
    (Smith's algorithm with one reciprocal), so that a map that is only
    normalized keeps the coefficients it had when numpy divided them.  b = 0
    gives numpy's complex inf or nan, not an exception."""
    br, bi = b.real, b.imag
    if abs(br) >= abs(bi):
        if br == 0:                     # and bi == 0
            return complex(*(x * math.inf if x else math.nan for x in (a.real, a.imag)))
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((a.real + a.imag * rat) * scl, (a.imag - a.real * rat) * scl)
    rat = br / bi if bi else math.nan   # bi = 0 here only when br is nan
    scl = 1.0 / (bi + br * rat)
    return complex((a.real * rat + a.imag) * scl, (a.imag * rat - a.real) * scl)


def polyval(x, c):
    """c[0] + c[1] x + ... + c[n] x^n by Horner, for a scalar or an array x;
    numpy.polynomial's polyval step for step."""
    if isinstance(x, (tuple, list)):
        import numpy as np
        x = np.asarray(x)
    c0 = c[-1] + x * 0
    for i in range(2, len(c) + 1):
        c0 = c[-i] + c0 * x
    return c0


def polyder(c):
    """Coefficients of the derivative of a polynomial of degree >= 1: a list
    for a list, else an array with numpy.polynomial's polyder values (zero
    parts may differ in sign)."""
    d = [c[k] * k for k in range(1, len(c))]
    if isinstance(c, list):
        return d
    import numpy as np
    return np.array(d)


# products of higher degree are numpy's convolution: Python's costs about
# 120 ns a term, 8 ms at degree 512 (257 x 256 terms), and a composition of
# two degree-64 maps (degree DEGREE_CAP) took 2.5 s, against 30 ms with numpy
ARRAY_PRODUCT_DEGREE = 512


def _convolve(a, b):
    """Coefficients of the product of two polynomials, one row of b at a time."""
    if len(a) < len(b):
        a, b = b, a
    n, out = len(a), [0j] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        out[j:j + n] = map(operator.add, out[j:j + n], map(operator.mul, a, repeat(y)))
    return out


def _strip_exact_zeros(c):
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


class Polynomial:
    """Complex polynomial with ascending coefficients, a list of Python
    complex; the zero polynomial is [0j]."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        if hasattr(coefficients, "tolist"):     # a numpy array, at Python speed
            coefficients = coefficients.tolist()
        try:
            c = [complex(x) for x in coefficients]
        except TypeError:               # a scalar
            c = [complex(coefficients)]
        self.coefficients = _strip_exact_zeros(c or [0j])

    @classmethod
    def _of(cls, c):
        """The polynomial of a nonempty list of Python complex, as it is."""
        p = object.__new__(cls)
        p.coefficients = _strip_exact_zeros(c)
        return p

    @classmethod
    def monomial(cls, k):
        return cls([0] * k + [1])

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @property
    def is_zero(self):
        return self.degree == 0 and self.coefficients[0] == 0

    @property
    def scale(self):
        """Largest coefficient magnitude."""
        return max(map(abs, self.coefficients))

    def __call__(self, z):
        return polyval(z, self.coefficients)

    def __add__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial(other)
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        return Polynomial._of(list(map(operator.add, a, b)) + a[len(b):])

    def __neg__(self):
        return Polynomial._of([-x for x in self.coefficients])

    def __sub__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial([0])
            if self.degree + other.degree > ARRAY_PRODUCT_DEGREE:
                import numpy as np
                return Polynomial(np.convolve(self.coefficients, other.coefficients))
            return Polynomial._of(_convolve(self.coefficients, other.coefficients))
        s = complex(other)
        return Polynomial._of([x * s for x in self.coefficients])

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def derivative(self):
        if self.degree == 0:
            return Polynomial([0])
        return Polynomial(polyder(self.coefficients))

    def monic(self):
        lead = self.coefficients[-1]
        if lead == 0:
            raise ValueError("cannot normalize the zero polynomial")
        return Polynomial._of([_quotient(x, lead) for x in self.coefficients])

    def scale_argument(self, c):
        """The polynomial z -> p(c*z)."""
        out, power, c = [], 1 + 0j, complex(c)
        for x in self.coefficients:
            out.append(x * power)
            power *= c
        return Polynomial._of(out)

    def trimmed(self, rtol):
        """Drop trailing coefficients below rtol * scale (junk from arithmetic)."""
        if self.is_zero:
            return self
        tol = rtol * self.scale
        c = self.coefficients
        n = len(c)
        while n > 1 and abs(c[n - 1]) <= tol:
            n -= 1
        return Polynomial(c[:n])

    def __repr__(self):
        return f"Polynomial({self.coefficients})"


def poly_divmod(a, b):
    """Quotient and remainder of a by b (ascending coefficients), by the long
    division of numpy's polydiv on Python complex."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    r, d = list(a.coefficients), b.coefficients
    if len(r) < len(d):
        return Polynomial._of([r[0] * 0]), Polynomial._of(r)
    scl = d[-1]
    if len(d) == 1:
        return Polynomial._of([_quotient(x, scl) for x in r]), Polynomial._of([r[0] * 0])
    d = [_quotient(x, scl) for x in d[:-1]]
    j = len(r) - 1
    for i in range(len(r) - len(d) - 1, -1, -1):
        t = r[j]
        r[i:j] = [x - y * t for x, y in zip(r[i:j], d)]
        j -= 1
    return Polynomial._of([_quotient(x, scl) for x in r[j + 1:]]), Polynomial._of(r[:j + 1])


# ---------------------------------------------------------------------------
# Seeded samples: np.random.default_rng(seed).uniform, value for value, so
# that a cold job need not import numpy.random
# ---------------------------------------------------------------------------

_M32, _M64, _M128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1


def _seed_hash(const, mult):
    """SeedSequence's hashmix: each call hashes a 32-bit word with the next
    hash constant."""
    def hashmix(v):
        nonlocal const
        v ^= const
        const = const * mult & _M32
        v = v * const & _M32
        return v ^ v >> 16
    return hashmix


def _affine128(hi, lo, a, c):
    """(a s + c) mod 2**128 for the states s = hi 2**64 + lo of uint64 arrays."""
    a1, a0, l1, l0 = a >> 32 & _M32, a & _M32, lo >> 32, lo & _M32
    # the high word of the 128-bit product lo (a mod 2**64), from 32-bit parts
    p01, p10 = l0 * a1, l1 * a0
    mid = (l0 * a0 >> 32) + (p01 & _M32) + (p10 & _M32)
    hi = (l1 * a1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
          + lo * (a >> 64) + hi * (a & _M64))
    lo = lo * (a & _M64) + (c & _M64)
    return hi + (lo < (c & _M64)) + (c >> 64), lo


class UniformStream:
    """The draws of np.random.default_rng(seed).uniform, call after call:
    SeedSequence's mixing of the seed's 32-bit words seeds PCG64 (a 128-bit
    LCG with XSL-RR output x), and a draw is low + (high - low) (x >> 11) 2**-53.
    A call builds its states by jumps, s[k + m] = A_m s[k] + C_m mod 2**128."""

    _MULT = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _seed_hash(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(v) for v in (words + [0] * 4)[:4]]

        def mix(dst, v):
            r = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(v)) & _M32
            pool[dst] = r ^ r >> 16
        for src in range(4):                # every pool word into every other
            for dst in range(4):
                if src != dst:
                    mix(dst, pool[src])
        for v in words[4:]:                 # then each word beyond the pool
            for dst in range(4):
                mix(dst, v)
        # generate_state(4, np.uint64): the LCG's seed and stream, 32 bits at a time
        w = list(map(_seed_hash(0x8B51F9DD, 0x58F38DED), pool * 2))
        self._inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _M128 | 1
        s = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        self._state = ((self._inc + s) * self._MULT + self._inc) & _M128

    def uniform(self, low, high, size):
        import numpy as np
        shape = (size,) if isinstance(size, int) else tuple(size)
        n = math.prod(shape)
        out, a, c = np.empty(n), self._MULT, self._inc
        s = (a * self._state + c) & _M128
        hi, lo = np.array([s >> 64], dtype=np.uint64), np.array([s & _M64], dtype=np.uint64)
        # one block of states by doubling, (a, c) stepping by its length; then
        # a block at a time, in cache
        while len(hi) < min(n, 8192):
            hi, lo = map(np.concatenate, zip((hi, lo), _affine128(hi, lo, a, c)))
            a, c = a * a & _M128, (a * c + c) & _M128
        for j in range(0, n, len(hi)):
            if j:
                hi, lo = _affine128(hi, lo, a, c)
            k = min(len(hi), n - j)         # the draws this block gives
            x, rot = hi[:k] ^ lo[:k], hi[:k] >> 58
            x = x >> rot | x << (64 - rot & 63)
            out[j:j + k] = low + (high - low) * ((x >> 11) * 2.0 ** -53)
            self._state = int(hi[k - 1]) << 64 | int(lo[k - 1])
        return out.reshape(shape)


def approx_gcd(p, q):
    """Approximate monic GCD by the Euclidean algorithm with a relative
    zero test on remainders; returns 1 when no convincing factor exists."""
    if p.is_zero:
        return q.monic() if not q.is_zero else Polynomial([1])
    if q.is_zero:
        return p.monic()
    a, b = (p, q) if p.degree >= q.degree else (q, p)
    a = a.monic()
    b = b.monic()
    while b.degree >= 1:
        _, r = poly_divmod(a, b)
        if r.is_zero or r.scale <= TAU_GCD * max(1.0, b.scale):
            candidate = b
            # candidate must divide both inputs within tolerance
            ok = True
            for f in (p, q):
                _, rem = poly_divmod(f, candidate)
                if rem.scale > TAU_GCD * max(1.0, f.scale) * 10:
                    ok = False
                    break
            return candidate if ok else Polynomial([1])
        a, b = b, r.monic()
    return Polynomial([1])


# ---------------------------------------------------------------------------
# Root finding (eigenvalues of the companion matrix)
# ---------------------------------------------------------------------------

def poly_roots(p):
    """All roots of p with multiplicity, in np.sort_complex order.

    They are the eigenvalues of the companion matrix of p scaled to unit
    largest coefficient, and each must meet the backward residual bound
    |p(z)| <= TAU_ROOT * scale * max(1, |z|)^deg.
    """
    import numpy as np
    p = p if isinstance(p, Polynomial) else Polynomial(p)
    if p.degree < 1:
        raise ValueError("need degree >= 1 to extract roots")
    c, n = np.asarray(p.coefficients) / p.scale, p.degree
    companion = np.diag(np.ones(n - 1, dtype=complex), -1)
    companion[:, -1] = -c[:-1] / c[-1]
    z = np.sort_complex(np.linalg.eigvals(companion))
    worst = np.max(np.abs(polyval(z, c)) / np.maximum(1.0, np.abs(z)) ** n)
    if not worst <= TAU_ROOT:
        raise RootConvergenceError(f"roots miss the residual bound (worst scaled residual {worst:.3e})")
    return z


def _root_beyond_huge(c):
    """Has the polynomial with coefficients c a root beyond _HUGE?  By Vieta,
    its largest root is at least (|c_k / c_n| / binom(n, k))^(1/(n - k)) for
    every k < n (the test is made in logarithms, so that no ratio overflows)."""
    n, top = len(c) - 1, abs(c[-1])
    if top == 0:
        return True
    return any(math.log(abs(c[k])) - math.log(math.comb(n, k)) - math.log(top)
               > (n - k) * math.log(_HUGE) for k in range(n) if c[k] != 0)


# ---------------------------------------------------------------------------
# Rational maps
# ---------------------------------------------------------------------------

class RationalMap:
    """Quotient of coprime polynomials with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduce=True):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = Polynomial([1]) if den is None else (
            den if isinstance(den, Polynomial) else Polynomial(den))
        if den.is_zero:
            raise ValueError("denominator is identically zero")
        if reduce and num.degree + den.degree > 0 and not num.is_zero:
            g = approx_gcd(num, den)
            if g.degree >= 1:
                num, _ = poly_divmod(num, g)
                den, _ = poly_divmod(den, g)
        lead = den.coefficients[-1]
        num = [_quotient(x, lead) for x in num.coefficients]
        den = [_quotient(x, lead) for x in den.coefficients]
        if not all(math.isfinite(x.real) and math.isfinite(x.imag) for x in num + den):
            raise ValueError("rational map coefficients beyond the float range")
        self.num, self.den = Polynomial._of(num), Polynomial._of(den)

    @classmethod
    def identity(cls):
        return cls([0, 1])

    @property
    def degree(self):
        return max(self.num.degree, self.den.degree)

    def __repr__(self):
        return f"RationalMap(num={self.num!r}, den={self.den!r})"

    # -- evaluation ---------------------------------------------------------

    def __call__(self, z):
        """Evaluate on the sphere; total (poles and infinity included), a
        complex that is complex inf at infinity."""
        return complex(self.eval_array(z)[()])

    def eval_array(self, z):
        """Vectorized evaluation on the sphere; total (poles and infinity
        included).  __call__ is this kernel on one point.

        Input entries that are not finite or exceed _HUGE in modulus are the
        point at infinity.  Poles, overflow and moduli beyond _HUGE come out
        as complex(inf, 0); the result never holds nan.
        """
        import numpy as np
        z = np.asarray(z, dtype=complex)
        out = np.empty(z.shape, dtype=complex)
        mag = np.abs(z)
        at_inf = ~(mag <= _HUGE)          # nan and inf compare false
        inner = mag <= 1.0
        outer = ~(inner | at_inf)
        k = self.num.degree - self.den.degree
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            zi = z[inner]
            p = polyval(zi, self.num.coefficients)
            q = polyval(zi, self.den.coefficients)
            vi = p / q
            vi[q == 0] = complex(np.inf, 0.0)
            out[inner] = vi
            zo = z[outer]
            w = 1.0 / zo
            pr = polyval(w, self.num.coefficients[::-1])
            qr = polyval(w, self.den.coefficients[::-1])
            ratio = pr / qr
            vo = ratio * zo ** k
            vo[ratio == 0] = 0.0          # 0 * overflowed z^k is 0, not nan
            vo[qr == 0] = complex(np.inf, 0.0)
            out[outer] = vo
        lead = _quotient(self.num.coefficients[-1], self.den.coefficients[-1])
        out[at_inf] = np.inf if k > 0 else (0.0 if k < 0 else lead)
        out[~(np.abs(out) <= _HUGE)] = np.inf
        return out

    # -- algebra ------------------------------------------------------------

    def __mul__(self, other):
        return RationalMap(self.num * other.num, self.den * other.den)

    def __pow__(self, n):
        """Pointwise power f(z)^n (not iteration); powers of a coprime pair
        stay coprime, so no gcd pass is needed."""
        return RationalMap(self.num ** n, self.den ** n, reduce=False)

    def derivative_at(self, z):
        """f'(z) at finite z, by the quotient rule (no map construction)."""
        z = complex(z)
        p, q = self.num, self.den
        qz = q(z)
        return _quotient(p.derivative()(z) * qz - p(z) * q.derivative()(z), qz * qz)

    def conjugate_by_inversion(self):
        """The map w -> 1/f(1/w) (conjugation moving infinity to 0)."""
        dp, dq = self.num.degree, self.den.degree
        rnum = [0j] * max(dp - dq, 0) + self.den.coefficients[::-1]
        rden = [0j] * max(dq - dp, 0) + self.num.coefficients[::-1]
        return RationalMap(rnum, rden, reduce=False)

    def precompose_scale(self, c):
        """The map z -> f(c*z)."""
        return RationalMap(self.num.scale_argument(c),
                           self.den.scale_argument(c), reduce=False)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        return {
            "num": [[z.real, z.imag] for z in self.num.coefficients],
            "den": [[z.real, z.imag] for z in self.den.coefficients],
        }

    @classmethod
    def from_json_dict(cls, d):
        num = [complex(re, im) for re, im in d["num"]]
        den = [complex(re, im) for re, im in d["den"]]
        return cls(num, den)


# ---------------------------------------------------------------------------
# Module operations
# ---------------------------------------------------------------------------

def pull_back(z, mu, radius, max_steps):
    """Divide each point of a flat array by mu until |z| <= radius: the
    points reached and the step count of each.  A point that needs more than
    max_steps steps raises ArithmeticError."""
    import numpy as np
    out, depth = z.copy(), np.zeros(len(z), dtype=int)
    idx = np.flatnonzero(np.abs(out) > radius)
    while len(idx):                  # the points still outside share one depth
        if depth[idx[0]] == max_steps:
            raise ArithmeticError(f"z = {complex(z[idx[0]]):.6g} needs more than {max_steps} "
                                  f"pull-back steps (|mu| = {abs(mu):.6g})")
        out[idx] /= mu
        depth[idx] += 1
        idx = idx[np.abs(out[idx]) > radius]
    return out, depth


def push_forward(f, w, depth):
    """Send each w[i] through f.eval_array depth[i] times, deepest first so
    that each step runs over the prefix still climbing.  This is the climb
    of the Poincare functions Phi(mu z) = f(Phi(z)), the linearizer and wp,
    under eval_array's rule for w and every step: not finite or beyond _HUGE
    is complex inf."""
    import numpy as np
    order = np.argsort(-depth, kind="stable")
    depth, w = depth[order], np.where(np.abs(w) <= _HUGE, w, np.inf)[order]
    for s in range(1, int(depth.max(initial=0)) + 1):
        m = int(np.searchsorted(-depth, -s, side="right"))
        w[:m] = f.eval_array(w[:m])
    return w[np.argsort(order)]


def homogeneous_horner(f, p, q):
    """(q^d num(p/q), q^d den(p/q)) with d = deg f: f applied to the
    homogeneous value p/q, by Horner in p with running powers of q.

    Only ring operations are used, so p and q may be Polynomials, truncated
    power series, complex double-doubles, scalars or arrays of any complex
    dtype; the output lives where they do.
    """
    d = f.degree
    num = f.num.coefficients + [0j] * (d - f.num.degree)
    den = f.den.coefficients + [0j] * (d - f.den.degree)
    qpow = q ** 0   # broadcasts a constant map over the operands' shape
    pn, qn = qpow * num[d], qpow * den[d]
    for k in range(d - 1, -1, -1):
        qpow = qpow * q
        pn = pn * p + qpow * num[k]
        qn = qn * p + qpow * den[k]
    return pn, qn


def compose(f, g):
    """The composition f(g(z)) as a rational map."""
    if f.degree * g.degree > DEGREE_CAP:
        raise DegreeCapExceeded(
            f"composition degree {f.degree * g.degree} exceeds cap {DEGREE_CAP}")
    # composition of coprime maps is coprime; skip the gcd pass
    return RationalMap(*homogeneous_horner(f, g.num, g.den), reduce=False)


def iterate(f, n):
    """The n-fold composition f o f o ... o f, n >= 1."""
    if n < 1:
        raise ValueError("iteration count must be >= 1")
    if n > DEGREE_CAP or f.degree ** n > DEGREE_CAP:     # n first: no d^n of a huge n
        raise DegreeCapExceeded(f"{n} iterates of a degree-{f.degree} map exceed cap {DEGREE_CAP}")
    out = f
    for _ in range(n - 1):
        out = compose(out, f)
    return out


# ---------------------------------------------------------------------------
# Chain certificates in complex double-double
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0     # 2^27 + 1: Dekker's splitting constant
# points x Horner steps above which two chains are evaluated on numpy arrays
# rather than one point at a time on floats: the crossover of a cold job, in
# which numpy's import (about 55 ms) is the arrays' main cost.  Cold
# `semiconj --u --v` jobs of degrees 4 and 5 (165 points, 48 steps: 7,920)
# took 130 ms either way, on 2 cores with Python 3.11 and numpy 2.4.
ARRAY_WORK = 8000


class _DoubleDouble:
    """A complex double-double: real part rh + rl and imaginary part ih + il,
    each an unevaluated sum of two floats, or of two float64 arrays lane by
    lane.  Products use Dekker's TwoProduct and sums Knuth's TwoSum, so only
    +, - and * are used, and floats and arrays give the same bits.

    A Python number (a map's coefficient) multiplies and adds exactly; 0 times
    anything is the int 0, so that homogeneous_horner skips its terms, and
    q ** 0 is the int 1.
    """

    __slots__ = ("rh", "rl", "ih", "il", "_halves")

    def __init__(self, rh, rl, ih, il):
        self.rh = rh
        self.rl = rl
        self.ih = ih
        self.il = il
        self._halves = None

    @classmethod
    def exact(cls, x):
        """x itself if a double-double, else the Python number x, exactly."""
        return x if isinstance(x, cls) else cls(x.real, 0.0, x.imag, 0.0)

    def halves(self):
        """Dekker's splits rh = a1 + a2 and ih = b1 + b2, each first half
        holding 26 bits, as (a1, a2, b1, b2); made once, for |rh|, |ih| < 2^996."""
        if self._halves is None:
            t = _SPLIT * self.rh
            a1 = t - (t - self.rh)
            t = _SPLIT * self.ih
            b1 = t - (t - self.ih)
            self._halves = (a1, self.rh - a1, b1, self.ih - b1)
        return self._halves

    def __neg__(self):
        return _DoubleDouble(-self.rh, -self.rl, -self.ih, -self.il)

    def __add__(self, other):
        if isinstance(other, _DoubleDouble):
            b, bl, d, dl = other.rh, other.rl, other.ih, other.il
        elif other == 0:
            return self
        else:
            b, bl, d, dl = other.real, 0.0, other.imag, 0.0
        # TwoSum of the high parts, then the low parts, per component
        a = self.rh
        h = a + b
        v = h - a
        lo = ((a - (h - v)) + (b - v)) + (self.rl + bl)
        rh = h + lo
        rl = lo - (rh - h)
        a = self.ih
        h = a + d
        v = h - a
        lo = ((a - (h - v)) + (d - v)) + (self.il + dl)
        ih = h + lo
        return _DoubleDouble(rh, rl, ih, lo - (ih - h))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __pow__(self, n):
        return 1 if n == 0 else NotImplemented

    def __mul__(self, other):
        if not isinstance(other, _DoubleDouble):
            return self._times(other)
        xr, xrl, xi, xil = self.rh, self.rl, self.ih, self.il
        yr, yrl, yi, yil = other.rh, other.rl, other.ih, other.il
        a1, a2, b1, b2 = self._halves or self.halves()
        c1, c2, d1, d2 = other._halves or other.halves()
        # real part xr yr - xi yi: each product's rounding error (TwoProduct,
        # as Ogita, Rump and Oishi write it), TwoSum of the products, and the
        # low parts' terms
        p, s = xr * yr, xi * yi
        h = p - s
        v = h - p
        lo = (((a2 * c2 - (((p - a1 * c1) - a2 * c1) - a1 * c2))
               - (b2 * d2 - (((s - b1 * d1) - b2 * d1) - b1 * d2)))
              + ((p - (h - v)) - (s + v))) + ((xr * yrl + xrl * yr) - (xi * yil + xil * yi))
        rh = h + lo
        rl = lo - (rh - h)
        # imaginary part xr yi + xi yr
        p, s = xr * yi, xi * yr
        h = p + s
        v = h - p
        lo = (((a2 * d2 - (((p - a1 * d1) - a2 * d1) - a1 * d2))
               + (b2 * c2 - (((s - b1 * c1) - b2 * c1) - b1 * c2)))
              + ((p - (h - v)) + (s - v))) + ((xr * yil + xrl * yi) + (xi * yrl + xil * yr))
        ih = h + lo
        return _DoubleDouble(rh, rl, ih, lo - (ih - h))

    def _times(self, c):
        """self * c for a Python number c, whose parts are exact doubles."""
        if c == 0:
            return 0
        if c == 1:
            return self
        cr, ci = c.real, c.imag
        xr, xi = self.rh, self.ih
        a1, a2, b1, b2 = self._halves or self.halves()
        t = _SPLIT * cr
        c1 = t - (t - cr)
        c2 = cr - c1
        p, s = cr * xr, cr * xi
        re_lo = (c2 * a2 - (((p - c1 * a1) - c2 * a1) - c1 * a2)) + cr * self.rl
        im_lo = (c2 * b2 - (((s - c1 * b1) - c2 * b1) - c1 * b2)) + cr * self.il
        if ci:          # less ci xi in the real part, plus ci xr in the imaginary
            t = _SPLIT * ci
            d1 = t - (t - ci)
            d2 = ci - d1
            u = ci * xi
            h = p - u
            v = h - p
            re_lo = ((re_lo - (d2 * b2 - (((u - d1 * b1) - d2 * b1) - d1 * b2)))
                     + ((p - (h - v)) - (u + v))) - ci * self.il
            p = h
            u = ci * xr
            h = s + u
            v = h - s
            im_lo = ((im_lo + (d2 * a2 - (((u - d1 * a1) - d2 * a1) - d1 * a2)))
                     + ((s - (h - v)) + (u - v))) + ci * self.rl
            s = h
        rh = p + re_lo
        ih = s + im_lo
        return _DoubleDouble(rh, re_lo - (rh - p), ih, im_lo - (ih - s))

    __rmul__ = __mul__


def _chain_chordal(chains, zr, zi, maximum, frexp, ldexp, sqrt):
    """The chordal parts of two chains at z = zr + i zi, in complex
    double-double: (|p1 q2 - p2 q1|, |(p1, q1)|, |(p2, q2)|).

    Each chain pushes (p, q) = (z, 1) through its maps, innermost first, by
    homogeneous_horner, and scales (p, q) after each map by the power of two
    that brings the larger of |p|, |q| into [2^-1/2, 2^1/2) (its largest
    part into [1/2, 1), then twice that if both moduli are below 2^-1/2):
    exact, and the projective value is unchanged.  A degree-d map's Horner
    terms then stay within 2^(d/2) and 2^(-d/2) of 1, inside the doubles
    for d up to about 1990.  zr and zi are floats (with math's functions) or
    float64 arrays (with numpy's); only +, - and * are used before the final
    square roots, so both give the same bits.
    """
    values = []
    for chain in chains:
        p, q = _DoubleDouble(zr, 0.0, zi, 0.0), 1
        for f in reversed(chain):
            p, q = map(_DoubleDouble.exact, homogeneous_horner(f, p, q))
            top = abs(p.rh)
            for part in (p.ih, q.rh, q.ih):
                top = maximum(top, abs(part))
            e = -frexp(top)[1]
            pr, pi, qr, qi = (ldexp(x, e) for x in (p.rh, p.ih, q.rh, q.ih))
            e = e + (maximum(pr * pr + pi * pi, qr * qr + qi * qi) < 0.5)
            p, q = [_DoubleDouble(*(ldexp(x, e) for x in (v.rh, v.rl, v.ih, v.il))) for v in (p, q)]
        values.append((p, q))
    (p1, q1), (p2, q2) = values
    c = p1 * q2 - p2 * q1
    return (sqrt(c.rh * c.rh + c.ih * c.ih),
            sqrt(p1.rh * p1.rh + p1.ih * p1.ih + (q1.rh * q1.rh + q1.ih * q1.ih)),
            sqrt(p2.rh * p2.rh + p2.ih * p2.ih + (q2.rh * q2.rh + q2.ih * q2.ih)))


def _chain_residual(chains, zs, on_arrays):
    """Max over the points zs of the projective chordal distance
    2 |p1 q2 - p2 q1| / (|(p1, q1)| |(p2, q2)|) of the two chains: one point
    at a time on floats, or all points at once on numpy arrays."""
    degenerate = ArithmeticError("chain evaluation degenerated to 0/0 or overflowed")
    if on_arrays:
        import numpy as np
        cross, n1, n2 = _chain_chordal(chains, np.array([z.real for z in zs]),
                                       np.array([z.imag for z in zs]),
                                       np.maximum, np.frexp, np.ldexp, np.sqrt)
        if not np.all((n1 > 0) & (n2 > 0) & (n1 * n2 < math.inf)):
            raise degenerate
        return float(np.max(2 * cross / (n1 * n2)))
    parts = [_chain_chordal(chains, z.real, z.imag, max, math.frexp, math.ldexp, math.sqrt)
             for z in zs]
    if not all(n1 > 0 and n2 > 0 and n1 * n2 < math.inf for _, n1, n2 in parts):
        raise degenerate
    return max(2 * cross / (n1 * n2) for cross, n1, n2 in parts)


def _sample(chains):
    """The m = 2 deg + 5 unit-circle points, a turn's 0.2371 from 1, at which
    chains are compared; deg is the larger degree of the two chains."""
    m = 2 * max(math.prod(f.degree for f in chain) or 1 for chain in chains) + 5
    return [complex(math.cos(t), math.sin(t))
            for t in (2 * math.pi * (k / m + 0.2371) for k in range(m))]


def chain_identity_residual(left_chain, right_chain):
    """Identity residual of two composition chains of rational maps.

    Both chains (outermost map first) are evaluated on a unit-circle sample
    by pushing the homogeneous value (p, q) = (z, 1) through each map in
    complex double-double, and compared in the projective form of the
    chordal metric.  Composed maps carry large cancelling coefficients, and
    two independently rounded double compositions would bottom out near weak
    poles far above the certification tolerance.  The arithmetic is IEEE
    double +, - and * with a final / and sqrt, so the residual has the same
    bits on every platform, on floats or on arrays.
    """
    chains = (left_chain, right_chain)
    zs = _sample(chains)
    steps = sum(f.degree for chain in chains for f in chain)
    return _chain_residual(chains, zs, len(zs) * steps > ARRAY_WORK)


def identity_residual(f, g):
    """Max chordal deviation between two maps on a unit-circle sample."""
    return chain_identity_residual([f], [g])


def maps_equal(f, g):
    """Identity test by evaluation at 2*max(deg)+5 unit-circle points."""
    return chain_identity_residual([f], [g]) <= TAU_IDENTITY


def coefficient_residual(f, g):
    """Max coefficientwise deviation of two canonical maps, relative to the
    joint coefficient scale."""
    def deviation(a, b):
        n = max(len(a), len(b))
        return max(abs(x - y) for x, y in zip(a + [0j] * (n - len(a)), b + [0j] * (n - len(b))))

    scale = max(f.num.scale, f.den.scale, g.num.scale, g.den.scale, 1e-300)
    return max(deviation(f.num.coefficients, g.num.coefficients),
               deviation(f.den.coefficients, g.den.coefficients)) / scale


class FixedPointInfo:
    """Location (complex inf at infinity), multiplier and stability class
    of a fixed point."""

    __slots__ = ("location", "multiplier", "kind")

    def __init__(self, location, multiplier, kind):
        location = complex(location)
        self.location = location if abs(location) <= _HUGE else _INF
        self.multiplier = complex(multiplier)
        self.kind = kind

    def __repr__(self):
        return (f"FixedPointInfo({self.location:.6g}, "
                f"multiplier={self.multiplier:.6g}, {self.kind})")


def classify_multiplier(lam):
    m = abs(lam)
    if m < TAU_CLASS:
        return SUPERATTRACTING
    if m > 1.0 + TAU_CLASS:
        return REPELLING
    if m < 1.0 - TAU_CLASS:
        return ATTRACTING
    # neutral: root-of-unity probe distinguishes rational rotation numbers
    for q in range(1, 65):
        if abs(lam ** q - 1.0) <= 1e-8 * q:
            return NEUTRAL_RATIONAL
    return NEUTRAL_IRRATIONAL


def multiplier(f, a):
    """Multiplier of f at the fixed point a (chart w = 1/z at infinity)."""
    if chordal(f(a), a) > 1e-6:
        raise ValueError("point is not fixed within tolerance")
    if not abs(a) <= _HUGE:
        return RationalMap.conjugate_by_inversion(f).derivative_at(0j)
    return f.derivative_at(a)


def fixed_points(f):
    """All degree+1 fixed points with multiplicity, classified.

    Finite fixed points are the roots of p(z) - z q(z); infinity carries the
    remaining multiplicity.  A top coefficient of p - z q is dropped where p
    and z q cancel it to rounding, relative to their own terms at that power,
    so that the count does not depend on the scale of the map, and where it
    puts a root beyond _HUGE, which is the point at infinity.
    """
    if f.degree == 0:
        raise ValueError("constant map")
    if maps_equal(f, RationalMap.identity()):
        raise ValueError("identity map fixes everything")
    p, q = f.num, f.den
    n = max(p.degree + 1, q.degree + 2)
    pc = p.coefficients + [0j] * (n - p.degree - 1)
    zq = [0j] + q.coefficients + [0j] * (n - q.degree - 2)
    e = list(map(operator.sub, pc, zq))
    while n > 1 and (abs(e[n - 1]) <= 1e-13 * (abs(pc[n - 1]) + abs(zq[n - 1]))
                     or _root_beyond_huge(e[:n])):
        n -= 1
    eqn = Polynomial(e[:n])
    infos = []
    if eqn.degree >= 1:
        for root in poly_roots(eqn):
            lam = f.derivative_at(root)
            infos.append(FixedPointInfo(root, lam, classify_multiplier(lam)))
    missing = f.degree + 1 - len(infos)
    if missing:
        lam_inf = RationalMap.conjugate_by_inversion(f).derivative_at(0j)
        kind = classify_multiplier(lam_inf)
        infos += [FixedPointInfo(_INF, lam_inf, kind) for _ in range(missing)]
    return infos
