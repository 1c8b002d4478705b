"""Rational maps on the Riemann sphere with floating complex coefficients.

Polynomials are stored as ascending coefficient arrays; rational maps keep a
coprime numerator/denominator pair with monic denominator.  Exactness is
replaced throughout by explicit tolerances: equality of maps is tested by
evaluation on the unit circle, common factors are removed by an approximate
Euclidean algorithm, and roots carry a residual bound.
"""

import math

import numpy as np

TAU_GCD = 1e-10      # relative tolerance for approximate common factors
TAU_ROOT = 1e-10     # scaled residual bound for polynomial roots
TAU_CLASS = 1e-9     # classification band around |multiplier| = 1
TAU_IDENTITY = 1e-9  # unit-circle sampling tolerance for map identity
DEGREE_CAP = 4096    # default cap on composition/iteration degree growth

SUPERATTRACTING = "superattracting"
ATTRACTING = "attracting"
REPELLING = "repelling"
NEUTRAL_RATIONAL = "neutral-rational"
NEUTRAL_IRRATIONAL = "neutral-irrational-candidate"

_HUGE = 1e150        # moduli beyond this are treated as the point at infinity
_INF = complex(math.inf, 0.0)


class DegreeCapExceeded(ValueError):
    """Composition or iteration would exceed the configured degree cap."""


class RootConvergenceError(RuntimeError):
    """Simultaneous root iteration failed to reach the residual target."""

    def __init__(self, message, best_roots=None, residuals=None):
        super().__init__(message)
        self.best_roots = best_roots
        self.residuals = residuals


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
    return np.linalg.norm(embed_points(values_a) - embed_points(values_b), axis=-1)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

# polyval and poly_divmod repeat numpy.polynomial's arithmetic step for step,
# to the bit, and polyder gives its values (zero parts may differ in sign),
# so that a cold job need not import numpy.polynomial

def polyval(x, c):
    """c[0] + c[1] x + ... + c[n] x^n by Horner, for a scalar or an array x."""
    if isinstance(x, (tuple, list)):
        x = np.asarray(x)
    c0 = c[-1] + x * 0
    for i in range(2, len(c) + 1):
        c0 = c[-i] + c0 * x
    return c0


def polyder(c):
    """Coefficients of the derivative of a polynomial of degree >= 1."""
    return c[1:] * np.arange(1, len(c))


def _strip_exact_zeros(c):
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


class Polynomial:
    """Complex polynomial with ascending coefficients; zero poly is [0]."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        c = np.atleast_1d(np.asarray(coefficients, dtype=complex)).ravel()
        if c.size == 0:
            c = np.zeros(1, dtype=complex)
        self.coefficients = _strip_exact_zeros(c).copy()

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
        return float(np.max(np.abs(self.coefficients)))

    def __call__(self, z):
        return polyval(z, self.coefficients)

    def __add__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial(other)
        n = max(len(self.coefficients), len(other.coefficients))
        c = np.zeros(n, dtype=complex)
        c[: len(self.coefficients)] += self.coefficients
        c[: len(other.coefficients)] += other.coefficients
        return Polynomial(c)

    def __neg__(self):
        return Polynomial(-self.coefficients)

    def __sub__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial([0])
            return Polynomial(np.convolve(self.coefficients, other.coefficients))
        return Polynomial(self.coefficients * complex(other))

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
        return Polynomial(self.coefficients / lead)

    def scale_argument(self, c):
        """The polynomial z -> p(c*z)."""
        powers = np.asarray(c, dtype=complex) ** np.arange(len(self.coefficients))
        return Polynomial(self.coefficients * powers)

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
        return f"Polynomial({np.array2string(self.coefficients, separator=', ')})"


def poly_divmod(a, b):
    """Quotient and remainder of a by b (ascending coefficients), by the long
    division of numpy's polydiv."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    r, d = a.coefficients.copy(), b.coefficients
    if len(r) < len(d):
        return Polynomial(r[:1] * 0), Polynomial(r)
    if len(d) == 1:
        return Polynomial(r / d[-1]), Polynomial(r[:1] * 0)
    scl = d[-1]
    d = d[:-1] / scl
    j = len(r) - 1
    for i in range(len(r) - len(d) - 1, -1, -1):
        r[i:j] -= d * r[j]
        j -= 1
    return Polynomial(r[j + 1:] / scl), Polynomial(r[:j + 1])


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
# Root finding (simultaneous Aberth-Ehrlich iteration)
# ---------------------------------------------------------------------------

def poly_roots(p):
    """All roots of p with multiplicity, by Aberth-Ehrlich iteration.

    Convergence requires the backward-stable residual
    |p(z)| <= TAU_ROOT * scale * max(1, |z|)^deg for every root.
    """
    p = p if isinstance(p, Polynomial) else Polynomial(p)
    if p.degree < 1:
        raise ValueError("need degree >= 1 to extract roots")
    coeffs = p.coefficients.copy()
    # deflate exact roots at the origin
    n_zero = 0
    while n_zero < len(coeffs) - 1 and coeffs[n_zero] == 0:
        n_zero += 1
    coeffs = coeffs[n_zero:]
    n = len(coeffs) - 1
    zero_roots = np.zeros(n_zero, dtype=complex)
    if n == 0:
        return zero_roots
    coeffs = coeffs / np.max(np.abs(coeffs))
    deriv = polyder(coeffs)
    radius = min(1.0 + float(np.max(np.abs(coeffs[:-1]) / abs(coeffs[-1]))), 4.0)

    best = None
    for attempt in range(3):
        angles = 2 * np.pi * (np.arange(n) / n + 0.376 + 0.21 * attempt)
        z = 0.7 * radius * (1.0 + 0.12 * attempt) * np.exp(1j * angles)
        for _ in range(400):
            pv = polyval(z, coeffs)
            lim = TAU_ROOT * np.maximum(1.0, np.abs(z)) ** n
            if np.all(np.abs(pv) <= lim):
                return np.concatenate([zero_roots, z])
            pd = polyval(z, deriv)
            small = np.abs(pd) < 1e-280
            w = pv / np.where(small, 1.0, pd)
            w = np.where(small, 0.05 * (1 + np.abs(z)), w)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            s = np.sum(1.0 / diff, axis=1)
            denom = 1.0 - w * s
            denom = np.where(np.abs(denom) < 1e-280, 1.0, denom)
            z = z - w / denom
        resid = np.abs(polyval(z, coeffs)) / np.maximum(1.0, np.abs(z)) ** n
        if best is None or resid.max() < best[1].max():
            best = (z, resid)
    raise RootConvergenceError(
        f"root iteration stalled (worst scaled residual {best[1].max():.3e})",
        best_roots=np.concatenate([zero_roots, best[0]]),
        residuals=best[1],
    )


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
        self.num = Polynomial(num.coefficients / lead)
        self.den = Polynomial(den.coefficients / lead)

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
        lead = self.num.coefficients[-1] / self.den.coefficients[-1]
        out[at_inf] = np.inf if k > 0 else (0.0 if k < 0 else lead)
        out[~(np.abs(out) <= _HUGE)] = np.inf
        return out

    # -- algebra ------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, RationalMap):
            return RationalMap(self.num * other.num, self.den * other.den)
        return RationalMap(self.num * other, self.den, reduce=False)

    __rmul__ = __mul__

    def __pow__(self, n):
        """Pointwise power f(z)^n (not iteration); powers of a coprime pair
        stay coprime, so no gcd pass is needed."""
        return RationalMap(self.num ** n, self.den ** n, reduce=False)

    def derivative(self):
        w = self.num.derivative() * self.den - self.num * self.den.derivative()
        return RationalMap(w, self.den * self.den, reduce=False)

    def derivative_at(self, z):
        """f'(z) at finite z, by the quotient rule (no map construction)."""
        z = complex(z)
        p, q = self.num, self.den
        qz = q(z)
        return (p.derivative()(z) * qz - p(z) * q.derivative()(z)) / (qz * qz)

    def conjugate_by_inversion(self):
        """The map w -> 1/f(1/w) (conjugation moving infinity to 0)."""
        dp, dq = self.num.degree, self.den.degree
        rnum = self.den.coefficients[::-1]
        rden = self.num.coefficients[::-1]
        if dp >= dq:
            rnum = np.concatenate([np.zeros(dp - dq, dtype=complex), rnum])
        else:
            rden = np.concatenate([np.zeros(dq - dp, dtype=complex), rden])
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


def push_forward(f, w, depth, dw=None):
    """Send each w[i] through f.eval_array depth[i] times, deepest first so
    that each step runs over the prefix still climbing; with dw, also carry
    dw[i] to (f^depth[i])'(w[i]) dw[i] by the chain rule.  This is the climb
    of the Poincare functions Phi(mu z) = f(Phi(z)), the linearizer and wp,
    under eval_array's rule for w and every step: not finite or beyond _HUGE
    is complex inf.  From a pole on the derivative is inf, never nan."""
    order = np.argsort(-depth, kind="stable")
    depth, w = depth[order], np.where(np.abs(w) <= _HUGE, w, np.inf)[order]
    if dw is not None:
        dw, fprime = dw[order], f.derivative()
    for s in range(1, int(depth.max(initial=0)) + 1):
        m = int(np.searchsorted(-depth, -s, side="right"))
        fw = f.eval_array(w[:m])
        if dw is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                d = fprime.eval_array(w[:m]) * dw[:m]
            dw[:m] = np.where(np.isfinite(d) & np.isfinite(fw), d, np.inf)
        w[:m] = fw
    back = np.argsort(order)
    return w[back] if dw is None else (w[back], dw[back])


def homogeneous_horner(f, p, q):
    """(q^d num(p/q), q^d den(p/q)) with d = deg f: f applied to the
    homogeneous value p/q, by Horner in p with running powers of q.

    Only ring operations are used, so p and q may be Polynomials, truncated
    power series, scalars or arrays of any complex dtype; the output lives
    where they do.
    """
    d = f.degree
    num = list(f.num.coefficients) + [0j] * (d - f.num.degree)
    den = list(f.den.coefficients) + [0j] * (d - f.den.degree)
    qpow = q ** 0   # broadcasts a constant map over the operands' shape
    pn, qn = num[d] * qpow, den[d] * qpow
    for k in range(d - 1, -1, -1):
        qpow = qpow * q
        pn = pn * p + num[k] * qpow
        qn = qn * p + den[k] * qpow
    return pn, qn


def compose(f, g, degree_cap=DEGREE_CAP):
    """The composition f(g(z)) as a rational map."""
    if f.degree * g.degree > degree_cap:
        raise DegreeCapExceeded(
            f"composition degree {f.degree * g.degree} exceeds cap {degree_cap}")
    # composition of coprime maps is coprime; skip the gcd pass
    return RationalMap(*homogeneous_horner(f, g.num, g.den), reduce=False)


def iterate(f, n, degree_cap=DEGREE_CAP):
    """The n-fold composition f o f o ... o f, n >= 1."""
    if n < 1:
        raise ValueError("iteration count must be >= 1")
    if f.degree ** n > degree_cap:
        raise DegreeCapExceeded(f"degree {f.degree}^{n} exceeds cap {degree_cap}")
    out = f
    for _ in range(n - 1):
        out = compose(out, f, degree_cap=degree_cap)
    return out


def chain_identity_residual(left_chain, right_chain):
    """Identity residual of two composition chains of rational maps.

    Both chains (outermost map first) are evaluated on a unit-circle sample
    by pushing the homogeneous value (p, q) = (z, 1) through each map in
    extended precision, and compared in the projective form of the chordal
    metric.  Composed maps carry large cancelling coefficients, and two
    independently rounded double compositions would bottom out near weak
    poles far above the certification tolerance.
    """
    chains = (left_chain, right_chain)
    deg = max(int(np.prod([f.degree for f in chain]) or 1) for chain in chains)
    m = 2 * deg + 5
    z = np.exp(2j * np.pi * (np.arange(m) / m + 0.2371)).astype(np.clongdouble)
    (p1, q1), (p2, q2) = [_chain_values(chain, z) for chain in chains]
    n1 = np.sqrt(np.abs(p1) ** 2 + np.abs(q1) ** 2)
    n2 = np.sqrt(np.abs(p2) ** 2 + np.abs(q2) ** 2)
    if not np.all((n1 > 0) & (n2 > 0) & np.isfinite(n1) & np.isfinite(n2)):
        raise ArithmeticError("chain evaluation degenerated to 0/0 or overflowed")
    return float(np.max(2 * np.abs(p1 * q2 - p2 * q1) / (n1 * n2)))


def _chain_values(chain, z):
    """Homogeneous value (p, q) of a chain at z, innermost map first."""
    p, q = z, np.ones_like(z)
    for f in reversed(chain):
        p, q = homogeneous_horner(f, p, q)
    return p, q


def identity_residual(f, g):
    """Max chordal deviation between two maps on a unit-circle sample."""
    return chain_identity_residual([f], [g])


def maps_equal(f, g):
    """Identity test by evaluation at 2*max(deg)+5 unit-circle points."""
    return chain_identity_residual([f], [g]) <= TAU_IDENTITY


def coefficient_residual(f, g):
    """Max coefficientwise deviation of two canonical maps, relative to the
    joint coefficient scale."""
    def padded(p, n):
        c = np.zeros(n, dtype=complex)
        c[: len(p.coefficients)] = p.coefficients
        return c

    n_num = max(f.num.degree, g.num.degree) + 1
    n_den = max(f.den.degree, g.den.degree) + 1
    scale = max(f.num.scale, f.den.scale, g.num.scale, g.den.scale, 1e-300)
    d_num = np.max(np.abs(padded(f.num, n_num) - padded(g.num, n_num)))
    d_den = np.max(np.abs(padded(f.den, n_den) - padded(g.den, n_den)))
    return float(max(d_num, d_den) / scale)


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

    Finite fixed points are the roots of p(z) - z q(z); infinity is fixed
    exactly when deg p > deg q and carries the remaining multiplicity.
    """
    if f.degree == 0:
        raise ValueError("constant map")
    if maps_equal(f, RationalMap.identity()):
        raise ValueError("identity map fixes everything")
    p, q = f.num, f.den
    eqn = (p - Polynomial([0, 1]) * q).trimmed(1e-13)
    infos = []
    if eqn.degree >= 1:
        for root in poly_roots(eqn):
            lam = f.derivative_at(root)
            infos.append(FixedPointInfo(root, lam, classify_multiplier(lam)))
    total = f.degree + 1
    if p.degree > q.degree:
        lam_inf = RationalMap.conjugate_by_inversion(f).derivative_at(0j)
        kind = classify_multiplier(lam_inf)
        for _ in range(total - len(infos)):
            infos.append(FixedPointInfo(_INF, lam_inf, kind))
    return infos

