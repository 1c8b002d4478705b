"""Linearizers at repelling fixed points.

For a fixed point a with multiplier lambda, |lambda| > 1, the function F
with F(lambda z) = f(F(z)), F(0) = a, F'(0) = 1 exists and extends to all
of C through its own functional equation.  The coefficients satisfy a
triangular linear system: once c_1..c_(k-1) are known, matching the order-k
coefficient of f(F(z)) against lambda^k c_k determines c_k with the never-
vanishing pivot lambda^k - lambda.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .curves import CurveTrace, points_to_polyline_distance, segment_pair_distance
from .rational import (TAU_CLASS, REPELLING, SpherePoint, chordal, embed_points,
                       fixed_points, multiplier)
from .series import TruncatedPowerSeries, compose_rational

TAIL_TARGET = 1e-13      # per-term series tail at the working radius
CANCEL_CAP = 10.0        # largest intermediate Horner term, in units of scale
TAU_CROSS = 1e-6         # chordal threshold for self-crossing detection


class PoincareSeries:
    """Solved linearizer: coefficients indexed by power (c[0] = a, c[1] = 1)."""

    __slots__ = ("map", "fixed_point", "multiplier", "coefficients",
                 "radius_estimate", "eval_radius")

    def __init__(self, map, fixed_point, multiplier, coefficients,
                 radius_estimate, eval_radius):
        self.map = map
        self.fixed_point = complex(fixed_point)
        self.multiplier = complex(multiplier)
        self.coefficients = np.asarray(coefficients, dtype=complex)
        self.radius_estimate = float(radius_estimate)
        self.eval_radius = float(eval_radius)

    @property
    def order(self):
        return len(self.coefficients) - 1

    def __repr__(self):
        return (f"PoincareSeries(a={self.fixed_point:.6g}, "
                f"lambda={self.multiplier:.6g}, order={self.order}, "
                f"radius~{self.radius_estimate:.3g})")


def solve_coefficients(f, a, order=60):
    """Linearizer coefficients at the repelling fixed point a (finite).

    For a fixed point at infinity conjugate the map by 1/z first.
    """
    pt = SpherePoint.of(a)
    if pt.is_infinite:
        raise ValueError("conjugate by 1/z first: the solver needs a finite point")
    a = pt.value
    if chordal(f(a), a) > 1e-8:
        raise ValueError("not a fixed point within tolerance")
    lam = multiplier(f, a)
    if abs(lam) <= 1.0 + TAU_CLASS:
        raise ValueError(f"fixed point is not repelling (|lambda| = {abs(lam):.6g})")

    c = np.zeros(order + 1, dtype=complex)
    c[0] = a
    c[1] = 1.0
    for k in range(2, order + 1):
        g = compose_rational(f, TruncatedPowerSeries(c[: k + 1]))
        pivot = lam ** k - lam
        if abs(pivot) <= 1e-12 * max(1.0, abs(lam) ** k):
            raise ArithmeticError("degenerate pivot lambda^k - lambda")
        c[k] = g.coefficients[k] / pivot

    rho, r_eval = _radii(c, abs(a))
    return PoincareSeries(f, a, lam, c, rho, r_eval)


def _radii(c, a_scale):
    """Root-test radius estimate and a safe working radius.

    The working radius is capped three ways: half the estimated convergence
    radius, a per-term tail bound, and a cancellation bound keeping every
    Horner term within CANCEL_CAP * scale (entire linearizers otherwise lose
    digits to cancellation long before the root test bites).
    """
    n = len(c) - 1
    ks = np.arange(2, n + 1)
    mags = np.abs(c[2:])
    nz = mags > 0
    if not np.any(nz):
        return 1e6, 1.0
    tail_ks = ks[nz & (ks >= max(2, (2 * n) // 3))]
    tail_mags = np.abs(c[tail_ks])
    rho = 1e6 if len(tail_ks) == 0 else float(1.0 / np.max(tail_mags ** (1.0 / tail_ks)))
    rho = min(rho, 1e6)
    scale = max(1.0, a_scale)
    # subnormal magnitudes overflow the quotients to inf, a correct bound
    with np.errstate(over="ignore"):
        r_tail = float(np.min((TAIL_TARGET / tail_mags) ** (1.0 / tail_ks))) \
            if len(tail_ks) else rho
        r_cancel = float(np.min((CANCEL_CAP * scale / mags[nz]) ** (1.0 / ks[nz])))
    return rho, max(min(rho / 2.0, r_tail, r_cancel), 1e-12)


def evaluate(F, z):
    """F(z) anywhere in C: pull z into the working disc by powers of lambda
    and climb back with the map itself.  Total (poles land at infinity)."""
    z = complex(z)
    if z == 0:
        return SpherePoint(F.fixed_point)
    k = 0
    zz = z
    while abs(zz) > F.eval_radius and k < 8000:
        zz /= F.multiplier
        k += 1
    w = SpherePoint(complex(npoly.polyval(zz, F.coefficients)))
    for _ in range(k):
        w = F.map(w)
    return w


def functional_equation_residual(F, zs):
    """Max chordal |f(F(z)) - F(lambda z)| over the given points."""
    worst = 0.0
    for z in np.asarray(zs, dtype=complex).ravel():
        lhs = F.map(evaluate(F, z))
        rhs = evaluate(F, F.multiplier * z)
        worst = max(worst, chordal(lhs, rhs))
    return worst


def trace_real_axis(F, t_max, n=1001):
    """Trace F over [-t_max, t_max]; requires a real multiplier.

    A negative real multiplier still linearizes the second iterate with
    lambda^2 > 1 (the series is the same), so the trace is tagged with the
    iterate that certifies invariance of the image.
    """
    lam = F.multiplier
    if abs(lam.imag) > 1e-9 * max(1.0, abs(lam)):
        raise ValueError("multiplier is not real: F(R) need not be a curve")
    ts = np.linspace(-float(t_max), float(t_max), n)
    values = np.empty(n, dtype=complex)
    infinite = np.zeros(n, dtype=bool)
    for i, t in enumerate(ts):
        w = evaluate(F, t)
        if w.is_infinite:
            infinite[i] = True
            values[i] = complex(np.inf, 0.0)
        else:
            values[i] = w.value
    tag = "poincare-real-axis"
    if lam.real < 0:
        tag += " (invariance certified for the second iterate)"
    return CurveTrace(ts, values, infinite, closed=False, source=tag)


# ---------------------------------------------------------------------------
# Diagnostics from the non-injectivity argument
# ---------------------------------------------------------------------------

@dataclass
class Crossing:
    """Two well-separated parameters whose curve points (nearly) coincide."""
    s: float
    t: float
    point: complex
    distance: float


def injectivity_check(trace, tol_cross=TAU_CROSS, min_separation_steps=10,
                      min_excursion=1e-3):
    """Self-crossing scan over segment pairs of the trace.

    A pair is reported when two parameter-separated segments pass within
    tol_cross (chordal) of each other *and* the curve leaves the meeting
    point in between (excursion filter: a trace converging into an endpoint
    clusters without crossing).  Empty list: no crossing at this resolution.
    """
    if len(trace) < 2:
        raise ValueError("need at least two samples")
    emb = trace.embedded()
    a, b = emb[:-1], emb[1:]
    n_seg = len(a)
    params = trace.params
    step = float(np.median(np.diff(params)))
    min_gap = min_separation_steps * step
    period = params[-1] - params[0] + step if trace.closed else None
    candidates = []
    for i in range(n_seg - min_separation_steps):
        j0 = i + min_separation_steps
        # segment j starts at params[j]; require parameter separation
        # (measured around the seam for a closed trace)
        js = np.arange(j0, n_seg)
        gap = params[js] - params[i + 1]
        if period is not None:
            gap = np.minimum(gap, period - (params[js + 1] - params[i]))
        js = js[gap >= min_gap]
        if len(js) == 0:
            continue
        d, p1, _ = segment_pair_distance(a[i][None, :], b[i][None, :], a[js], b[js])
        hit = np.nonzero(d <= tol_cross)[0]
        for h in hit:
            j = int(js[h])
            seg = emb[i: j + 2]
            excursion = float(np.max(np.linalg.norm(seg - p1[h], axis=1)))
            if excursion >= min_excursion:
                candidates.append((i, j, p1[h], float(d[h])))
    crossings = []
    taken = []
    for i, j, p, d in sorted(candidates, key=lambda c: c[3]):
        if any(abs(i - i2) < min_separation_steps and abs(j - j2) < min_separation_steps
               for i2, j2 in taken):
            continue
        taken.append((i, j))
        mid = 0.5 * (trace.values[i] + trace.values[i + 1]) \
            if not (trace.infinite[i] or trace.infinite[i + 1]) else trace.values[i]
        crossings.append(Crossing(s=float(params[i]), t=float(params[j]),
                                  point=mid, distance=d))
    crossings.sort(key=lambda c: (c.s, c.t))
    return crossings


@dataclass
class MultiplierRealness:
    location: SpherePoint
    multiplier: complex
    distance_to_trace: float
    is_real: bool


@dataclass
class MultiplierRealnessReport:
    """Repelling fixed points near a trace and whether their multipliers
    are real, as invariance of an analytic curve through them demands."""
    checked: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    @property
    def violations(self):
        return [e for e in self.checked if not e.is_real]

    @property
    def all_real(self):
        return not self.violations


def multiplier_real_check(f, trace, max_distance=0.05, tol_imag=1e-8):
    """Check realness of multipliers at repelling fixed points within
    max_distance (chordal) of the trace polyline."""
    report = MultiplierRealnessReport()
    for info in fixed_points(f):
        emb = embed_points(
            np.array([0j if info.location.is_infinite else info.location.value]),
            np.array([info.location.is_infinite]))
        dist = float(points_to_polyline_distance(emb, trace)[0])
        if info.kind != REPELLING:
            continue
        lam = info.multiplier
        entry = MultiplierRealness(info.location, lam, dist,
                                   abs(lam.imag) <= tol_imag * max(1.0, abs(lam)))
        if dist <= max_distance:
            report.checked.append(entry)
        else:
            report.skipped.append(entry)
    return report
