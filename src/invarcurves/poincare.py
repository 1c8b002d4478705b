"""Linearizers at repelling fixed points.

For a fixed point a with multiplier lambda, |lambda| > 1, the function F
with F(lambda z) = f(F(z)), F(0) = a, F'(0) = 1 exists and extends to all
of C through its own functional equation.  The coefficients satisfy a
triangular linear system: for f = P/Q, once c_1..c_(k-1) are known, the
order-k coefficients of Q(F(z)) F(lambda z) and P(F(z)) are linear in c_k,
with the never-vanishing pivot Q(a) (lambda^k - lambda).
"""

from bisect import bisect_left, bisect_right

import numpy as np

from . import geometry      # a stub until a trace is made: untraced jobs never run it
from .rational import (_HUGE, TAU_CLASS, REPELLING, chordal, chordal_array,
                       embed_points, fixed_points, multiplier, polyval, pull_back,
                       push_forward)

TAIL_TARGET = 1e-13      # per-term series tail at the working radius
CANCEL_CAP = 10.0        # largest intermediate Horner term, in units of scale
TAU_CROSS = 1e-6         # chordal threshold for self-crossing detection
EXCURSION = 1e-3         # chordal excursion that makes a near pair a crossing
MAX_PULLBACK = 8000      # pull-back steps by 1/lambda before evaluate gives up


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

    def __repr__(self):
        return (f"PoincareSeries(a={self.fixed_point:.6g}, "
                f"lambda={self.multiplier:.6g}, order={len(self.coefficients) - 1}, "
                f"radius~{self.radius_estimate:.3g})")


def solve_coefficients(f, a, order=60):
    """Linearizer coefficients at the repelling fixed point a (finite).

    For a fixed point at infinity conjugate the map by 1/z first.
    """
    a = complex(a)
    if not abs(a) <= _HUGE:
        raise ValueError("conjugate by 1/z first: the solver needs a finite point")
    if chordal(f(a), a) > 1e-8:
        raise ValueError("not a fixed point within tolerance")
    # numpy's complex power in lam ** k below: past k = 100, Python's ** rounds otherwise
    lam = np.complex128(multiplier(f, a))
    if abs(lam) <= 1.0 + TAU_CLASS:
        raise ValueError(f"fixed point is not repelling (|lambda| = {abs(lam):.6g})")
    # |lambda|^k grows with k, so the pivots below stay finite if the last does
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite([lam ** order, abs(lam) ** order]).all():
            raise ArithmeticError(f"lambda^{order} overflows (|lambda| = {abs(lam):.6g}): "
                                  "lower the order")

    # Online solve of Q(F(z)) F(lambda z) = P(F(z)), f = P/Q: row j of pw is
    # F^j (row 1 is c), qf is Q(F) and g is F(lambda z), known through order
    # k - 1.  Order k of both sides is first summed with c_k = 0; c_k adds
    # j a^(j-1) c_k to F^j, so c_k Q(a) (lambda^k - lambda) to left - right.
    p, q = f.num.coefficients, f.den.coefficients
    d = max(len(p), len(q))
    pw = np.zeros((d, order + 1), dtype=complex)
    pw[:, 0] = a ** np.arange(d)
    pw[1:, 1] = np.arange(1, d) * pw[:-1, 0]
    c, dpow = pw[1], pw[2:, 1]     # dpow: j a^(j-1) for j >= 2
    qf = np.zeros(order + 1, dtype=complex)
    qf[:2] = q @ pw[: len(q), :2]
    g = np.zeros(order + 1, dtype=complex)
    g[:2] = a, lam
    for k in range(2, order + 1):
        lam_k = lam ** k
        pivot = lam_k - lam
        if abs(pivot) <= 1e-12 * max(1.0, abs(lam) ** k):
            raise ArithmeticError("degenerate pivot lambda^k - lambda")
        for j in range(2, d):
            pw[j, k] = pw[j - 1, : k + 1] @ c[k::-1]
        rhs = p @ pw[: len(p), k] - a * (q @ pw[: len(q), k]) - qf[1:k] @ g[k - 1 : 0 : -1]
        c[k] = rhs / (qf[0] * pivot)
        pw[2:, k] += dpow * c[k]
        qf[k] = q @ pw[: len(q), k]
        g[k] = lam_k * c[k]

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
    and climb back with the map itself (rational.pull_back and push_forward,
    the climb that wp shares).  Total (poles land at infinity).

    An array gives a complex array, a scalar a complex; either is complex
    inf at infinity.  F has no value at infinity of its domain, so a point
    that is not finite raises ValueError.  A point that needs more than
    MAX_PULLBACK pull-back steps raises ArithmeticError instead of evaluating
    the series outside eval_radius.
    """
    if np.ndim(z) == 0:
        return complex(evaluate(F, np.reshape(z, 1))[0])
    zz, depth = pull_back(_finite(z), F.multiplier, F.eval_radius, MAX_PULLBACK)
    with np.errstate(over="ignore", invalid="ignore"):
        w = polyval(zz, F.coefficients)
    return push_forward(F.map, w, depth).reshape(np.shape(z))


def _finite(z):
    """z as a flat complex array; F has no value at a point that is not finite."""
    zz = np.asarray(z, dtype=complex).ravel()
    if not np.all(np.isfinite(zz)):
        raise ValueError("F has no value at a point that is not finite")
    return zz


def functional_equation_residual(F, zs):
    """Max chordal |f(F(z)) - F(lambda z)| over the given points; a point
    whose lambda z overflows raises ValueError."""
    zs = _finite(zs)
    with np.errstate(over="ignore", invalid="ignore"):
        lam_zs = F.multiplier * zs
    if not np.all(np.isfinite(lam_zs)):
        raise ValueError("lambda z overflows: F(lambda z) has no value there")
    values = evaluate(F, np.concatenate([zs, lam_zs]))
    lhs = F.map.eval_array(values[: len(zs)])
    return float(np.max(chordal_array(lhs, values[len(zs):]), initial=0.0))


def trace_real_axis(F, t_max, n=1001):
    """Trace F over [-t_max, t_max]; requires a real multiplier.

    A negative real multiplier still linearizes the second iterate with
    lambda^2 > 1 (the series is the same), so the trace is tagged with the
    iterate that certifies invariance of the image.
    """
    # the span 2 t_max of the parameters must be a finite float
    t_max, t_cap = float(t_max), np.finfo(float).max / 2
    if not 0.0 < t_max <= t_cap:
        raise ValueError(f"trace range must lie in (0, {t_cap:.6g}], got {t_max!r}")
    lam = F.multiplier
    if not is_real_multiplier(lam):
        raise ValueError("multiplier is not real: F(R) need not be a curve")
    ts = np.linspace(-t_max, t_max, n)
    values = evaluate(F, ts)
    tag = "poincare-real-axis"
    if lam.real < 0:
        tag += " (invariance certified for the second iterate)"
    return geometry.CurveTrace(ts, values, closed=False, source=tag)


def is_real_multiplier(lam):
    """Is lambda real to 1e-9 relative: the test for tracing F(R)."""
    return abs(lam.imag) <= 1e-9 * max(1.0, abs(lam))


# ---------------------------------------------------------------------------
# Diagnostics from the non-injectivity argument
# ---------------------------------------------------------------------------

class Crossing:
    """Two well-separated parameters whose curve points (nearly) coincide."""

    __slots__ = ("s", "t", "point", "distance")

    def __init__(self, s, t, point, distance):
        self.s, self.t, self.point, self.distance = s, t, point, distance

    def __eq__(self, other):
        return type(other) is Crossing and (self.s, self.t, self.point, self.distance) \
            == (other.s, other.t, other.point, other.distance)


def injectivity_check(trace, tol_cross=TAU_CROSS, min_separation_steps=10):
    """Self-crossing scan over segment pairs of the trace.

    A pair is reported when two parameter-separated segments pass within
    tol_cross (chordal) of each other *and* the curve leaves the meeting
    point in between: some vertex of the run from one segment to the other
    lies EXCURSION away (a trace converging into an endpoint clusters
    without crossing).  Empty list: no crossing at this resolution.  A
    closed trace includes its closing segment and measures parameter
    separation around the seam.  The result is that of comparing every pair
    of segments, from one table of segment and block bounding boxes
    (geometry.SegmentBoxes): candidates come from block pairs whose boxes,
    padded by tol_cross, overlap and whose runs can hold an excursion, and
    the excursion is decided by the run's middle vertex or by a descent of
    the table through the blocks that meet the run, a block inside it
    deciding by its box where it can.  On a curve that is near-linear time.
    It is not where many segments pass near one another with excursions in
    between, as on a curve retraced many times: there the candidates
    themselves are quadratic in number.

    Only whether the list is empty is stable: where the curve retraces
    itself, which near-tied pairs survive the suppression depends on
    last-digit rounding.
    """
    if len(trace) < 2:
        raise ValueError("need at least two samples")
    a, b = geometry._segments(trace.embedded(), trace.closed)
    m = min_separation_steps
    params = trace.params
    # the median step, as np.median computes it; np.median itself would
    # import numpy.ma, which costs a cold job more than this whole check
    gaps = np.sort(np.diff(params))
    half = len(gaps) // 2
    step = float(gaps[half] if len(gaps) % 2 else (gaps[half - 1] + gaps[half]) / 2)
    min_gap = m * step
    # segment k runs from ends[k] to ends[k + 1]
    ends, period = params, None
    if trace.closed:
        period = params[-1] - params[0] + step
        ends = np.append(params, params[0] + period)
    boxes = geometry.SegmentBoxes(a, b)
    # a few ulps of the unit sphere on top of tol_cross keep every pair whose
    # rounded distance is <= tol_cross among the candidates; the meeting
    # point rounds within a few ulps of its segment, so a run that fits in a
    # box of diagonal EXCURSION - 64 eps holds no vertex EXCURSION from it
    eps = np.finfo(float).eps
    pad = tol_cross + 8 * eps
    found = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0))]
    for i, j in boxes.pairs(pad, max(m, 1), EXCURSION - 64 * eps):
        if not len(i):
            continue
        gap = ends[j] - ends[i + 1]
        if period is not None:
            gap = np.minimum(gap, period - (ends[j + 1] - ends[i]))
        keep = gap >= min_gap
        i, j = i[keep], j[keep]
        d, p1, _ = geometry.segment_pair_distance(a[i], b[i], a[j], b[j])
        near = d <= tol_cross
        i, j, d, p1 = i[near], j[near], d[near], p1[near]
        far = boxes.any_far(i, j + 1, p1.T, EXCURSION)
        found.append((i[far], j[far], d[far]))
    i, j, d = (np.concatenate(x) for x in zip(*found))
    order = np.lexsort((j, i, d))
    i, j, d = i[order], j[order], d[order]
    taken = np.array(_greedy_suppression(i, j, m), dtype=int)
    taken = taken[np.lexsort((j[taken], i[taken]))]
    infinite = trace.infinite        # a property: O(n) per access
    crossings = []
    for i, j, d in zip(i[taken].tolist(), j[taken].tolist(), d[taken].tolist()):
        mid = 0.5 * (trace.values[i] + trace.values[i + 1]) \
            if not (infinite[i] or infinite[i + 1]) else trace.values[i]
        crossings.append(Crossing(s=float(params[i]), t=float(params[j]),
                                  point=mid, distance=d))
    return crossings


def _greedy_suppression(i, j, m):
    """Indices of the pairs (i, j), in the given order, that the greedy
    keeps: a pair is dropped when an earlier kept pair lies within m steps
    in both indices.

    The loop runs over the kept pairs only.  Each drops its later
    conflicts, found by bisection among the pairs sorted on (i // m, j) in
    three runs, one per neighbouring bucket of i.
    """
    w = max(m, 1)
    width = int(j.max(initial=0)) + 2 * w
    key = i // w * width + j
    by_key = np.argsort(key, kind="stable")
    keys, by_key = key[by_key].tolist(), by_key.tolist()
    il, jl = i.tolist(), j.tolist()
    open_ = bytearray(b"\x01") * len(il)
    kept = []
    v = open_.find(1)
    while v >= 0:
        kept.append(v)
        iv, kv = il[v], il[v] // w * width + jl[v]
        for base in (kv - width, kv, kv + width):
            for u in by_key[bisect_right(keys, base - m): bisect_left(keys, base + m)]:
                if u > v and abs(il[u] - iv) < m:
                    open_[u] = 0
        v = open_.find(1, v + 1)
    return kept


def multiplier_real_check(f, trace):
    """Are the multipliers at the repelling fixed points within 0.05
    (chordal) of the trace polyline real, to 1e-8 relative, as invariance
    of an analytic curve through them demands?  True when none is near."""
    repelling = [info for info in fixed_points(f) if info.kind == REPELLING]
    values = np.array([i.location for i in repelling], dtype=complex)
    dists = geometry.points_to_polyline_distance(embed_points(values), trace)
    return all(abs(info.multiplier.imag) <= 1e-8 * max(1.0, abs(info.multiplier))
               for info, dist in zip(repelling, dists.tolist()) if dist <= 0.05)
