import functools
import math

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from numpy.polynomial import polynomial as npoly

from invarcurves.elliptic import laurent_coefficients
from invarcurves.rational import _HUGE, Polynomial, RationalMap, poly_roots

INF = complex(math.inf, 0.0)

# property tests draw the same examples on every run; no deadline, since
# timings on a shared machine are not part of any property
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


def on_sphere(z):
    """complex(z), or complex(inf, 0) where z is not finite or exceeds _HUGE
    in modulus: the oracles' own normalisation of the point at infinity, kept
    apart from eval_array's."""
    v = complex(z)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)) or abs(v) > _HUGE:
        return INF
    return v


def is_infinite(z):
    return on_sphere(z) == INF


def poly_from_roots(roots):
    """Monic polynomial with the given root multiset."""
    return Polynomial(npoly.polyfromroots(np.asarray(roots, dtype=complex)))


def poly_allclose(p, q, rtol=1e-10):
    """Coefficientwise agreement relative to the larger coefficient scale."""
    q = q if isinstance(q, Polynomial) else Polynomial(q)
    return bool((p - q).scale <= rtol * max(p.scale, q.scale, 1e-300))


def critical_points(f):
    """The 2 deg - 2 critical points of f with multiplicity, complex inf for
    infinity: the roots of the numerator of f', the rest at infinity."""
    if f.degree < 2:
        raise ValueError("critical points need degree >= 2")
    # the numerator p'q - pq' of f' = (p/q)'
    p, q = f.num, f.den
    w = (p.derivative() * q - p * q.derivative()).trimmed(1e-13)
    if w.is_zero:
        raise ValueError("degenerate map: identically critical")
    pts = [complex(r) for r in poly_roots(w)] if w.degree >= 1 else []
    return pts + [INF] * (2 * f.degree - 2 - len(pts))


def eisenstein_sum_brute(lattice, weight, n_max):
    """Direct truncated lattice sum of w^(-weight) over max(|m|,|n|) <= n_max.

    Shell-by-shell in integer order with compensated accumulation; this is
    the slow reference the row-resummed invariants are checked against.
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


def lattes_from_lattice(lattice):
    from invarcurves.elliptic import invariants_from_lattice
    from invarcurves.lattes import lattes_from_invariants

    return lattes_from_invariants(invariants_from_lattice(lattice))


def trace_from_csv(text, closed=False, source=""):
    """The CurveTrace that CurveTrace.to_csv wrote: rows with is_infinite = 1
    come back as complex inf."""
    from invarcurves.geometry import CurveTrace

    params, values = [], []
    for ln in text.strip().splitlines()[1:]:
        t, re, im, isinf = ln.split(",")
        params.append(float(t))
        values.append(INF if int(isinf) else complex(float(re), float(im)))
    return CurveTrace(params, values, closed=closed, source=source)


def rowwise_csv(trace):
    """Oracle for CurveTrace.to_csv: one row at a time from numpy scalars."""
    lines = ["parameter,re,im,is_infinite"]
    for t, v, isinf in zip(trace.params, trace.values, trace.infinite):
        if isinf:
            lines.append(f"{float(t)!r},0.0,0.0,1")
        else:
            lines.append(f"{float(t)!r},{float(v.real)!r},{float(v.imag)!r},0")
    return "\n".join(lines) + "\n"


def rowwise_svg(trace, fit=None, fixed_points=(), size=640, pad=0.08):
    """Oracle for curves.trace_svg: the path one sample at a time, its pen
    lifted by each sample at infinity."""
    pts = trace.finite_values
    if len(pts) == 0:
        raise ValueError("nothing finite to draw")
    x0, x1 = float(pts.real.min()), float(pts.real.max())
    y0, y1 = float(pts.imag.min()), float(pts.imag.max())
    span = max(x1 - x0, y1 - y0, 1e-9)
    x0 -= pad * span
    y0 -= pad * span
    span *= 1 + 2 * pad

    def sx(x):
        return (x - x0) / span * size

    def sy(y):
        return size - (y - y0) / span * size

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    path = []
    pen = "M"
    for v, isinf in zip(trace.values, trace.infinite):
        if isinf:
            pen = "M"
            continue
        path.append(f"{pen}{sx(v.real):.3f},{sy(v.imag):.3f}")
        pen = "L"
    if trace.closed and path:
        path.append("Z")
    parts.append(f'<path d="{" ".join(path)}" fill="none" stroke="#1f77b4" '
                 'stroke-width="1.5"/>')
    if fit is not None and fit.label == "circle-line":
        a, b, c, d = [z.real for z in fit.coefficients]
        if abs(a) > 1e-12:
            cx, cy = -b / (2 * a), -c / (2 * a)
            r2 = cx * cx + cy * cy - d / a
            if r2 > 0:
                r = math.sqrt(r2)
                parts.append(f'<circle cx="{sx(cx):.3f}" cy="{sy(cy):.3f}" '
                             f'r="{r / span * size:.3f}" fill="none" '
                             'stroke="#d62728" stroke-dasharray="6,4"/>')
    for p in fixed_points:
        if not abs(p) <= _HUGE:
            continue
        parts.append(f'<circle cx="{sx(p.real):.3f}" '
                     f'cy="{sy(p.imag):.3f}" r="4" fill="#2ca02c"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def random_polynomial(rng, degree):
    c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    while abs(c[-1]) < 0.3:
        c[-1] = rng.normal() + 1j * rng.normal()
    return Polynomial(c)


def random_rational_map(rng, degree):
    """Random map of exact degree; denominator degree drawn in [0, degree]."""
    num_deg = degree
    den_deg = int(rng.integers(0, degree + 1))
    if rng.uniform() < 0.3:
        num_deg, den_deg = den_deg, num_deg
        num_deg = max(num_deg, 0)
    if max(num_deg, den_deg) != degree:
        num_deg = degree
    f = RationalMap(random_polynomial(rng, num_deg), random_polynomial(rng, den_deg))
    if f.degree != degree:   # an accidental common factor; extremely unlikely
        return random_rational_map(rng, degree)
    return f


def random_sphere_points(rng, n):
    """Complex samples roughly uniform on the sphere (finite ones only)."""
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    w = np.clip(v[:, 2], -0.999999, 0.999999)
    return (v[:, 0] + 1j * v[:, 1]) / (1.0 - w)


# values on both sides of the one rule for infinity, not |z| <= _HUGE: nan
# and inf parts, 1e200 and |z| = sqrt(2) _HUGE are infinite, +-_HUGE and
# +-i _HUGE finite
EDGE_VALUES = [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, math.nan),
               INF, complex(-math.inf, 1.0), complex(0.0, math.inf),
               complex(2.0, -math.inf), 1e200, -1e200j, complex(_HUGE, _HUGE),
               _HUGE, -_HUGE, 1j * _HUGE, -1j * _HUGE]


@st.composite
def sphere_values(draw, edges=EDGE_VALUES, max_size=40):
    """Random points of the sphere with some of `edges` mixed in."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, max_size))
    z = random_sphere_points(rng, n).astype(complex)
    picks = rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    z[picks] = rng.choice(np.array(edges, dtype=complex), size=int(picks.sum()))
    return z


def mp_chain_identity_residual(left_chain, right_chain, n_points=None, dps=40):
    """Oracle for rational.chain_identity_residual, in mpmath at dps digits.

    Same unit-circle sample and projective chordal metric, but its own
    Horner, one point at a time in arbitrary precision.
    """
    mpmath = pytest.importorskip("mpmath")
    mp, mpc = mpmath.mp, mpmath.mpc
    chains = (left_chain, right_chain)
    deg = max(int(np.prod([f.degree for f in chain]) or 1) for chain in chains)
    m = n_points or (2 * deg + 5)

    def value_pair(chain, z):
        # innermost first: f applied to p/q via Horner on sum c_k p^k q^(d-k)
        p, q = z, mpc(1)
        for f in reversed(chain):
            d = f.degree
            num_c = list(f.num.coefficients) + [0] * (d - f.num.degree)
            den_c = list(f.den.coefficients) + [0] * (d - f.den.degree)
            qpow = [mpc(1)]
            for _ in range(d):
                qpow.append(qpow[-1] * q)
            pn, qn = mpc(num_c[d]), mpc(den_c[d])
            for k in range(d - 1, -1, -1):
                pn = pn * p + mpc(num_c[k]) * qpow[d - k]
                qn = qn * p + mpc(den_c[k]) * qpow[d - k]
            p, q = pn, qn
        return p, q

    with mp.workdps(dps):
        worst = 0.0
        for k in range(m):
            z = mp.expjpi(2 * (mp.mpf(k) / m + mp.mpf("0.2371")))
            p1, q1 = value_pair(left_chain, z)
            p2, q2 = value_pair(right_chain, z)
            n1 = mp.sqrt(abs(p1) ** 2 + abs(q1) ** 2)
            n2 = mp.sqrt(abs(p2) ** 2 + abs(q2) ** 2)
            worst = max(worst, float(2 * abs(p1 * q2 - p2 * q1) / (n1 * n2)))
        return worst


def scalar_call(f, z):
    """Oracle for RationalMap.__call__ and eval_array: one point at a time in
    Python complex arithmetic, |z| > 1 and infinity through the reversed
    coefficients, with a log-magnitude overflow guard; complex inf is the
    point at infinity (on_sphere)."""
    v = on_sphere(z)
    if v == INF:
        return _scalar_outer_chart(f, 0j, at_infinity=True)
    if abs(v) <= 1.0:
        pz = f.num(v)
        qz = f.den(v)
        if qz == 0:
            return INF
        return on_sphere(pz / qz)
    return _scalar_outer_chart(f, 1.0 / v, at_infinity=False)


def _scalar_outer_chart(f, w, at_infinity):
    """Evaluate p/q at z = 1/w via reversed coefficients (|w| <= 1)."""
    dp, dq = f.num.degree, f.den.degree
    pr = npoly.polyval(w, f.num.coefficients[::-1])
    qr = npoly.polyval(w, f.den.coefficients[::-1])
    k = dp - dq
    if qr == 0:
        return INF
    ratio = pr / qr
    if at_infinity:
        if k > 0:
            return INF if ratio != 0 else 0j
        if k < 0:
            return 0j
        return on_sphere(ratio)
    # finite z with |z| > 1: value = ratio * z^k, guarded against overflow
    if ratio == 0:
        return 0j
    log_mag = math.log(abs(ratio)) - k * math.log(abs(w))
    if log_mag > 320:
        return INF
    if log_mag < -320:
        return 0j
    return on_sphere(ratio * (1.0 / w) ** k)


def series_horner_compose(f, s):
    """Oracle for series.compose_rational: its own Horner over the series,
    numerator and denominator each at their own degree."""
    from invarcurves.series import TruncatedPowerSeries

    n = s.order

    def horner(poly_coeffs):
        acc = TruncatedPowerSeries(np.zeros(n + 1, dtype=complex))
        acc = acc + complex(poly_coeffs[-1])
        for c in poly_coeffs[-2::-1]:
            acc = acc * s + complex(c)
        return acc

    p = horner(f.num.coefficients)
    q = horner(f.den.coefficients)
    return p * q.reciprocal()


def recomposition_coefficients(f, a, order):
    """Oracle for poincare.solve_coefficients: the recomposition solve it
    replaced, which expands f(F) afresh through order k for every k, by
    series.compose_rational (O(d N^3)).  c_k is the order-k coefficient of
    f(F) with c_k = 0, over the pivot lambda^k - lambda."""
    from invarcurves.rational import multiplier
    from invarcurves.series import TruncatedPowerSeries, compose_rational

    lam = multiplier(f, a)
    c = np.zeros(order + 1, dtype=complex)
    c[0], c[1] = a, 1.0
    for k in range(2, order + 1):
        g = compose_rational(f, TruncatedPowerSeries(c[: k + 1]))
        c[k] = g.coefficients[k] / (lam ** k - lam)
    return c


def mp_linearizer_coefficients(f, a, order, dps=40):
    """Oracle for poincare.solve_coefficients in mpmath at dps digits: the
    linearizer of f as given (its double coefficients taken exactly) at the
    fixed point that Newton's method reaches from a.

    c_k solves the order-k coefficient r(c_k) of Q(F) F(lambda z) - P(F),
    f = P/Q, with every power F^j summed out in full.  r is linear in c_k,
    so one secant step from 0 to a probe value solves it exactly; the pivot
    Q(a) (lambda^k - lambda) only sets the probe's scale, since r(0) can
    exceed r(1) - r(0) by more than dps digits.
    """
    mpmath = pytest.importorskip("mpmath")
    mp, mpc = mpmath.mp, mpmath.mpc

    def horner(cs, z):
        acc = mpc(0)
        for x in reversed(cs):
            acc = acc * z + x
        return acc

    with mp.workdps(dps):
        p = [mpc(complex(x)) for x in f.num.coefficients]
        q = [mpc(complex(x)) for x in f.den.coefficients]
        dp = [k * p[k] for k in range(1, len(p))]
        dq = [k * q[k] for k in range(1, len(q))]
        a = mpc(complex(a))
        for _ in range(200):
            step = (horner(p, a) - a * horner(q, a)) \
                / (horner(dp, a) - horner(q, a) - a * horner(dq, a))
            a -= step
            if abs(step) <= mp.mpf(2) ** (-mp.prec) * max(1, abs(a)):
                break
        lam = (horner(dp, a) * horner(q, a) - horner(p, a) * horner(dq, a)) / horner(q, a) ** 2
        lam_pow = [lam ** k for k in range(order + 1)]
        c = [a, mpc(1)] + [mpc(0)] * (order - 1)
        pows = [[mpc(1)] + [mpc(0)] * order] \
            + [[mpc(0)] * (order + 1) for _ in range(1, max(len(p), len(q)))]
        qf = [mpc(0)] * (order + 1)

        def column(k):
            # order k of every F^j and of Q(F) from c as it stands, and r
            for j in range(1, len(pows)):
                pows[j][k] = mp.fsum(pows[j - 1][i] * c[k - i] for i in range(k + 1))
            qf[k] = mp.fsum(q[j] * pows[j][k] for j in range(len(q)))
            return (mp.fsum(qf[i] * lam_pow[k - i] * c[k - i] for i in range(k + 1))
                    - mp.fsum(p[j] * pows[j][k] for j in range(len(p))))

        column(0)
        column(1)
        for k in range(2, order + 1):
            r0 = column(k)
            if r0 != 0:
                c[k] = probe = -r0 / (qf[0] * (lam_pow[k] - lam))
                c[k] = probe * r0 / (r0 - column(k))
                column(k)
        return np.array([complex(x) for x in c])


def coefficient_error(c, ref):
    """Largest |c_k - ref_k| relative to the envelope of ref at k: exp of the
    upper concave hull of log|ref_k| (the Newton polygon), which bridges the
    coefficients that pass near zero where the series changes sign."""
    ks = np.flatnonzero(ref != 0)
    y = np.log(np.abs(ref[ks]))
    hull = []
    for i in range(len(ks)):
        # drop the last hull point while it lies on or below the chord to i
        while len(hull) >= 2 and ((y[hull[-1]] - y[hull[-2]]) * (ks[i] - ks[hull[-2]])
                                  <= (y[i] - y[hull[-2]]) * (ks[hull[-1]] - ks[hull[-2]])):
            hull.pop()
        hull.append(i)
    envelope = np.exp(np.interp(np.arange(len(ref)), ks[hull], y[hull]))
    return float(np.max(np.abs(c - ref) / envelope))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def scalar_evaluate(F, z, nudge=None):
    """Oracle for poincare.evaluate: one point at a time, each pull-back step
    a Python complex division and each push-forward step the scalar_call
    oracle.
    Returns the value and the number k of pull-back steps.

    Raises ArithmeticError where poincare.evaluate does: beyond MAX_PULLBACK
    pull-back steps, instead of evaluating the series outside eval_radius.
    nudge = (s, eta) multiplies the series argument (s = -1), or the value
    after s push-forward steps (0 <= s <= k), by 1 + eta.
    """
    from invarcurves.poincare import MAX_PULLBACK

    s_nudge, eta = nudge or (None, 0.0)
    z = complex(z)
    k = 0
    while abs(z) > F.eval_radius:
        if k == MAX_PULLBACK:
            raise ArithmeticError("needs more than MAX_PULLBACK pull-back steps")
        z /= F.multiplier
        k += 1
    if s_nudge == -1:
        z *= 1 + eta
    w = on_sphere(npoly.polyval(z, F.coefficients))
    for s in range(k + 1):
        if s == s_nudge and w != INF:
            w = on_sphere(w * (1 + eta))
        if s < k:
            w = scalar_call(F.map, w)
    return w, k


def evaluate_rounding_bound(F, z, ulps=8, eta=1e-8):
    """Chordal bound on how far two evaluations of F(z) that round apart by
    up to `ulps` at each step (argument, series value, every push-forward
    step) can land: each step's share is amplified by the chain after it,
    measured by nudging that step by a relative eta in the oracle."""
    from invarcurves.rational import chordal

    w, k = scalar_evaluate(F, z)
    amp = [chordal(scalar_evaluate(F, z, (s, eta))[0], w) / eta for s in range(-1, k + 1)]
    # the argument collects one rounding per pull-back step
    weights = [k + 1] + [1] * (k + 1)
    return ulps * np.finfo(float).eps * sum(c * max(1.0, a) for c, a in zip(weights, amp))


def dense_polyline_distance(points_emb, trace, chunk=256):
    """Oracle for curves.points_to_polyline_distance: every point against
    every segment, `chunk` points at a time.

    Same segments and arithmetic per point-segment pair, so the distances
    must be equal, not close.
    """
    from invarcurves.geometry import _segments

    points_emb = np.atleast_2d(points_emb)
    a, b = _segments(trace.embedded(), trace.closed)
    d = b - a
    dd = np.einsum("ij,ij->i", d, d)
    dd[dd == 0] = 1.0
    out = np.empty(len(points_emb))
    for lo in range(0, len(points_emb), chunk):
        p = points_emb[lo:lo + chunk]
        ap = p[:, None, :] - a[None, :, :]
        t = np.clip(np.einsum("pij,ij->pi", ap, d) / dd, 0.0, 1.0)
        closest = a[None, :, :] + t[:, :, None] * d[None, :, :]
        dist = np.linalg.norm(p[:, None, :] - closest, axis=2)
        out[lo:lo + chunk] = dist.min(axis=1)
    return out


def per_degree_scan(trace, d_max):
    """Oracle for curves.transcendence_scan's fits: one independent
    algebraic fit per degree, each deduplicating and normalising the samples
    and building its own monomial columns.

    Same arithmetic per degree, so the reports must be equal, not close.
    """
    from invarcurves.curves import (FitReport, _dedupe_sorted, _monomial_exponents,
                                    _normalised)

    reports = []
    for degree in range(1, d_max + 1):
        expos = _monomial_exponents(degree)
        pts = _dedupe_sorted(trace.finite_values)
        if len(pts) < 3 * len(expos):
            raise ValueError(
                f"under-sampled: need >= {3 * len(expos)} samples for degree {degree}")
        center, scale, xs, ys = _normalised(pts)
        cols = np.column_stack([xs ** i * ys ** j for (i, j) in expos])
        fit_rows, val_rows = cols[0::2], cols[1::2]
        norms = np.linalg.norm(fit_rows, axis=0)
        norms[norms == 0] = 1.0
        _, sv, vt = np.linalg.svd(fit_rows / norms, full_matrices=False)
        coef = vt[-1] / norms
        coef = coef / np.linalg.norm(coef)
        reports.append(FitReport(degree=degree, smallest_singular_value=float(sv[-1]),
                                 residual=float(np.max(np.abs(val_rows @ coef))),
                                 coefficients=coef.astype(complex), exponents=expos,
                                 center=center, scale=scale))
    return reports


def quadratic_injectivity_check(trace, tol_cross=1e-6, min_separation_steps=10,
                                min_excursion=1e-3):
    """Oracle for poincare.injectivity_check: every segment against every
    later one, one row at a time, and suppression against every taken pair.

    Same segments (closing segment included for a closed trace), filters and
    arithmetic per pair, so the crossing lists must be equal, not close.
    """
    from invarcurves.geometry import _segments, segment_pair_distance
    from invarcurves.poincare import Crossing

    emb = trace.embedded()
    a, b = _segments(emb, trace.closed)
    n_seg = len(a)
    params = trace.params
    step = float(np.median(np.diff(params)))
    min_gap = min_separation_steps * step
    ends, path, period = params, emb, None
    if trace.closed:
        period = params[-1] - params[0] + step
        ends = np.append(params, params[0] + period)
        path = np.vstack([emb, emb[:1]])
    candidates = []
    for i in range(n_seg - min_separation_steps):
        js = np.arange(i + min_separation_steps, n_seg)
        gap = ends[js] - ends[i + 1]
        if period is not None:
            gap = np.minimum(gap, period - (ends[js + 1] - ends[i]))
        js = js[gap >= min_gap]
        if len(js) == 0:
            continue
        d, p1, _ = segment_pair_distance(a[i][None, :], b[i][None, :], a[js], b[js])
        for h in np.nonzero(d <= tol_cross)[0]:
            j = int(js[h])
            excursion = float(np.max(np.linalg.norm(path[i: j + 2] - p1[h], axis=1)))
            if excursion >= min_excursion:
                candidates.append((i, j, float(d[h])))
    crossings = []
    taken = []
    for i, j, d in sorted(candidates, key=lambda c: c[2]):
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


def scalar_wp(inv, z):
    """Oracle for EllipticInvariants.wp: one point at a time, in scalar
    arithmetic on the lattice's own Laurent data and duplication map, with
    no frame (complex inf at lattice points)."""
    return _scalar_wp_chain(inv, z)[0]


@functools.lru_cache(maxsize=64)
def _own_laurent(g2, g3):
    """The Laurent data of the lattice itself, not of its frame; far from
    side 1 it leaves the float range."""
    with np.errstate(all="ignore"):
        return laurent_coefficients(g2, g3)


def _scalar_wp_chain(inv, z, nudge=None):
    """(wp, k) with k the number of halvings.  nudge = (s, eta) multiplies
    the series argument (s = -1) or the value after s doubling steps
    (0 <= s <= k) by 1 + eta."""
    inf = complex(math.inf, 0.0)
    lat = inv.lattice
    m = lat.basis_matrix()
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    z = complex(z)
    x = (m[1, 1] * z.real - m[0, 1] * z.imag) / det
    y = (-m[1, 0] * z.real + m[0, 0] * z.imag) / det
    x -= math.floor(x + 0.5)
    y -= math.floor(y + 0.5)
    z = x * lat.g1 + y * lat.g2
    if abs(z) <= 1e-14 * (4.0 * inv.base_radius):
        return inf, 0
    k = 0
    while abs(z) > inv.base_radius:
        z *= 0.5
        k += 1
    s_nudge, eta = nudge or (None, 0.0)
    if s_nudge == -1:
        z *= 1 + eta
    u = z * z
    acc = 0j
    c = _own_laurent(inv.g2, inv.g3)
    for j in range(len(c) - 1, 1, -1):
        acc = (acc + c[j]) * u
    w = 1.0 / u + acc
    (a0, a1, a2, a3, a4), (b0, b1, b2, b3) = inv.duplication
    for s in range(k + 1):
        if s == s_nudge:
            w *= 1 + eta
        if s == k:
            break
        # the duplication map by Horner; infinite at its poles and past the
        # overflow guard, and infinite from then on
        if not (math.isfinite(w.real) and math.isfinite(w.imag)) or abs(w) > 1e100:
            return inf, k
        den = ((b3 * w + b2) * w + b1) * w + b0
        if den == 0:
            return inf, k
        w = ((((a4 * w + a3) * w + a2) * w + a1) * w + a0) / den
    return w, k


def wp_rounding_bound(inv, z, ulps=8, eta=1e-8):
    """Bound on how far two evaluations of wp(z) that round apart by up to
    `ulps` at each step (series argument, series value, every doubling
    step) can land: each step's share is amplified by the chain after it,
    measured by nudging that step by a relative eta in the oracle."""
    w, k = _scalar_wp_chain(inv, z)
    eps = np.finfo(float).eps
    nudged = [_scalar_wp_chain(inv, z, (s, eta))[0] for s in range(-1, k + 1)]
    return ulps * eps * sum(max(abs(w), abs(wn - w) / eta) for wn in nudged)


def theta_wp(lattice, zs, dps=30):
    """wp at each of zs from Jacobi theta functions in mpmath at dps digits
    (DLMF 23.6.2-23.6.5), a different algorithm from the program's halving
    and duplication.  With a reduced basis (a, b) and nome q = exp(i pi b/a):
        wp(z) = e1 + (pi/a * t1'(0) t2(v) / (t2(0) t1(v)))^2,  v = pi z / a,
        e1 = (pi/a)^2 (t2^4 + 2 t4^4) / 3."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    a, b = lattice.reduced_basis()
    with mp.workdps(dps):
        a, b = mpmath.mpc(a), mpmath.mpc(b)
        q = mp.exp(1j * mp.pi * b / a)
        scale = mp.pi / a
        t2, t4 = mp.jtheta(2, 0, q), mp.jtheta(4, 0, q)
        e1 = scale ** 2 * (t2 ** 4 + 2 * t4 ** 4) / 3
        t1p = mp.jtheta(1, 0, q, 1)
        out = []
        for z in zs:
            v = scale * mpmath.mpc(complex(z))
            r = scale * t1p * mp.jtheta(2, v, q) / (t2 * mp.jtheta(1, v, q))
            out.append(complex(e1 + r * r))
    return np.array(out)
