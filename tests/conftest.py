import numpy as np
import pytest
from hypothesis import settings

from invarcurves.rational import Polynomial, RationalMap

# property tests draw the same examples on every run; no deadline, since
# timings on a shared machine are not part of any property
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def scalar_evaluate(F, z, nudge=None):
    """Oracle for poincare.evaluate: one point at a time, each pull-back step
    a Python complex division and each push-forward step RationalMap.__call__.
    Returns the value and the number k of pull-back steps.

    Raises ArithmeticError where poincare.evaluate does: beyond MAX_PULLBACK
    pull-back steps, instead of evaluating the series outside eval_radius.
    nudge = (s, eta) multiplies the series argument (s = -1), or the value
    after s push-forward steps (0 <= s <= k), by 1 + eta.
    """
    from numpy.polynomial import polynomial as npoly

    from invarcurves.poincare import MAX_PULLBACK
    from invarcurves.rational import SpherePoint

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
    w = SpherePoint(complex(npoly.polyval(z, F.coefficients)))
    for s in range(k + 1):
        if s == s_nudge and not w.is_infinite:
            w = SpherePoint(w.value * (1 + eta))
        if s < k:
            w = F.map(w)
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
    from invarcurves.curves import _segments

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


def quadratic_injectivity_check(trace, tol_cross=1e-6, min_separation_steps=10,
                                min_excursion=1e-3):
    """Oracle for poincare.injectivity_check: every segment against every
    later one, one row at a time, and suppression against every taken pair.

    Same segments (closing segment included for a closed trace), filters and
    arithmetic per pair, so the crossing lists must be equal, not close.
    """
    from invarcurves.curves import _segments, segment_pair_distance
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
