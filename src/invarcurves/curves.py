"""Tracing and classification of candidate invariant curves.

A trace is an ordered sampling of a curve on the Riemann sphere.  The
classification tools fit implicit equations (circle, then general algebraic
of bounded degree) with held-out validation, scan for algebraic structure,
and test lattice commensurability, which is the decisive criterion when a
curve is produced by elliptic functions.
"""

import math

import numpy as np

from . import elliptic
from .geometry import CurveTrace, points_to_polyline_distance, trace_svg  # tracer targets
from .rational import UniformStream, chordal_array, embed_points

CIRCLE_CLASS_TOL = 1e-8   # relative residual below which a trace is a circle/line


# ---------------------------------------------------------------------------
# Traces of wp along a line
# ---------------------------------------------------------------------------

def trace_wp_line(invariants, offset, n=1024):
    """Closed trace of wp(t + offset) over the real period t in [0, g1).

    The offset must not be lattice-equivalent to the real axis, where the
    image can degenerate or hit poles.
    """
    offset = complex(offset)
    lat = invariants.lattice
    rep = elliptic.reduce_to_fundamental(lat, offset)
    if abs(rep.imag) <= 1e-12 * abs(lat.g2):
        raise ValueError("offset is lattice-equivalent to the real axis: "
                         "the traced line runs through poles or degenerates")
    if abs(lat.g1.imag) > 1e-12 * abs(lat.g1):
        raise ValueError("default period range needs a real first generator")
    ts = lat.g1.real * np.arange(n) / n
    return CurveTrace(ts, invariants.wp(ts + offset), closed=True,
                      source=f"wp-line(offset={offset!r})")


# ---------------------------------------------------------------------------
# Invariance of a traced curve
# ---------------------------------------------------------------------------

def invariance_residual(f, trace):
    """Max chordal distance from f(sample) to the traced polyline."""
    if len(trace) < 16:
        raise ValueError("trace too coarse for an invariance check")
    images = embed_points(f.eval_array(trace.values))
    return float(np.max(points_to_polyline_distance(images, trace)))


def parametric_wp_invariance_residual(invariants, f, offset, n=256):
    """Pointwise check of f(wp(x + offset)) = wp(-2x + offset) over a period.

    This is the parametric form of invariance for a doubling-invariant line
    (2L = -L modulo periods), checked against the wp evaluator directly.
    """
    period = invariants.lattice.g1.real
    t = period * np.arange(n) / n
    w = invariants.wp(np.concatenate([t + offset, (-2.0 * t) % period + offset]))
    return float(np.max(chordal_array(f.eval_array(w[:n]), w[n:]), initial=0.0))


# ---------------------------------------------------------------------------
# Implicit fits
# ---------------------------------------------------------------------------

class FitReport:
    """Implicit-equation fit: unit-norm coefficients, in the frame
    (z - center) / scale, and their residual."""

    __slots__ = ("degree", "smallest_singular_value", "residual", "coefficients",
                 "exponents", "center", "scale", "label")

    def __init__(self, degree, smallest_singular_value, residual, coefficients,
                 exponents=(), center=0j, scale=1.0, label="algebraic"):
        self.degree, self.smallest_singular_value = degree, smallest_singular_value
        self.residual, self.coefficients = residual, coefficients
        self.exponents, self.center, self.scale, self.label = exponents, center, scale, label


def _dedupe_sorted(points):
    """Canonical sample set: sorted by (re, im) in the normalised frame,
    duplicates there removed, so the set does not depend on the scale."""
    pts = np.asarray(points, dtype=complex)
    if len(pts) == 0:
        return pts
    _, _, x, y = _normalised(pts)
    # return_index sorts stably: each key keeps its first sample
    _, first = np.unique(np.round(x, 12) + 1j * np.round(y, 12), return_index=True)
    return pts[first]


def _normalised(pts):
    """Center, scale and the samples (x, y) in the frame (z - center) / scale,
    in which fits and their residuals do not depend on the curve's size."""
    center = complex(pts.real.mean(), pts.imag.mean())
    scale = float(max(pts.real.std(), pts.imag.std())) or 1.0
    return center, scale, (pts.real - center.real) / scale, (pts.imag - center.imag) / scale


def circle_fit(trace):
    """Least-squares circle/line a(x^2+y^2) + bx + cy + d = 0.

    The fit and its residual are taken on the normalised samples, so the
    verdict is the same for the curve scaled by any factor; the unit-norm
    coefficients are those of the fitted circle in the trace's coordinates.
    """
    pts = _dedupe_sorted(trace.finite_values)
    if len(pts) < 8:
        raise ValueError("need at least 8 finite samples for a circle fit")
    center, scale, x, y = _normalised(pts)
    rows = np.column_stack([x * x + y * y, x, y, np.ones_like(x)])
    _, sv, vt = np.linalg.svd(rows, full_matrices=False)
    a, b, c, d = coef = vt[-1] / np.linalg.norm(vt[-1])
    residual = float(np.max(np.abs(rows @ coef)))
    # substitute (x, y) = (z - center) / scale and clear the scale^2
    cx, cy = center.real, center.imag
    coef = np.array([a, b * scale - 2 * a * cx, c * scale - 2 * a * cy,
                     a * (cx * cx + cy * cy) - scale * (b * cx + c * cy) + d * scale * scale])
    return FitReport(degree=2, smallest_singular_value=float(sv[-1]),
                     residual=residual,
                     coefficients=(coef / np.linalg.norm(coef)).astype(complex),
                     exponents=((0, 0),), label="circle-line")


def is_circle(report):
    return report.residual <= CIRCLE_CLASS_TOL


def _monomial_exponents(d):
    return tuple((i, j) for i in range(d + 1) for j in range(d + 1 - i))


def algebraic_fit(trace, degree):
    """Implicit polynomial fit of total degree <= degree with held-out
    validation: coefficients come from the even-index half of the canonical
    sample order (SVD, unit-norm columns), the reported residual is the max
    of |F| over the odd-index half with unit-norm coefficients.
    """
    return _algebraic_fits(trace, [degree])[0]


def _algebraic_fits(trace, degrees):
    """algebraic_fit at each of the ascending degrees, on one canonical sample
    set and one table of the monomials xs**i * ys**j of the top degree."""
    pts = _dedupe_sorted(trace.finite_values)
    for degree in degrees:
        need = 3 * len(_monomial_exponents(degree))
        if len(pts) < need:
            raise ValueError(f"under-sampled: need >= {need} samples for degree {degree}")
    center, scale, xs, ys = _normalised(pts)
    x_pow = [xs ** i for i in range(degrees[-1] + 1)]
    y_pow = [ys ** j for j in range(degrees[-1] + 1)]
    top = _monomial_exponents(degrees[-1])
    table = np.empty((len(pts), len(top)))
    for c, (i, j) in enumerate(top):
        np.multiply(x_pow[i], y_pow[j], out=table[:, c])
    column = {e: c for c, e in enumerate(top)}
    # a C-order column sum adds row by row, so each norm and each scaled
    # entry is the one a degree's own columns give
    norms = np.linalg.norm(table[0::2], axis=0)
    norms[norms == 0] = 1.0
    scaled, val = table[0::2] / norms, table[1::2].copy()
    reports = []
    for degree in degrees:
        expos = _monomial_exponents(degree)
        c = [column[e] for e in expos]
        fit = scaled.take(c, axis=1)
        # from 11/6 rows a column on, LAPACK's dgesdd itself factors QR and
        # takes the SVD of R; from 2 rows a column this is bit for bit its
        # result, without forming U, but not in the band below
        if len(fit) >= 2 * len(expos):
            fit = np.linalg.qr(fit, mode="r")
        _, sv, vt = np.linalg.svd(fit, full_matrices=False)
        coef = vt[-1] / norms[c]
        coef = coef / np.linalg.norm(coef)
        residual = float(np.max(np.abs(val.take(c, axis=1) @ coef)))
        reports.append(FitReport(degree=degree, smallest_singular_value=float(sv[-1]),
                                 residual=residual, coefficients=coef.astype(complex),
                                 exponents=expos, center=center, scale=scale))
    return reports


class TranscendenceScan:
    """Degree scan with the (threshold-based) evidence verdict.

    The verdict is evidence only: an analytic curve can be approximated by
    algebraic curves superexponentially well, so absence of a sub-threshold
    fit is suggestive, never a proof, and presence of one does not make the
    curve algebraic.
    """
    __slots__ = ("reports",)
    evidence_threshold = 1e-3    # class attributes: the thresholds are fixed
    pass_threshold = 1e-6

    def __init__(self, reports):
        self.reports = reports

    @property
    def transcendence_evidence(self):
        return all(r.residual >= self.evidence_threshold for r in self.reports)

    @property
    def first_passing_degree(self):
        for r in self.reports:
            if r.residual <= self.pass_threshold:
                return r.degree
        return None

    def to_json_dict(self):
        return {
            "reports": self.reports,
            "evidence_threshold": self.evidence_threshold,
            "pass_threshold": self.pass_threshold,
            "transcendence_evidence": self.transcendence_evidence,
            "first_passing_degree": self.first_passing_degree,
        }


def transcendence_scan(trace, d_max):
    """algebraic_fit for d = 1..d_max; verdict per TranscendenceScan's thresholds.

    Callers should run a known-algebraic control (the genus-style check used
    in the tests pairs this with the degree-4 invariant curve) through the
    same pipeline before trusting a verdict.
    """
    if d_max < 1:
        raise ValueError(f"the scan needs d_max >= 1, got {d_max}")
    return TranscendenceScan(_algebraic_fits(trace, range(1, d_max + 1)))


# ---------------------------------------------------------------------------
# Lattice commensurability
# ---------------------------------------------------------------------------

class CommensurabilityVerdict:
    __slots__ = ("commensurable", "q_max", "coordinates", "approximations")

    def __init__(self, commensurable, q_max, coordinates, approximations):
        self.commensurable, self.q_max, self.approximations = commensurable, q_max, approximations
        self.coordinates = coordinates          # generators of L2 in the basis of L1

    def __str__(self):
        return "COMMENSURABLE" if self.commensurable \
            else f"INCOMMENSURABLE-UP-TO({self.q_max})"


def lattice_commensurability(lat1, lat2, q_max=1000):
    """Are the two lattices related by rational coordinates?

    Expresses both generators of lat2 in the real basis of lat1 and asks
    each of the four coordinates for a rational p/q, q <= q_max, within 1e-9
    (continued-fraction convergents via Fraction.limit_denominator).
    """
    from fractions import Fraction   # only here: a cold job need not load it

    m = lat1.basis_matrix()
    rhs = lat2.basis_matrix()
    coords = np.linalg.solve(m, rhs)   # columns: lat2 generators in lat1 basis
    approxs = []
    commensurable = True
    for value in coords.T.ravel():
        frac = Fraction(float(value)).limit_denominator(q_max)
        approxs.append((frac.numerator, frac.denominator))
        if abs(value - float(frac)) > 1e-9:
            commensurable = False
    return CommensurabilityVerdict(commensurable, q_max, coords, approxs)


# ---------------------------------------------------------------------------
# Reflection construction for the doubling-invariant line
# ---------------------------------------------------------------------------

class ReflectionXYReport:
    __slots__ = ("on_line_residual", "periodicity_residual", "off_line_y")

    def __init__(self, on_line_residual, periodicity_residual, off_line_y):
        self.on_line_residual, self.periodicity_residual = on_line_residual, periodicity_residual
        self.off_line_y = off_line_y


def example1_xy_check(invariants, offset, seed=0):
    """For a rectangular lattice and a horizontal line L at height Im(offset),
    the combinations

        X = (wp(z) + conj(wp(s(z)))) / 2,   Y = (wp(z) - conj(wp(s(z)))) / (2i)

    with s the reflection in L are doubly periodic, and on L they reduce to
    Re(wp), Im(wp).  Returns the measured residuals of both facts.
    """
    lat = invariants.lattice
    if abs(lat.g1.imag) > 1e-12 * abs(lat.g1) or abs(lat.g2.real) > 1e-12 * abs(lat.g2):
        raise ValueError("reflection construction needs a rectangular lattice")
    h = complex(offset).imag
    # samples sit at fixed fractions of the periods, so that scaling the
    # lattice scales them with it
    w1 = lat.g1.real
    # on L the reflection fixes z, so X and Y reduce to Re(wp), Im(wp)
    on_line = np.linspace(0.025, 0.95, 16) * w1 + 1j * h
    # keep away from the poles so the values stay on the wp scale
    u = UniformStream(seed).uniform(0.0, 1.0, (100, 2))
    z0 = ((0.1 + 0.8 * u[:, 0]) * lat.g1 + (0.1 + 0.8 * u[:, 1]) * lat.g2 / 2.0
          + (0.0065 + 0.00355j) * w1)
    zr = 0.37 * w1  # a real-axis point: off L, Y need not be Im(wp)
    z = np.concatenate([on_line, z0, z0 + lat.g1, z0 + lat.g2, [zr]])
    # X and Y from wp at z and at its reflection s(z) = conj(z) + 2ih in L
    w = invariants.wp(np.concatenate([z, z.conjugate() + 2j * h]))
    w, wr = w[:len(z)], w[len(z):].conjugate()
    x, y = (w + wr) / 2.0, (w - wr) / 2j
    n = len(on_line)
    # each sample is judged against max(wp scale, its own values); the wp
    # scale max(|g2|^(1/2), |g3|^(1/3)) is in the lattice's units, as 1 is not
    wp_scale = max(math.sqrt(abs(invariants.g2)), float(np.cbrt(abs(invariants.g3))))
    ref = np.maximum(wp_scale, np.abs(w[:n]))
    on_line = float(np.max(np.abs([x[:n] - w[:n].real, y[:n] - w[:n].imag]) / ref))
    # rows: z0, z0 + g1, z0 + g2
    xs, ys = x[n:-1].reshape(3, -1), y[n:-1].reshape(3, -1)
    ref = np.maximum(wp_scale, np.maximum(np.abs(xs[0]), np.abs(ys[0])))
    shifts = np.abs(np.concatenate([xs[1:] - xs[0], ys[1:] - ys[0]])) / ref
    return ReflectionXYReport(on_line, float(np.max(shifts, initial=0.0)), complex(y[-1]))
