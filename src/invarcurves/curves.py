"""Tracing and classification of candidate invariant curves.

A trace is an ordered sampling of a curve on the Riemann sphere.  The
classification tools fit implicit equations (circle, then general algebraic
of bounded degree) with held-out validation, scan for algebraic structure,
and test lattice commensurability, which is the decisive criterion when a
curve is produced by elliptic functions.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import elliptic
from .rational import _HUGE, chordal_array, embed_points

CIRCLE_CLASS_TOL = 1e-8   # relative residual below which a trace is a circle/line
SWEEP_CHUNK = 1 << 16     # (owner, index) entries per chunk of a sort-and-sweep


class CurveTrace:
    """Ordered samples (parameter, point) of a curve; a point that is not
    finite or exceeds _HUGE in modulus is the point at infinity."""

    __slots__ = ("params", "values", "closed", "source")

    def __init__(self, params, values, closed=False, source=""):
        self.params = np.asarray(params, dtype=float)
        self.values = np.asarray(values, dtype=complex)
        if len(self.params) != len(self.values):
            raise ValueError("parameter/value length mismatch")
        if np.any(np.diff(self.params) <= 0):
            raise ValueError("parameters must be strictly increasing")
        self.closed = bool(closed)
        self.source = source

    def __len__(self):
        return len(self.params)

    @property
    def infinite(self):
        """Mask of the samples at infinity, computed on each access."""
        return ~(np.abs(self.values) <= _HUGE)     # nan compares false

    @property
    def finite_values(self):
        return self.values[~self.infinite]

    def embedded(self):
        """Samples embedded on the unit sphere in R^3."""
        return embed_points(self.values)

    def to_csv(self):
        rows = zip(self.params.tolist(), self.values.real.tolist(),
                   self.values.imag.tolist(), self.infinite.tolist())
        lines = ["parameter,re,im,is_infinite"]
        lines += [f"{t!r},0.0,0.0,1" if isinf else f"{t!r},{re!r},{im!r},0"
                  for t, re, im, isinf in rows]
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return (f"CurveTrace(n={len(self)}, closed={self.closed}, "
                f"source={self.source!r})")


# ---------------------------------------------------------------------------
# Polyline geometry on the sphere embedding
# ---------------------------------------------------------------------------

def _segments(emb, closed):
    a = emb
    b = np.roll(emb, -1, axis=0)
    if not closed:
        a, b = a[:-1], b[:-1]
    return a, b

def points_to_polyline_distance(points_emb, trace):
    """Min euclidean (= chordal) distance from each point to the polyline.

    Exact: every segment that can attain a point's minimum is measured.
    Segments are sorted by the lower end of their bounding box on the axis
    of largest extent.  A point's distance r to the 8 segment starts nearest
    in that order bounds its minimum, so only segments whose boxes come
    within r of it can attain the minimum; on the sort axis they form one
    run, found by searchsorted and padded by the longest box extent.
    """
    p = np.atleast_2d(points_emb)
    a, b = _segments(trace.embedded(), trace.closed)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    axis = int(np.argmax(hi.max(axis=0) - lo.min(axis=0)))
    order = np.argsort(lo[:, axis], kind="stable")
    a, lo, hi = a[order], lo[order], hi[order]
    d = b[order] - a
    dd = np.einsum("ij,ij->i", d, d)
    dd[dd == 0] = 1.0
    key, x = lo[:, axis], p[:, axis]
    near = np.clip(np.searchsorted(key, x)[:, None] + np.arange(-4, 4), 0, len(a) - 1)
    # computed distances on the unit sphere round within a few eps, so this
    # pad keeps every segment whose rounded distance can equal the minimum
    r = np.linalg.norm(p[:, None, :] - a[near], axis=2).min(axis=1) \
        + 32 * np.finfo(float).eps
    start = np.searchsorted(key, x - r - (hi[:, axis] - key).max())
    stop = np.searchsorted(key, x + r, side="right")
    out = np.full(len(p), np.inf)
    for o, s in _flat_runs(start, stop - start):
        keep = np.all((lo[s] <= p[o] + r[o, None]) & (p[o] - r[o, None] <= hi[s]), axis=1)
        o, s = o[keep], s[keep]
        ap = p[o] - a[s]
        t = np.clip(np.einsum("ij,ij->i", ap, d[s]) / dd[s], 0.0, 1.0)
        np.minimum.at(out, o, np.linalg.norm(p[o] - (a[s] + t[:, None] * d[s]), axis=1))
    return out


def segment_pair_distance(a1, b1, a2, b2):
    """Min distance between segment batches [a1,b1] and [a2,b2] (broadcast)."""
    d1 = b1 - a1
    d2 = b2 - a2
    r = a1 - a2
    a = np.einsum("...i,...i->...", d1, d1)
    e = np.einsum("...i,...i->...", d2, d2)
    f = np.einsum("...i,...i->...", d2, r)
    c = np.einsum("...i,...i->...", d1, r)
    b = np.einsum("...i,...i->...", d1, d2)
    a = np.maximum(a, 1e-300)
    e = np.maximum(e, 1e-300)
    denom = a * e - b * b
    s = np.where(denom > 0, np.clip((b * f - c * e) / np.where(denom == 0, 1, denom),
                                    0.0, 1.0), 0.0)
    t = (b * s + f) / e
    s = np.where(t < 0, np.clip(-c / a, 0, 1), s)
    s = np.where(t > 1, np.clip((b - c) / a, 0, 1), s)
    t = np.clip(t, 0.0, 1.0)
    p1 = a1 + s[..., None] * d1
    p2 = a2 + t[..., None] * d2
    return np.linalg.norm(p1 - p2, axis=-1), p1, p2


def _overlapping_boxes(lo, hi):
    """Index pairs (i < j) of boxes [lo, hi] that overlap on every axis.

    Sort-and-sweep on the axis of largest extent: after sorting by lower
    bound, the boxes that start inside box p are the run of positions
    p + 1 .. end - 1, with end found by searchsorted.  Yields index arrays
    in chunks (see _flat_runs).
    """
    n = len(lo)
    axis = int(np.argmax(hi.max(axis=0) - lo.min(axis=0)))
    order = np.argsort(lo[:, axis], kind="stable")
    lo, hi = lo[order], hi[order]
    start = np.arange(1, n + 1)
    run = np.searchsorted(lo[:, axis], hi[:, axis], side="right") - start
    for p, q in _flat_runs(start, run):
        keep = np.all((lo[q] <= hi[p]) & (lo[p] <= hi[q]), axis=1)
        i, j = order[p[keep]], order[q[keep]]
        yield np.minimum(i, j), np.maximum(i, j)


def _flat_runs(starts, lengths):
    """(owner, index) arrays listing starts[o] .. starts[o] + lengths[o] - 1
    for consecutive owners o, about SWEEP_CHUNK entries at a time (a single
    run may exceed it), so memory stays O(len(starts) + SWEEP_CHUNK)."""
    total = np.concatenate([[0], np.cumsum(lengths)])
    o0 = 0
    while o0 < len(lengths):
        o1 = max(int(np.searchsorted(total, total[o0] + SWEEP_CHUNK, side="right")) - 1,
                 o0 + 1)
        owner = np.repeat(np.arange(o0, o1), lengths[o0:o1])
        yield owner, starts[owner] + np.arange(total[o0], total[o1]) - total[owner]
        o0 = o1


# ---------------------------------------------------------------------------
# Traces of wp along a line
# ---------------------------------------------------------------------------

def trace_wp_line(invariants, offset, t_range=None, n=1024):
    """Samples of wp(t + offset) for real t; one period gives a closed trace.

    The offset must not be lattice-equivalent to the real axis, where the
    image can degenerate or hit poles.
    """
    offset = complex(offset)
    lat = invariants.lattice
    rep = elliptic.reduce_to_fundamental(lat, offset)
    if abs(rep.imag) <= 1e-12 * abs(lat.g2):
        raise ValueError("offset is lattice-equivalent to the real axis: "
                         "the traced line runs through poles or degenerates")
    if t_range is None:
        if abs(lat.g1.imag) > 1e-12 * abs(lat.g1):
            raise ValueError("default period range needs a real first generator")
        t_range = (0.0, lat.g1.real)
        closed = True
    else:
        closed = False
    t0, t1 = float(t_range[0]), float(t_range[1])
    reverse = t0 > t1
    if reverse:
        t0, t1 = t1, t0
    ts = t0 + (t1 - t0) * np.arange(n) / n if closed \
        else np.linspace(t0, t1, n)
    values = invariants.wp(ts + offset)
    if reverse:
        # same point set, opposite traversal (parameters stay increasing)
        values = values[::-1].copy()
    return CurveTrace(ts, values, closed=closed, source=f"wp-line(offset={offset!r})")


# ---------------------------------------------------------------------------
# Invariance of a traced curve
# ---------------------------------------------------------------------------

def invariance_residual(f, trace, sample_indices=None):
    """Max chordal distance from f(sample) to the traced polyline.

    sample_indices restricts which samples are pushed through f (useful for
    open arcs whose endpoint images leave the sampled window).
    """
    if len(trace) < 16:
        raise ValueError("trace too coarse for an invariance check")
    idx = np.arange(len(trace)) if sample_indices is None \
        else np.asarray(sample_indices)
    images = f.eval_array(trace.values[idx])
    emb = embed_points(images)
    return float(np.max(points_to_polyline_distance(emb, trace)))


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

@dataclass
class FitReport:
    """Implicit-equation fit: unit-norm coefficients, in the frame
    (z - center) / scale, and their residual."""
    degree: int
    smallest_singular_value: float
    residual: float
    coefficients: np.ndarray
    exponents: tuple = ()
    center: complex = 0j
    scale: float = 1.0
    label: str = "algebraic"
    n_excluded: int = 0

    def to_json_dict(self):
        return {
            "degree": self.degree,
            "smallest_singular_value": self.smallest_singular_value,
            "residual": self.residual,
            "coefficients": [[c.real, c.imag] for c in np.atleast_1d(self.coefficients)],
            "exponents": [list(e) for e in self.exponents],
            "center": [self.center.real, self.center.imag],
            "scale": self.scale,
            "label": self.label,
        }


def _dedupe_sorted(points):
    """Canonical sample set: sorted by (re, im) in the normalised frame,
    duplicates there removed, so the set does not depend on the scale."""
    pts = np.asarray(points, dtype=complex)
    if len(pts) == 0:
        return pts
    _, _, x, y = _normalised(pts)
    keys = np.round(x, 12) + 1j * np.round(y, 12)
    order = np.lexsort((keys.imag, keys.real))
    pts = pts[order]
    keys = keys[order]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = (np.diff(keys.real) != 0) | (np.diff(keys.imag) != 0)
    return pts[keep]


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
    expos = _monomial_exponents(degree)
    all_pts = np.asarray(trace.finite_values, dtype=complex)
    n_excluded = int(np.sum(trace.infinite))
    pts = _dedupe_sorted(all_pts)
    if len(pts) < 3 * len(expos):
        raise ValueError(
            f"under-sampled: need >= {3 * len(expos)} samples for degree {degree}")
    center, scale, xs, ys = _normalised(pts)
    cols = np.column_stack([xs ** i * ys ** j for (i, j) in expos])
    fit_rows = cols[0::2]
    val_rows = cols[1::2]
    norms = np.linalg.norm(fit_rows, axis=0)
    norms[norms == 0] = 1.0
    _, sv, vt = np.linalg.svd(fit_rows / norms, full_matrices=False)
    coef = vt[-1] / norms
    coef = coef / np.linalg.norm(coef)
    residual = float(np.max(np.abs(val_rows @ coef)))
    return FitReport(degree=degree, smallest_singular_value=float(sv[-1]),
                     residual=residual, coefficients=coef.astype(complex),
                     exponents=expos, center=center, scale=scale,
                     n_excluded=n_excluded)


@dataclass
class TranscendenceScan:
    """Degree scan with the (threshold-based) evidence verdict.

    The verdict is evidence only: an analytic curve can be approximated by
    algebraic curves superexponentially well, so absence of a sub-threshold
    fit is suggestive, never a proof, and presence of one does not make the
    curve algebraic.
    """
    reports: list
    evidence_threshold = 1e-3    # not dataclass fields: the thresholds are fixed
    pass_threshold = 1e-6

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
            "reports": [r.to_json_dict() for r in self.reports],
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
    reports = [algebraic_fit(trace, d) for d in range(1, d_max + 1)]
    return TranscendenceScan(reports)


# ---------------------------------------------------------------------------
# Lattice commensurability
# ---------------------------------------------------------------------------

@dataclass
class CommensurabilityVerdict:
    commensurable: bool
    q_max: int
    coordinates: np.ndarray          # generators of L2 in the basis of L1
    approximations: list = field(default_factory=list)

    def __str__(self):
        return "COMMENSURABLE" if self.commensurable \
            else f"INCOMMENSURABLE-UP-TO({self.q_max})"

    def to_json_dict(self):
        return {
            "commensurable": self.commensurable,
            "q_max": self.q_max,
            "coordinates": self.coordinates.tolist(),
            "approximations": [[p, q] for (p, q) in self.approximations],
        }


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

@dataclass
class ReflectionXYReport:
    on_line_residual: float
    periodicity_residual: float
    off_line_y: complex

    def to_json_dict(self):
        return {
            "on_line_residual": self.on_line_residual,
            "periodicity_residual": self.periodicity_residual,
            "off_line_y": [self.off_line_y.real, self.off_line_y.imag],
        }


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
    u = np.random.default_rng(seed).uniform(size=(100, 2))
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


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------

def trace_svg(trace, fit=None, fixed_points=()):
    """Static 640-pixel SVG of a trace with an optional fitted circle
    overlay and fixed-point markers.  Deterministic output (no timestamps)."""
    size, pad = 640, 0.08
    finite = ~trace.infinite
    pts = trace.values[finite]
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
    # a sample is drawn from the previous one when that one is finite too
    pens = np.where(np.append(False, finite[:-1])[finite], "L", "M").tolist()
    path = [f"{pen}{x:.3f},{y:.3f}"
            for pen, x, y in zip(pens, sx(pts.real).tolist(), sy(pts.imag).tolist())]
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
