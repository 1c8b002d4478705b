"""Geometry of traces, all that a linearizer job needs besides its series:
the sampled curve, chordal distances to its polyline on the sphere, the
bounding-box table that both polyline queries descend, the SVG drawing.
"""

import math

import numpy as np

from .rational import _HUGE, embed_points

SWEEP_CHUNK = 1 << 16     # (point or run, block) or block pairs split at a time


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

    Exact: every segment that can attain a point's minimum is measured, and
    only those that SegmentBoxes.near leaves, about two a point on a trace
    that the points lie near.
    """
    p = np.atleast_2d(points_emb)
    a, b = _segments(trace.embedded(), trace.closed)
    d = b - a
    dd = np.einsum("ij,ij->i", d, d)
    dd[dd == 0] = 1.0
    out = np.full(len(p), np.inf)
    # computed distances on the unit sphere round within a few eps, so this
    # pad keeps every segment whose rounded distance can equal the minimum
    for o, s in SegmentBoxes(a, b).near(p.T.copy(), 32 * np.finfo(float).eps):
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


def _norm(d):
    """Norms of the columns of a (3, n) array, rounded as np.linalg.norm
    rounds rows of three; spelled out over components, which is faster."""
    dx, dy, dz = d
    return np.sqrt((dx * dx + dy * dy) + dz * dz)


def _meet(bp, bq, pad):
    """Do boxes (lo, -hi), padded by pad, overlap on every axis?  Padding
    subtracts pad from (lo, -hi); the boxes meet where their intersection
    has lo <= hi."""
    meet = np.maximum(bp, bq)
    meet -= pad
    return (meet[:3] + meet[3:]).max(axis=0) <= 0


def _far_vertices(v, p, r):
    """Mask of the columns of v (3, n) at distance >= r from those of p."""
    return _norm(v - p) >= r


class SegmentBoxes:
    """Bounding boxes of the segments [a[s], b[s]] of a path and of every
    aligned block of 2^k consecutive segments, in path order.

    Level k holds block q, the segments q 2^k .. (q + 1) 2^k - 1 (the last
    block of a level may be short); each box is the pairwise min/max of two
    boxes of level k - 1, so the table has about 2n boxes.  Boxes are tight:
    each face of a block's box holds one of its vertices.  Column c of the
    (6, columns) table holds a box as (lo, -hi), so that the box of a union
    is one np.minimum.  A level of odd length (but one) ends in the empty
    box, and so does the table.
    """

    def __init__(self, a, b):
        self.vertices = np.vstack([a, b[-1:]]).T.copy()     # vertex k starts segment k
        count = [len(a)]
        while count[-1] > 1:
            count[-1] += count[-1] % 2
            count.append(count[-1] // 2)
        self.count = np.array(count)
        self.first = np.concatenate([[0], np.cumsum(self.count)])
        self.box = box = np.full((6, self.first[-1] + 1), np.inf)
        np.minimum(a.T, b.T, out=box[:3, :len(a)])
        np.negative(np.maximum(a.T, b.T), out=box[3:, :len(a)])
        for k in range(1, len(count)):
            f0, f1 = self.first[k - 1], self.first[k]
            np.minimum(box[:, f0: f1: 2], box[:, f0 + 1: f1: 2],
                       out=box[:, f1: f1 + count[k - 1] // 2])
        self.empty = self.first[-1]

    def pairs(self, pad, min_steps, min_spread):
        """Index arrays (i, j), j - i >= min_steps >= 1, of the segments
        whose boxes, padded by pad, overlap on every axis, leaving out pairs
        whose vertices i .. j + 1 fit in a box of diagonal below min_spread.

        Block pairs are split from the top block down to single segments,
        and only those that can hold such a pair are kept: their padded
        boxes overlap, they hold two segments min_steps apart, and their run
        is not below min_spread.  Each block pair carries the box of the
        blocks strictly between its two blocks (empty for a block with
        itself), which the spread test needs besides their own boxes.  So a
        run of segments at one point costs about the blocks that cover it,
        not its pairs.  At most SWEEP_CHUNK block pairs are handled at a
        time, depth first, so one partial chunk per level is pending: memory
        O(n + SWEEP_CHUNK log n).
        """
        box, first = self.box, self.first
        # block pairs by their table columns: the top block with itself
        stack = [(len(first) - 2, first[-2:-1], first[-2:-1], box[:, self.empty:])]
        while stack:
            k, p, q, gap = stack.pop()
            if len(p) > SWEEP_CHUNK:
                stack.append((k, p[SWEEP_CHUNK:], q[SWEEP_CHUNK:], gap[:, SWEEP_CHUNK:]))
                p, q, gap = p[:SWEEP_CHUNK], q[:SWEEP_CHUNK], gap[:, :SWEEP_CHUNK]
            bp, bq = box.take(p, axis=1), box.take(q, axis=1)
            span = np.minimum(bp, bq)
            np.minimum(span, gap, out=span)
            span = span[:3] + span[3:]      # minus the extents
            keep = ((q - p >= min_steps >> k) & _meet(bp, bq, pad)
                    & ((span * span).sum(axis=0) >= min_spread * min_spread))
            p, q, gap = p[keep], q[keep], gap[:, keep]
            if k == 0:
                yield p, q
                continue
            # the children of p and q (a child past the end is the empty box,
            # and (2p + 1, 2p) fails the step test); of two distinct blocks,
            # the children 2p + 1 and 2q may lie between two children
            k -= 1
            apart = p < q
            p, q = 2 * p + (first[k] - 2 * first[k + 1]), 2 * q + (first[k] - 2 * first[k + 1])
            p1 = p + 1
            with_a = np.minimum(gap, box.take(np.where(apart, p1, self.empty), axis=1))
            with_b = box.take(np.where(apart, q, self.empty), axis=1)
            stack.append((k, np.concatenate([p, p, p1, p1]),
                          np.concatenate([q, q + 1, q, q + 1]),
                          np.concatenate([with_a, np.minimum(with_a, with_b), gap,
                                          np.minimum(gap, with_b)], axis=1)))

    def _descend(self, owners, keep):
        """(owner, segment) index arrays of the segments left when each
        owner descends from the top block: a block that keep(k, o, q, box)
        keeps for owner o (block q of level k, box its table column) hands
        o on to the four blocks two levels down (two to level 0).  At most
        SWEEP_CHUNK pairs are handled at a time, depth first, so memory is
        O(n + SWEEP_CHUNK log n).
        """
        stack = [(len(self.count) - 1, owners, np.zeros(len(owners), int))]
        while stack:
            k, o, q = stack.pop()
            if len(o) > SWEEP_CHUNK:
                stack.append((k, o[SWEEP_CHUNK:], q[SWEEP_CHUNK:]))
                o, q = o[:SWEEP_CHUNK], q[:SWEEP_CHUNK]
            # a block past the end of its level is the empty box
            box = self.box.take(np.where(q < self.count[k], self.first[k] + q, self.empty), axis=1)
            kept = keep(k, o, q, box)
            o, q, step = o[kept], q[kept], min(k, 2)
            if k == 0:
                yield o, q
            elif len(o):
                stack.append((k - step, np.repeat(o, 1 << step),
                              ((q[:, None] << step) + np.arange(1 << step)).ravel()))

    def near(self, p, pad):
        """(point, segment) index arrays holding, for each column h of p
        (3, n), every segment whose box comes within r[h] of p[:, h]; r[h]
        is pad plus the least distance from p[:, h] to the middle vertex of
        a block met, a bound never above that block's far corner.  Points
        descend the table from its top block (_descend).
        """
        nearest = np.full(p.shape[1], np.inf)   # squared distance to a vertex

        def keep(k, o, q, box):
            x = p.take(o, axis=1)
            v = self.vertices.take((2 * q + 1 << k) >> 1, axis=1, mode="clip") - x
            np.minimum.at(nearest, o, np.einsum("ij,ij->j", v, v))
            gap = np.maximum(np.maximum(box[:3] - x, box[3:] + x), 0.0)   # lo - x, x - hi
            r = np.sqrt(nearest) + pad
            return np.einsum("ij,ij->j", gap, gap) <= (r * r)[o]
        return self._descend(np.arange(p.shape[1]), keep)

    def any_far(self, start, stop, p, r):
        """Mask: does a vertex of segments start[h] .. stop[h] - 1 lie at
        distance >= r from p[:, h], as _far_vertices rounds it?

        The middle vertex of each run is measured first: across a crossing
        it usually lies far.  The other runs descend the table through the
        blocks that meet them, and a block inside a run decides by its box.
        Rounding is monotone, so the farthest face of a tight box, measured
        as an offset with two zero components, is a distance that some
        vertex reaches, and the farthest corner is one that no vertex
        exceeds.  Only the two vertices of each segment left undecided are
        measured.
        """
        far = _far_vertices(np.take(self.vertices, (start + stop) // 2, axis=1), p, r)
        n = self.vertices.shape[1] - 1

        def keep(k, o, q, box):
            lo, hi = q << k, np.minimum(q + 1 << k, n)
            s, e = start.take(o), stop.take(o)
            # a block past the last segment meets no run; its empty box reads as far
            meets = (s < hi) & (lo < e) & ~far[o]
            x = p.take(o, axis=1)
            reach = np.maximum(-(box[3:] + x), x - box[:3])
            face = np.maximum(np.maximum(reach[0], reach[1]), reach[2])
            inside = meets & (s <= lo) & (hi <= e)
            decided = np.sqrt(face * face) >= r
            far[o[inside & decided]] = True
            decided |= _norm(reach) < r
            return meets & ~(inside & decided)
        for o, q in self._descend(np.flatnonzero(~far), keep):
            o = np.concatenate([o, o])
            v = self.vertices.take(np.concatenate([q, q + 1]), axis=1)
            far[o[_far_vertices(v, p.take(o, axis=1), r)]] = True
        return far


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
