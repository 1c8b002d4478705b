import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, strategies as st

from invarcurves import curves
from invarcurves.curves import (CurveTrace, algebraic_fit,
                                circle_fit, example1_xy_check, invariance_residual,
                                is_circle, lattice_commensurability,
                                trace_svg, trace_wp_line, transcendence_scan)
from invarcurves.elliptic import Lattice, invariants_from_lattice
from invarcurves.lattes import lattes_from_invariants
from invarcurves.rational import RationalMap, embed_points, iterate
from invarcurves.semiconj import pakovich_example

from conftest import dense_polyline_distance

SQUARE = Lattice(2.0, 2j)
INV1 = invariants_from_lattice(SQUARE)
SYS1 = lattes_from_invariants(INV1)
OFFSET1 = SQUARE.g2 / 3.0
TRACE1 = trace_wp_line(INV1, OFFSET1, n=600)

SKEW = Lattice(1.0, math.sqrt(2) + 1j)
INV2 = invariants_from_lattice(SKEW)
OFFSET2 = SKEW.g2 / 3.0
TRACE2 = trace_wp_line(INV2, OFFSET2, n=600)


def circle_trace(radius=1.0, n=256, rot=0.0):
    th = np.linspace(0, 2 * np.pi, n + 1)[:-1]
    return CurveTrace(th, radius * np.exp(1j * (th + rot)), closed=True)


class TestCurveTrace:
    def test_monotone_parameters_enforced(self):
        with pytest.raises(ValueError):
            CurveTrace([0.0, 0.0, 1.0], [0j, 1j, 2j])

    def test_csv_round_trip(self):
        tr = TRACE1
        back = CurveTrace.from_csv(tr.to_csv(), closed=True, source=tr.source)
        assert np.array_equal(back.params, tr.params)
        assert np.array_equal(back.values[~back.infinite], tr.values[~tr.infinite])
        assert np.array_equal(back.infinite, tr.infinite)

    def test_resolution_gap(self):
        emb = TRACE1.embedded()
        gaps = np.linalg.norm(np.diff(emb, axis=0, append=emb[:1]), axis=1)
        assert TRACE1.closed and np.max(gaps) < 0.35

    def test_infinite_samples_round_trip_and_embed(self):
        t = np.array([0.0, 1.0, 2.0])
        vals = np.array([1.0 + 0j, complex(np.inf, 0.0), -1.0 + 0j])
        tr = CurveTrace(t, vals)
        assert list(tr.infinite) == [False, True, False]
        back = CurveTrace.from_csv(tr.to_csv())
        assert list(back.infinite) == [False, True, False]
        emb = tr.embedded()
        assert np.allclose(emb[1], [0.0, 0.0, 1.0])   # north pole

    def test_invariance_through_the_point_at_infinity(self):
        # 1/z swaps 0 and infinity; the extended real axis is invariant
        f = RationalMap([1], [0, 1])
        t = np.linspace(-8, 8, 401)
        vals = np.tan(t / 16.0 * np.pi / 2 * 1.999).astype(complex)
        vals[0] = vals[-1] = complex(np.inf, 0.0)   # close up through infinity
        tr = CurveTrace(t, vals)
        assert invariance_residual(f, tr) < 2e-3  # polyline resolution bound


class TestTraceWpLine:
    def test_example_line_is_closed_and_finite(self):
        assert TRACE1.closed
        assert not np.any(TRACE1.infinite)

    def test_half_period_offset_is_real_line_piece(self):
        tr = trace_wp_line(INV1, SQUARE.g2 / 2.0, n=256)
        vals = tr.finite_values
        assert np.max(np.abs(vals.imag)) <= 1e-9 * np.max(np.abs(vals))
        report = circle_fit(tr)
        # a, the x^2+y^2 coefficient, vanishes for a line
        assert abs(report.coefficients[0]) < 1e-8

    def test_reversed_range_reverses_order(self):
        fwd = trace_wp_line(INV1, OFFSET1, t_range=(0.25, 0.75), n=64)
        rev = trace_wp_line(INV1, OFFSET1, t_range=(0.75, 0.25), n=64)
        assert np.allclose(rev.values, fwd.values[::-1])

    def test_lattice_offset_rejected(self):
        with pytest.raises(ValueError):
            trace_wp_line(INV1, 0.0)

    def test_real_axis_offset_rejected(self):
        # a real offset shifts along the line itself: still pole-ridden
        with pytest.raises(ValueError):
            trace_wp_line(INV1, 0.5)


class TestInvarianceResidual:
    def test_example_curve_under_its_map(self):
        assert invariance_residual(SYS1.map, TRACE1) <= 1e-7

    def test_parametric_form(self):
        res = curves.parametric_wp_invariance_residual(INV1, SYS1.map, OFFSET1)
        assert res <= 1e-7

    def test_square_on_unit_circle(self):
        f = RationalMap([0, 0, 1])
        assert invariance_residual(f, circle_trace(n=512)) <= 1e-10

    def test_square_on_radius_two_circle_is_not_invariant(self):
        f = RationalMap([0, 0, 1])
        assert invariance_residual(f, circle_trace(radius=2.0, n=512)) > 0.3

    def test_invariant_under_f_implies_f_squared(self):
        f2 = iterate(SYS1.map, 2)
        assert invariance_residual(f2, TRACE1) <= 2e-7
        sq = RationalMap([0, 0, 1])
        assert invariance_residual(iterate(sq, 2), circle_trace(n=512)) <= 2e-10


@st.composite
def polyline_queries(draw):
    """Random open or closed traces, some vertices infinite or repeated
    (zero-length segments), with points on, within 1e-9 of, and far from
    the polyline."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 120))
    z = np.cumsum(draw(st.sampled_from([1e-3, 0.1, 1.0, 30.0]))
                  * (rng.normal(size=n) + 1j * rng.normal(size=n)))
    for i in np.nonzero(rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.2])))[0]:
        z[i] = z[i - 1]
    z[rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.1]))] = np.inf
    trace = CurveTrace(np.arange(n, dtype=float), z, closed=draw(st.booleans()))
    a, b = curves._segments(trace.embedded(), trace.closed)
    m = draw(st.integers(1, 60))
    k = rng.integers(len(a), size=m)
    t = np.clip(rng.uniform(-0.5, 1.5, size=m), 0.0, 1.0)
    on = a[k] + t[:, None] * (b[k] - a[k])
    kick = rng.normal(size=(m, 3))
    near = on + 1e-9 * kick / np.linalg.norm(kick, axis=1)[:, None]
    far = embed_points(rng.normal(size=m) + 1j * rng.normal(size=m))
    return np.vstack([on, near, far]), trace


class TestPolylineDistance:
    @given(case=polyline_queries(), chunk=st.sampled_from([1, 7, 1 << 16]))
    def test_equals_dense_oracle(self, case, chunk):
        points, trace = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(curves, "SWEEP_CHUNK", chunk)
            got = curves.points_to_polyline_distance(points, trace)
        assert np.array_equal(got, dense_polyline_distance(points, trace))

    def test_invariance_images_equal_dense_oracle(self):
        ex = pakovich_example(3, n_samples=2001)
        idx = np.arange(len(ex.trace) // 3, 2 * len(ex.trace) // 3, 3)
        for f, trace, sample in ((SYS1.map, TRACE1, TRACE1.values),
                                 (ex.map, ex.trace, ex.trace.values[idx])):
            images = embed_points(f.eval_array(sample))
            assert np.array_equal(curves.points_to_polyline_distance(images, trace),
                                  dense_polyline_distance(images, trace))


class TestCircleFit:
    def test_unit_circle(self):
        report = circle_fit(circle_trace())
        assert report.residual <= 1e-12
        assert is_circle(report)
        c = report.coefficients
        direction = np.array([1, 0, 0, -1]) / np.sqrt(2)
        overlap = abs(np.vdot(direction, c))
        assert overlap > 1 - 1e-10

    def test_real_axis_is_a_line(self):
        t = np.linspace(-3, 3, 64)
        report = circle_fit(CurveTrace(t, t.astype(complex)))
        assert abs(report.coefficients[0]) < 1e-12      # no x^2+y^2 part
        assert abs(report.coefficients[2]) > 0.9        # essentially y = 0

    def test_example_curve_is_not_a_circle(self):
        report = circle_fit(TRACE1)
        assert report.residual > 1e-3
        assert not is_circle(report)

    def test_rotation_invariance(self):
        r0 = circle_fit(circle_trace()).residual
        r1 = circle_fit(circle_trace(rot=0.7)).residual
        assert abs(r0 - r1) <= 1e-10

    @pytest.mark.parametrize("k", [-12, -8, *range(-3, 4), 6, 12])
    def test_lattice_scale_does_not_change_verdict_or_residual(self, k):
        s = 10.0 ** k
        lat = Lattice(2.0 * s, 2j * s)
        report = circle_fit(trace_wp_line(invariants_from_lattice(lat), lat.g2 / 3.0, n=256))
        unscaled = circle_fit(trace_wp_line(INV1, OFFSET1, n=256))
        assert not is_circle(report)
        assert report.residual == pytest.approx(unscaled.residual, rel=1e-12)
        # a circle off the origin stays a circle at every scale
        th = np.linspace(0, 2 * np.pi, 257)[:-1]
        assert is_circle(circle_fit(CurveTrace(th, s * (3 + np.exp(1j * th)), closed=True)))


class TestAlgebraicFit:
    def test_unit_circle_degree_two(self):
        report = algebraic_fit(circle_trace(), 2)
        assert report.residual <= 1e-12

    def test_example_curve_passes_by_degree_eight(self):
        results = {d: algebraic_fit(TRACE1, d).residual for d in range(2, 9)}
        assert min(results.values()) <= 1e-6
        assert results[4] <= 1e-6      # the relation appears at degree 4

    def test_hyperbola_degree_two(self):
        from invarcurves.semiconj import pakovich_example
        ex = pakovich_example(3, n_samples=2001)
        report = algebraic_fit(ex.trace, 2)
        assert report.residual <= 1e-10

    def test_undersampled_rejected(self):
        with pytest.raises(ValueError):
            algebraic_fit(circle_trace(n=30), 4)

    def test_shuffle_and_duplicates_do_not_change_fit(self):
        tr = TRACE1
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(tr))
        shuffled = CurveTrace(np.arange(len(tr), dtype=float), tr.values[perm],
                              closed=False)
        doubled = CurveTrace(
            np.arange(2 * len(tr), dtype=float),
            np.concatenate([tr.values, tr.values[perm]]), closed=False)
        base = algebraic_fit(tr, 4)
        for other in (algebraic_fit(shuffled, 4), algebraic_fit(doubled, 4)):
            assert abs(other.smallest_singular_value
                       - base.smallest_singular_value) <= 1e-10


class TestDedupe:
    @given(k=st.integers(-300, 300))
    def test_power_of_two_scale_keeps_the_sample_set(self, k):
        # keys live in the normalised frame, so scaling the curve by an
        # exact factor scales the canonical set and keeps its order
        pts = np.concatenate([TRACE1.values, TRACE1.values[::7] * (1 + 1e-15)])
        s = math.ldexp(1.0, k)
        assert np.array_equal(curves._dedupe_sorted(s * pts), s * curves._dedupe_sorted(pts))

    def test_coincident_points_keep_one(self):
        assert len(curves._dedupe_sorted(np.full(5, 3.0 + 0.5j))) == 1


class TestTranscendenceScan:
    def test_skew_curve_admits_low_degree_approximants(self):
        # the provably transcendental curve is still approximated far below
        # any practical threshold: the scan reports that honestly
        scan = transcendence_scan(TRACE2, 6)
        assert not scan.transcendence_evidence
        assert scan.reports[3].residual < 1e-3   # degree 4 approximant

    @pytest.mark.parametrize("d_max", [0, -1])
    def test_scan_over_no_degree_is_refused(self, d_max):
        # all() of no fits would read as transcendence evidence
        with pytest.raises(ValueError, match="d_max"):
            transcendence_scan(TRACE1, d_max)

    def test_algebraic_control_passes(self):
        scan = transcendence_scan(TRACE1, 8)
        assert scan.first_passing_degree == 4

    def test_circle_control(self):
        scan = transcendence_scan(circle_trace(), 3)
        assert scan.first_passing_degree == 2

    def test_verdict_stable_under_doubling(self):
        dense = trace_wp_line(INV2, OFFSET2, n=1200)
        s1 = transcendence_scan(TRACE2, 6)
        s2 = transcendence_scan(dense, 6)
        assert s1.transcendence_evidence == s2.transcendence_evidence
        for r1, r2 in zip(s1.reports, s2.reports):
            # a max-over-held-out statistic grows with sampling density, so
            # per-degree residuals are only factor-2 stable; the verdict and
            # the threshold side of every degree must not move
            assert (r1.residual < 1e-3) == (r2.residual < 1e-3) or \
                min(r1.residual, r2.residual) < 1e-6
            ratio = max(r1.residual, r2.residual) / max(min(r1.residual,
                                                            r2.residual), 1e-300)
            assert ratio <= 2.0 or max(r1.residual, r2.residual) < 1e-6


class TestCommensurability:
    def test_identity(self):
        v = lattice_commensurability(SQUARE, SQUARE)
        assert v.commensurable and str(v) == "COMMENSURABLE"

    def test_rational_scaling(self):
        v = lattice_commensurability(SQUARE, Lattice(3.0, 3j))
        assert v.commensurable

    def test_conjugate_skew_lattices(self):
        v = lattice_commensurability(Lattice(1, math.sqrt(2) + 1j),
                                     Lattice(1, math.sqrt(2) - 1j), q_max=1000)
        assert not v.commensurable
        assert str(v) == "INCOMMENSURABLE-UP-TO(1000)"
        coords = sorted(v.coordinates.T.ravel().tolist())
        # hand-derived: conj(tau) = 2 sqrt(2) * 1 + (-1) * tau
        assert abs(coords[0] + 1) < 1e-12
        assert abs(coords[-1] - 2 * math.sqrt(2)) < 1e-12


class TestReflectionXY:
    def test_example_lattice(self):
        report = example1_xy_check(INV1, OFFSET1)
        assert report.on_line_residual <= 1e-10
        assert report.periodicity_residual <= 1e-8
        assert abs(report.off_line_y) > 1e-3   # off L, Y is not Im(wp)

    def test_non_rectangular_rejected(self):
        with pytest.raises(ValueError):
            example1_xy_check(INV2, OFFSET2)

    def test_residuals_do_not_depend_on_lattice_scale(self):
        # samples at fixed fractions of the periods, residuals relative to
        # the wp scale: the same small figures from 1e-20 to 1e20 (no nan,
        # no warning), and the same bits under powers of two
        reports = {}
        for omega in [10.0 ** k for k in range(-20, 21)] + [0.5, 2.0]:
            lat = Lattice(2.0 * omega, 2j * omega)
            r = example1_xy_check(invariants_from_lattice(lat), lat.g2 / 3.0)
            assert r.on_line_residual <= 1e-13, omega
            assert r.periodicity_residual <= 1e-13, omega
            # Y off L scales like wp, as omega^-2
            assert abs(r.off_line_y * omega ** 2 - (0.2597427231863211 - 1.016989965353381j)) \
                <= 1e-12, omega
            reports[omega] = r
        for omega in (0.5, 2.0):
            r, r1 = reports[omega], reports[1.0]
            assert r.on_line_residual == r1.on_line_residual
            assert r.periodicity_residual == r1.periodicity_residual
            assert r.off_line_y * omega ** 2 == r1.off_line_y


class TestSvg:
    def test_well_formed_and_deterministic(self):
        fit = circle_fit(circle_trace())
        svg1 = trace_svg(circle_trace(), fit, fixed_points=[1.0 + 0j])
        svg2 = trace_svg(circle_trace(), fit, fixed_points=[1.0 + 0j])
        assert svg1 == svg2
        root = ET.fromstring(svg1)
        assert root.tag.endswith("svg")
