import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from invarcurves import elliptic, geometry, lattes, poincare
from invarcurves.geometry import CurveTrace
from invarcurves.rational import (_HUGE, Polynomial, RationalMap, chordal, compose,
                                  fixed_points, REPELLING)

from conftest import (EDGE_VALUES, INF, coefficient_error, evaluate_rounding_bound,
                      is_infinite, mp_linearizer_coefficients, quadratic_injectivity_check,
                      random_rational_map, recomposition_coefficients, scalar_evaluate,
                      sphere_values)

SQUARE = RationalMap([0, 0, 1])          # linearizer at 1 is exp
SHIFTED = RationalMap([-2, 0, 1])        # linearizer at 2 is 2 cosh(sqrt z)
NEAR_NEUTRAL = RationalMap([0, 1.001, -1])   # multiplier 1.001 at 0
EXP = poincare.solve_coefficients(SQUARE, 1.0, order=40)


def cosh_oracle(t):
    """2 cosh(sqrt t) continued through negative t as 2 cos(sqrt -t)."""
    return 2 * math.cosh(math.sqrt(t)) if t >= 0 else 2 * math.cos(math.sqrt(-t))


class TestSolve:
    def test_golden_exponential(self):
        F = poincare.solve_coefficients(SQUARE, 1.0, order=20)
        for k in range(1, 21):
            assert abs(F.coefficients[k] * math.factorial(k) - 1) < 1e-12
        assert F.coefficients[0] == 1.0

    def test_golden_cosh(self):
        F = poincare.solve_coefficients(SHIFTED, 2.0, order=15)
        assert abs(F.multiplier - 4) < 1e-12
        for k in range(1, 16):
            assert abs(F.coefficients[k] * math.factorial(2 * k) / 2 - 1) < 1e-12

    def test_constant_term_is_fixed_point(self, rng):
        f = random_rational_map(rng, 2)
        for fp in fixed_points(f):
            if fp.kind == REPELLING and not is_infinite(fp.location):
                F = poincare.solve_coefficients(f, fp.location, order=12)
                assert F.coefficients[0] == fp.location
                break

    def test_order_stability(self):
        big = poincare.solve_coefficients(SHIFTED, 2.0, order=40)
        small = poincare.solve_coefficients(SHIFTED, 2.0, order=20)
        assert np.array_equal(big.coefficients[:21], small.coefficients)

    def test_small_radius_of_convergence(self):
        # a real Moebius conjugate of z^2 whose linearizer has a small radius:
        # the higher coefficients grow like rho^-k, the series denominator
        # keeps a healthy constant term
        f = RationalMap([0.3046875, -0.8203125, 0.669921875],
                        [1.01171875, -2.48828125, 1.6748046875])
        rng = np.random.default_rng(3)
        for order in (30, 60, 120):
            F = poincare.solve_coefficients(f, 0.7428571428571429, order=order)
            zs = F.eval_radius * 8 * rng.uniform(0.05, 1.0, 100) \
                * np.exp(2j * np.pi * rng.uniform(size=100))
            assert poincare.functional_equation_residual(F, zs) <= 1e-12

    def test_high_order_has_no_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F = poincare.solve_coefficients(SQUARE, 1.0, order=400)
        assert F.eval_radius > 0

    def test_overflowing_multiplier_power_is_named(self):
        # 1000^k overflows at k = 103: named as such, with no RuntimeWarning
        f = RationalMap([0, 1000])
        assert len(poincare.solve_coefficients(f, 0.0, order=100).coefficients) == 101
        with pytest.raises(ArithmeticError, match="overflows"):
            poincare.solve_coefficients(f, 0.0, order=120)

    def test_rejects_non_fixed(self):
        with pytest.raises(ValueError, match="fixed"):
            poincare.solve_coefficients(SQUARE, 0.5)

    def test_rejects_non_repelling(self):
        with pytest.raises(ValueError, match="repelling"):
            poincare.solve_coefficients(SQUARE, 0.0)

    def test_rejects_infinity(self):
        with pytest.raises(ValueError, match="conjugate"):
            poincare.solve_coefficients(SQUARE, INF)


def moebius_conjugate_of_z4():
    """M o z^4 o M^-1 for M(z) = (z + 0.5) / (0.3 z + 1), and M(1), its fixed
    point with multiplier 4; the double coefficients round the conjugate."""
    m, m_inv = RationalMap([0.5, 1], [1, 0.3]), RationalMap([-0.5, 1], [1, -0.3])
    return compose(m, compose(RationalMap([0, 0, 0, 0, 1]), m_inv)), m(1.0)


# (map, fixed point, order): order 120, but 60 for the cosh linearizer,
# whose coefficients 2 / (2k)! underflow past order 85
ORACLE_CASES = {
    "cosh": (SHIFTED, 2.0, 60),
    "small-radius moebius": (RationalMap([0.3046875, -0.8203125, 0.669921875],
                                         [1.01171875, -2.48828125, 1.6748046875]),
                             0.7428571428571429, 120),
    "degree-4 moebius": (*moebius_conjugate_of_z4(), 120),
    # z^2 - 0.5 + i fixes 1.5 - 0.5i exactly, with multiplier 3 - i
    "complex multiplier": (RationalMap([-0.5 + 1j, 0, 1]), 1.5 - 0.5j, 120),
}


class TestCoefficientOracles:
    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_within_mpmath_oracle(self, name):
        # relative to the Newton-polygon envelope of the coefficients; the
        # recomposition solve reads 3.9e-15, 2.2e-12, 1.9e-12 and 1.0e-14
        # on these cases, this solve 1.7e-15, 3.8e-12, 1.4e-12 and 1.0e-14
        f, a, order = ORACLE_CASES[name]
        c = poincare.solve_coefficients(f, a, order).coefficients
        assert coefficient_error(c, mp_linearizer_coefficients(f, a, order)) <= 1e-11

    @given(seed=st.integers(0, 2 ** 32 - 1), degree=st.integers(2, 4))
    def test_agrees_with_recomposition(self, seed, degree):
        rng = np.random.default_rng(seed)
        f = random_rational_map(rng, degree)
        points = [p.location for p in fixed_points(f)
                  if p.kind == REPELLING and not is_infinite(p.location)]
        assume(points)
        # a fixed point to double precision: at one that is fixed only to
        # the root finder's 1e-10, the coefficient equations disagree at
        # that level and any two solves part by as much
        a, h = points[0], f.num - Polynomial([0, 1]) * f.den
        for _ in range(3):
            a -= h(a) / h.derivative()(a)
        try:
            c = poincare.solve_coefficients(f, a, order=40).coefficients
        except (ValueError, ArithmeticError):
            assume(False)
        assert coefficient_error(c, recomposition_coefficients(f, a, 40)) <= 1e-10


class TestEvaluate:
    def test_log_two_lands_on_two(self):
        F = poincare.solve_coefficients(SQUARE, 1.0, order=40)
        v = poincare.evaluate(F, math.log(2.0))
        assert chordal(v, 2.0) < 1e-9

    def test_zero_is_fixed_point(self):
        F = poincare.solve_coefficients(SHIFTED, 2.0, order=20)
        assert poincare.evaluate(F, 0.0) == 2.0

    def test_defining_identity_on_reals(self):
        F = poincare.solve_coefficients(SHIFTED, 2.0, order=40)
        for t in np.linspace(-3, 3, 11):
            lhs = SHIFTED(poincare.evaluate(F, t))
            rhs = poincare.evaluate(F, 4.0 * t)
            assert chordal(lhs, rhs) < 1e-9

    def test_matches_cosh_oracle(self):
        F = poincare.solve_coefficients(SHIFTED, 2.0, order=40)
        for t in np.linspace(-30, 8, 25):
            assert chordal(poincare.evaluate(F, t), cosh_oracle(t)) < 1e-8

    # the finite edge values: a point with an infinite or nan part is no
    # point of C (see test_rejects_points_that_are_not_finite)
    @settings(max_examples=20)   # 1e200 takes ~660 pull-back steps
    @given(zs=sphere_values([e for e in EDGE_VALUES if cmath.isfinite(e)], max_size=6))
    def test_scalar_is_a_plain_complex(self, zs):
        for z in zs:
            v = poincare.evaluate(EXP, z)
            assert type(v) is complex and (v == INF or abs(v) <= _HUGE)   # never nan
            assert v == poincare.evaluate(EXP, np.array([z]))[0]

    @pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(math.nan, 0.0),
                                   complex(0.0, -math.inf), complex(1.0, math.nan)])
    def test_rejects_points_that_are_not_finite(self, z):
        # F has no value at infinity of its domain; nan used to climb to inf
        with pytest.raises(ValueError, match="not finite"):
            poincare.evaluate(EXP, z)
        with pytest.raises(ValueError, match="not finite"):
            poincare.evaluate(EXP, [1.0, z])

    def test_near_neutral_within_pullback_cap(self):
        # 6 793 pull-back steps, below the cap
        F = poincare.solve_coefficients(NEAR_NEUTRAL, 0.0)
        v = poincare.evaluate(F, 0.5)
        assert abs(v - 0.0009980163425301024) <= 1e-13 * 0.000998

    def test_near_neutral_beyond_pullback_cap_raises(self):
        # F(10) ~ 1e-3, but reaching the working disc takes more than
        # MAX_PULLBACK steps; the series must not be summed outside it
        F = poincare.solve_coefficients(NEAR_NEUTRAL, 0.0)
        with pytest.raises(ArithmeticError, match="pull-back"):
            poincare.evaluate(F, 10.0)
        with pytest.raises(ArithmeticError, match="pull-back"):
            poincare.functional_equation_residual(F, [10, 100, 30j])


LINEARIZERS = {
    "exp": poincare.solve_coefficients(SQUARE, 1.0, order=40),
    "cosh": poincare.solve_coefficients(SHIFTED, 2.0, order=40),
    "moebius": poincare.solve_coefficients(
        RationalMap([0.3046875, -0.8203125, 0.669921875],
                    [1.01171875, -2.48828125, 1.6748046875]), 0.7428571428571429, order=60),
    # multiplier 3.3: pull-back divisions round
    "cubic": poincare.solve_coefficients(RationalMap([0, 3.3, 0, -1]), 0.0, order=60),
}
complex_points = st.builds(
    lambda r, th: r * complex(math.cos(th), math.sin(th)),
    st.floats(0.0, 200.0), st.floats(0.0, 2 * math.pi))


class TestArrayEvaluateProperties:
    @given(name=st.sampled_from(sorted(LINEARIZERS)),
           zs=st.lists(complex_points, min_size=1, max_size=40))
    def test_array_agrees_with_scalar(self, name, zs):
        # one masked call over points of mixed pull-back depth gives what
        # the scalar evaluation gives point by point
        F = LINEARIZERS[name]
        values = poincare.evaluate(F, np.array(zs))
        assert values.shape == (len(zs),)
        for z, v in zip(zs, values):
            assert chordal(v, poincare.evaluate(F, z)) <= 4 * np.finfo(float).eps

    @given(name=st.sampled_from(sorted(LINEARIZERS)),
           zs=st.lists(complex_points, min_size=1, max_size=10))
    def test_agrees_with_scalar_loop(self, name, zs):
        # the masked pull-back/push-forward against the per-point loop of
        # Python divisions and RationalMap.__call__ steps: the two round
        # apart by a few ulps a step, which the repelling chain amplifies
        F = LINEARIZERS[name]
        values = poincare.evaluate(F, np.array(zs))
        for z, v in zip(zs, values):
            assert chordal(v, scalar_evaluate(F, z)[0]) <= evaluate_rounding_bound(F, z)


class TestFunctionalEquationResidual:
    def test_far_field_random_maps(self, rng):
        checked = 0
        attempts = 0
        while checked < 8 and attempts < 200:
            attempts += 1
            f = random_rational_map(rng, int(rng.integers(2, 4)))
            target = None
            try:
                for fp in fixed_points(f):
                    if fp.kind == REPELLING and not is_infinite(fp.location):
                        target = fp
                        break
            except Exception:
                continue
            if target is None:
                continue
            F = poincare.solve_coefficients(f, target.location, order=40)
            rho = F.radius_estimate
            zs = rho * 8 * rng.uniform(0.125, 1.0, 50) \
                * np.exp(2j * np.pi * rng.uniform(size=50))
            assert poincare.functional_equation_residual(F, zs) <= 1e-8
            checked += 1
        assert checked == 8

    @pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(math.nan, 0.0),
                                   complex(0.0, -math.inf), complex(1.0, math.nan)])
    def test_rejects_points_that_are_not_finite(self, z):
        # rejected before lambda z is formed, so with no RuntimeWarning
        with pytest.raises(ValueError, match="not finite"):
            poincare.functional_equation_residual(EXP, [1.0, z])

    def test_overflowing_lambda_z_raises_value_error(self):
        # lambda z = 4e308 leaves the floats; the suite's filterwarnings makes
        # a RuntimeWarning on the way an error, so this also shows there is none
        F = poincare.solve_coefficients(SHIFTED, 2.0, order=20)
        with pytest.raises(ValueError, match="overflows"):
            poincare.functional_equation_residual(F, [1e308])

    def test_lattes_linearizer(self):
        inv = elliptic.invariants_from_lattice(elliptic.Lattice(2.0, 2j))
        f = lattes.lattes_from_invariants(inv).map
        a = inv.wp(2.0 / 3.0)         # a fixed point on the real axis
        F = poincare.solve_coefficients(f, a, order=40)
        assert abs(F.multiplier + 2.0) < 1e-9   # doubling reverses 3-torsion
        zs = F.radius_estimate * np.exp(2j * np.pi * np.arange(40) / 40)
        assert poincare.functional_equation_residual(F, zs) <= 1e-8

    def test_ten_radii_out(self, rng):
        # defining identity holds an order of magnitude beyond the radius
        # estimate for every construction the suite leans on
        inv = elliptic.invariants_from_lattice(elliptic.Lattice(2.0, 2j))
        cases = [(SQUARE, 1.0), (SHIFTED, 2.0),
                 (lattes.lattes_from_invariants(inv).map, inv.wp(2.0 / 3.0))]
        for f, a in cases:
            F = poincare.solve_coefficients(f, a, order=40)
            zs = 10 * F.radius_estimate * rng.uniform(0.01, 1.0, 200) \
                * np.exp(2j * np.pi * rng.uniform(size=200))
            assert poincare.functional_equation_residual(F, zs) <= 1e-8


class TestTraceRealAxis:
    def test_exponential_image_positive_axis(self):
        F = poincare.solve_coefficients(SQUARE, 1.0, order=40)
        tr = poincare.trace_real_axis(F, 5.0, 301)
        vals = tr.values[~tr.infinite]
        assert np.max(np.abs(vals.imag)) <= 1e-9
        assert np.all(vals.real > 0)
        mid = tr.values[len(tr) // 2]
        assert abs(mid - 1.0) < 1e-12      # t = 0 sample is the fixed point

    def test_cosh_image_on_ray(self):
        F = poincare.solve_coefficients(SHIFTED, 2.0, order=40)
        tr = poincare.trace_real_axis(F, 9.0, 271)
        for t, v in zip(tr.params, tr.values):
            if t >= 0:
                assert v.real >= 2.0 - 1e-9
            assert abs(v - cosh_oracle(t)) < 1e-8

    def test_negative_multiplier_tags_second_iterate(self):
        inv = elliptic.invariants_from_lattice(elliptic.Lattice(2.0, 2j))
        f = lattes.lattes_from_invariants(inv).map
        F = poincare.solve_coefficients(f, inv.wp(2.0 / 3.0), order=30)
        tr = poincare.trace_real_axis(F, 1.0, 101)
        assert "second iterate" in tr.source

    def test_complex_multiplier_rejected(self):
        f = RationalMap([0.3j, 0, 1])     # z^2 + 0.3i has non-real multipliers
        fp = next(p for p in fixed_points(f) if p.kind == REPELLING)
        F = poincare.solve_coefficients(f, fp.location, order=10)
        with pytest.raises(ValueError, match="real"):
            poincare.trace_real_axis(F, 1.0, 11)


class TestInjectivity:
    def test_exponential_is_injective(self):
        F = poincare.solve_coefficients(SQUARE, 1.0, order=40)
        tr = poincare.trace_real_axis(F, 20.0, 1501)
        assert poincare.injectivity_check(tr) == []

    def test_cosh_retraces_itself(self):
        F = poincare.solve_coefficients(SHIFTED, 2.0, order=40)
        tr = poincare.trace_real_axis(F, 45.0, 2001)
        crossings = poincare.injectivity_check(tr)
        assert crossings
        h = tr.params[1] - tr.params[0]
        for c in crossings[:5]:
            # parameters address segment starts; the oracle (real-valued
            # here) must show the two parameter segments share a value
            i1 = sorted((cosh_oracle(c.s), cosh_oracle(c.s + h)))
            i2 = sorted((cosh_oracle(c.t), cosh_oracle(c.t + h)))
            assert max(i1[0], i2[0]) <= min(i1[1], i2[1]) + 1e-9

    def test_circle_traversed_once_is_clean(self):
        th = np.linspace(0, 2 * np.pi, 513)[:-1]
        tr = CurveTrace(th, np.exp(1j * th), closed=True)
        assert poincare.injectivity_check(tr) == []

    @pytest.mark.parametrize("phase", ["node-on-closing-segment", "node-at-sample"])
    def test_closed_trace_scans_closing_segment(self, phase):
        # Gerono lemniscate 0.5 (cos t + i sin t cos t): one node, at the
        # origin, passed at t = pi/2 and t = 3pi/2
        n = 400
        h = 2 * np.pi / n
        t0 = np.pi / 2 + h / 2 if phase == "node-on-closing-segment" else 0.0
        t = t0 + h * np.arange(n)
        tr = CurveTrace(t, 0.5 * (np.cos(t) + 1j * np.sin(t) * np.cos(t)), closed=True)
        crossings = poincare.injectivity_check(tr)
        assert len(crossings) == 1
        c = crossings[0]
        assert abs(c.point) <= h       # midpoint of a segment through the node
        for u, node in ((c.s, np.pi / 2), (c.t, 3 * np.pi / 2)):
            assert min(abs(u - node), abs(u - node - np.pi), abs(u - node - 2 * np.pi),
                       abs(u - node + np.pi)) <= 1.5 * h


@st.composite
def polylines(draw):
    """Random open or closed polylines with pairs of far-apart vertices
    planted at chordal distance tol (1 +- 1e-3), some infinite samples."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(12, 160))
    tol = draw(st.sampled_from([1e-6, 1e-4, 1e-2]))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 30.0]))
    z = np.cumsum(scale * (rng.normal(size=n) + 1j * rng.normal(size=n)))
    for _ in range(draw(st.integers(0, 4))):
        i, j = sorted(rng.choice(n, 2, replace=False))
        target = tol * (1 + rng.choice([-1e-3, 1e-3]))
        u = np.exp(2j * np.pi * rng.uniform())
        r = target * (1 + abs(z[i]) ** 2) / 2
        for _ in range(3):
            r *= target / chordal(z[i], z[i] + r * u)
        z[j] = z[i] + r * u
    z[rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.05]))] = np.inf
    params = np.cumsum(rng.uniform(0.5, 1.5, n))
    return (CurveTrace(params, z, closed=draw(st.booleans())), tol,
            draw(st.sampled_from([1, 3, 10])))


class TestScanMatchesQuadraticOracle:
    @given(case=polylines(), chunk=st.sampled_from([1, 7, 1 << 16]))
    def test_same_crossing_list(self, case, chunk):
        trace, tol, m = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "SWEEP_CHUNK", chunk)
            got = poincare.injectivity_check(trace, tol_cross=tol, min_separation_steps=m)
        assert got == quadratic_injectivity_check(trace, tol_cross=tol,
                                                  min_separation_steps=m)

    def test_excursion_through_infinity(self):
        # the curve jumps between 0 and infinity, so its excursions lie in
        # the third sphere coordinate alone
        values = np.zeros(40, dtype=complex)
        values[15:25] = np.inf
        trace = CurveTrace(np.arange(40.0), values)
        got = poincare.injectivity_check(trace)
        assert got and got == quadratic_injectivity_check(trace)

    def test_long_runs_at_one_point(self):
        # exp over [-1000, 1000]: a third of the samples overflow to infinity
        # and a third lie within 1e-150 of 0, so every two segments inside
        # one run are 0 apart, ~1.7e4 near pairs, none of them a crossing
        F = poincare.solve_coefficients(SQUARE, 1.0, order=40)
        trace = poincare.trace_real_axis(F, 1000.0, 401)
        assert trace.infinite.sum() == 131
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "SWEEP_CHUNK", 2048)
            tracemalloc.start()
            try:
                got = poincare.injectivity_check(trace)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert got == quadratic_injectivity_check(trace) == []
        # memory O(n + chunk): the near pairs are filtered chunk by chunk;
        # collecting them all first peaks at 27 MB here
        assert peak < 8e6

    # the cosh linearizer retraces the real segment [-2, 2]: each crossing
    # comes with hundreds of near pairs at distance 0 and an excursion
    @pytest.mark.parametrize("t_max, count", [(20.0, 42), (100.0, 125)])
    def test_retraced_cosh_trace(self, t_max, count):
        F = poincare.solve_coefficients(SHIFTED, 2.0, order=40)
        trace = poincare.trace_real_axis(F, t_max, 2001)
        got = poincare.injectivity_check(trace)
        assert len(got) == count
        assert got == quadratic_injectivity_check(trace)

    @pytest.mark.parametrize("outside", [False, True])
    def test_excursion_vertex_at_the_threshold(self, outside):
        # segments 0 and 6 cross at 0; the run between them stays 8.5e-4
        # from the meeting point but for vertex 2, on the real axis at x,
        # whose rounded distance steps across EXCURSION between two floats
        a = 1e-5

        def trace(x):
            z = [-a, a, x, 3e-4 + 3e-4j, -2e-4 + 2e-4j, -2e-4 - 2e-4j, -1j * a, 1j * a]
            return CurveTrace(np.arange(8.0), np.array(z))

        def excursion(x):
            emb = trace(x).embedded()
            _, p1, _ = geometry.segment_pair_distance(emb[0:1], emb[1:2], emb[6:7], emb[7:8])
            return np.linalg.norm(emb[2:3] - p1, axis=1)[0]     # rounded as the oracle

        lo, hi = 4e-4, 6e-4
        while lo < (mid := lo + (hi - lo) / 2) < hi:
            lo, hi = (mid, hi) if excursion(mid) < poincare.EXCURSION else (lo, mid)
        x = hi if outside else lo
        assert (excursion(x) >= poincare.EXCURSION) == outside
        assert abs(excursion(x) - poincare.EXCURSION) <= 4 * np.spacing(poincare.EXCURSION)
        got = poincare.injectivity_check(trace(x), min_separation_steps=3)
        assert len(got) == outside
        assert got == quadratic_injectivity_check(trace(x), min_separation_steps=3)

    def test_excursion_scan_is_not_cubic(self, monkeypatch):
        # exp over [-1000, 1000]: runs of L ~ n / 3 samples at 0 and at
        # infinity hold ~L^2 near pairs.  Scanning each pair's run, as the
        # quadratic oracle does, measures ~L^3 / 6 vertices; the box table
        # measures at most n log n
        far_vertices, scanned = geometry._far_vertices, []

        def counted(v, p, r):
            scanned[-1] += v.shape[1]
            return far_vertices(v, p, r)

        monkeypatch.setattr(geometry, "_far_vertices", counted)
        for n in (1001, 2001, 4001):
            trace = poincare.trace_real_axis(EXP, 1000.0, n)
            scanned.append(0)
            assert poincare.injectivity_check(trace) == []
            assert scanned[-1] <= n * math.log2(n)
        # there the runs fit in boxes below EXCURSION, so no pair reaches
        # any_far.  k petals, circles of radius 1/4 through 0, pass through 0
        # k + 1 times, 64 samples apart (and cross each other once more): the
        # run between passes p and q, p + q even, has its middle vertex at
        # the meeting point 0, so the table descent decides it by its petals.
        # Scanning those runs would measure ~k^2 n / 4 vertices (65,859 at
        # k = 16, against 929 near pairs)
        t = 2 * np.pi * np.arange(64) / 64
        for k in (16, 32, 64):
            z = np.concatenate([0.25 * np.exp(2j * np.pi * j / k) * (1 - np.exp(1j * t))
                                for j in range(k)] + [[0]])
            trace = CurveTrace(np.arange(len(z), dtype=float), z)
            n = len(trace)
            scanned.append(0)
            got = poincare.injectivity_check(trace)
            assert 0 < scanned[-1] <= n * math.log2(n)
            if k == 16:
                assert got and got == quadratic_injectivity_check(trace)


class TestMultiplierRealness:
    def test_square_on_unit_circle(self):
        # z = 1, multiplier 2, is the one repelling fixed point on the circle
        th = np.linspace(0, 2 * np.pi, 257)[:-1]
        tr = CurveTrace(th, np.exp(1j * th), closed=True)
        assert poincare.multiplier_real_check(SQUARE, tr) is True

    def test_lattes_curve_multipliers_real(self):
        inv = elliptic.invariants_from_lattice(elliptic.Lattice(2.0, 2j))
        system = lattes.lattes_from_invariants(inv)
        from invarcurves.curves import trace_wp_line
        tr = trace_wp_line(inv, inv.lattice.g2 / 3.0, n=512)
        # not vacuous: three repelling fixed points lie within 0.05 of a sample
        near = [p for p in fixed_points(system.map) if p.kind == REPELLING
                and min(chordal(v, p.location) for v in tr.values) <= 0.05]
        assert len(near) >= 3
        assert poincare.multiplier_real_check(system.map, tr) is True

    def test_faraway_nonreal_multiplier_not_flagged(self):
        f = RationalMap([0.3j, 0, 1])
        assert any(abs(p.multiplier.imag) > 0.1 for p in fixed_points(f)
                   if p.kind == REPELLING)
        th = np.linspace(0, 2 * np.pi, 257)[:-1]
        tr = CurveTrace(th, 3.0 * np.exp(1j * th), closed=True)
        # fixed points are far from |z| = 3: true vacuously
        assert poincare.multiplier_real_check(f, tr) is True

    def test_nearby_nonreal_multiplier_flagged(self):
        f = RationalMap([0.3j, 0, 1])
        (p,) = [p for p in fixed_points(f) if p.kind == REPELLING]
        assert abs(p.multiplier.imag) > 0.1
        # the circle |z| = |p| with a sample at p itself
        th = np.linspace(0, 2 * np.pi, 257)[:-1]
        tr = CurveTrace(th, p.location * np.exp(1j * th), closed=True)
        assert poincare.multiplier_real_check(f, tr) is False
