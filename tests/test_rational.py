import numpy as np
import pytest
from hypothesis import given, strategies as st

from invarcurves.rational import (
    DegreeCapExceeded, INFINITY, Polynomial, RationalMap, SpherePoint, chordal,
    classify_multiplier, coefficient_residual, compose, critical_points,
    fixed_points, homogeneous_horner, identity_residual, iterate, maps_equal,
    multiplier, poly_roots, pull_back, push_forward,
    ATTRACTING, NEUTRAL_IRRATIONAL, NEUTRAL_RATIONAL, REPELLING, SUPERATTRACTING)

from conftest import random_rational_map, random_sphere_points, scalar_call


class TestSpherePoint:
    def test_chordal_symmetric_bounded(self, rng):
        pts = [SpherePoint(z) for z in random_sphere_points(rng, 20)] + [INFINITY]
        for a in pts:
            for b in pts:
                d1, d2 = chordal(a, b), chordal(b, a)
                assert d1 == d2
                assert d1 <= 2.0 + 1e-15
                assert (d1 == 0.0) == (a == b)

    def test_huge_values_collapse_to_infinity(self):
        assert SpherePoint(1e200).is_infinite
        assert chordal(1e200, INFINITY) == 0.0


class TestEval:
    def test_square_at_three(self):
        f = RationalMap([0, 0, 1])
        assert f(3).value == 9

    def test_square_at_infinity(self):
        f = RationalMap([0, 0, 1])
        assert f(INFINITY).is_infinite

    def test_pole_goes_to_infinity(self):
        # denominator root at z = 1, numerator z^2+1 nonzero there
        f = RationalMap([1, 0, 1], [0, -4, 0, 4])
        assert f(1.0).is_infinite
        # substitution check just off the pole
        near = f(1.0 + 1e-8)
        assert not near.is_infinite and abs(near.value) > 1e6

    def test_eval_array_matches_scalar(self, rng):
        f = random_rational_map(rng, 3)
        zs = random_sphere_points(rng, 50)
        arr = f.eval_array(zs)
        for z, v in zip(zs, arr):
            assert chordal(v, scalar_call(f, z)) < 1e-9  # SpherePoint coerces complex inf


@st.composite
def maps_with_exact_poles(draw):
    """Maps whose poles are dyadic (so Horner hits q = 0 exactly inside the
    unit disc), with the poles and sample points on both charts."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    poles = rng.integers(-12, 13, size=draw(st.integers(0, 3))) / 8.0
    num_deg = draw(st.integers(0, 4))
    num = rng.normal(size=num_deg + 1) + 1j * rng.normal(size=num_deg + 1)
    f = RationalMap(num, Polynomial.from_roots(poles) if len(poles) else [1.0])
    special = [np.inf, complex(np.inf, np.inf), 1e200, 1e-200, 0.0]
    zs = np.concatenate([poles, special, random_sphere_points(rng, 20),
                         1e8 * random_sphere_points(rng, 5)]).astype(complex)
    return f, zs


class TestEvalArraySphere:
    @given(case=maps_with_exact_poles())
    def test_agrees_with_scalar_on_the_sphere(self, case):
        # infinity, exact poles and |z| > 1 included; poles, overflow and
        # moduli beyond _HUGE come out as inf, never nan
        f, zs = case
        values = f.eval_array(zs)
        assert not np.any(np.isnan(values))
        for z, v in zip(zs, values):
            assert chordal(v, scalar_call(f, z)) <= 16 * np.finfo(float).eps

    @given(case=maps_with_exact_poles())
    def test_call_is_one_point_of_the_array(self, case):
        # f(z) is eval_array on one point: the same value, bit for bit, at
        # infinity, at exact poles, at 1e200 and on the outer chart
        f, zs = case
        values = f.eval_array(zs)
        for z, v in zip(zs, values):
            assert f(z) == SpherePoint(v)
            assert f(SpherePoint(z)) == SpherePoint(v)


class TestClimb:
    def test_pull_back_counts_steps_and_raises_past_the_cap(self):
        z = np.array([0.5, 3.0, -40.0j, 1e300])
        w, depth = pull_back(z[:3], 2.0, 1.0, 10)
        assert np.array_equal(depth, [0, 2, 6])
        assert np.array_equal(w, [0.5, 0.75, -0.625j])
        assert np.array_equal(z[:3], [0.5, 3.0, -40.0j])     # input untouched
        with pytest.raises(ArithmeticError, match="pull-back"):
            pull_back(z, 2.0, 1.0, 10)

    def test_push_forward_is_iteration_with_the_chain_rule(self):
        f = RationalMap([0.25, 0, 1])          # z^2 + 1/4
        w = np.array([0.1, 0.2 + 0.1j, 0.3])
        depth = np.array([2, 0, 3])
        values, derivs = push_forward(f, w, depth, np.ones(3, dtype=complex))
        for w0, k, v, d in zip(w, depth, values, derivs):
            x, dx = w0, 1.0
            for _ in range(k):
                x, dx = x * x + 0.25, 2 * x * dx
            assert v == x and d == dx
        assert np.array_equal(push_forward(f, w, depth), values)

    def test_derivative_is_inf_from_a_pole_on(self):
        # 1/(z - 1) sends 1 to infinity and infinity to 0, where f' = 0:
        # the chain rule alone would give nan there
        f = RationalMap([1], [-1, 1])
        w = np.array([1.0, 1.0, 3.0], dtype=complex)
        values, derivs = push_forward(f, w, np.array([1, 2, 2]), np.ones(3, dtype=complex))
        assert np.array_equal(values[:2], [np.inf, 0.0])
        assert np.array_equal(derivs[:2], [np.inf, np.inf])
        assert np.allclose([values[2], derivs[2]], [-2.0, 1.0], rtol=1e-15, atol=0)


class TestCompose:
    def test_square_after_shift(self):
        f = RationalMap([0, 0, 1])
        g = RationalMap([1, 1])
        assert compose(f, g).num.allclose(Polynomial([1, 2, 1]))

    def test_joukowski_after_square(self):
        # (z^2+1)/(2z) composed with z^2 gives (z^4+1)/(2z^2)
        j = RationalMap([1, 0, 1], [0, 2])
        p2 = RationalMap([0, 0, 1])
        r = compose(j, p2)
        target = RationalMap([1, 0, 0, 0, 1], [0, 0, 2])
        assert coefficient_residual(r, target) < 1e-14

    def test_identity_neutral(self, rng):
        f = random_rational_map(rng, 3)
        assert coefficient_residual(compose(f, RationalMap.identity()), f) < 1e-12
        assert coefficient_residual(compose(RationalMap.identity(), f), f) < 1e-12

    def test_degree_cap(self):
        f = RationalMap(Polynomial.monomial(10))
        with pytest.raises(DegreeCapExceeded):
            compose(f, f, degree_cap=50)

    def test_compose_eval_consistency(self, rng):
        for degree in (2, 3):
            f = random_rational_map(rng, degree)
            g = random_rational_map(rng, degree)
            h = compose(f, g)
            for z in random_sphere_points(rng, 100):
                assert chordal(h(z), f(g(z))) <= 1e-10

    def test_horner_same_over_polynomials_and_arrays(self, rng):
        f = random_rational_map(rng, 3)
        g = random_rational_map(rng, 2)
        zs = random_sphere_points(rng, 20)
        pn, qn = homogeneous_horner(f, g.num, g.den)
        pa, qa = homogeneous_horner(f, g.num(zs), g.den(zs))
        scale = np.abs(pa) + np.abs(qa)
        assert np.max(np.abs(pn(zs) - pa) / scale) <= 1e-12
        assert np.max(np.abs(qn(zs) - qa) / scale) <= 1e-12

    def test_constant_map_broadcasts(self):
        zs = np.exp(1j * np.linspace(0, 3, 7))
        p, q = homogeneous_horner(RationalMap([2]), zs, np.ones_like(zs))
        assert p.shape == zs.shape and np.allclose(p / q, 2)
        assert identity_residual(RationalMap([2]), RationalMap([2])) == 0.0


class TestPower:
    def test_power_is_repeated_product(self, rng):
        for n in range(5):
            f = random_rational_map(rng, 2)
            ref = RationalMap([1])
            for _ in range(n):
                ref = ref * f
            assert coefficient_residual(f ** n, ref) <= 1e-12
            assert (f ** n).degree == 2 * n

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            RationalMap([0, 1], [1, 1]) ** -1


class TestIterate:
    def test_pow_three(self):
        f = RationalMap([0, 0, 1])
        assert iterate(f, 3).num.allclose(Polynomial.monomial(8))

    def test_quadratic_twice(self):
        f = RationalMap([-2, 0, 1])
        assert iterate(f, 2).num.allclose(Polynomial([2, 0, -4, 0, 1]))

    def test_once_is_itself(self, rng):
        f = random_rational_map(rng, 3)
        assert coefficient_residual(iterate(f, 1), f) == 0.0

    def test_additivity(self, rng):
        f = random_rational_map(rng, 2)
        lhs = iterate(f, 3)
        rhs = compose(iterate(f, 2), iterate(f, 1))
        assert coefficient_residual(lhs, rhs) <= 1e-10

    def test_degree_cap(self):
        f = RationalMap(Polynomial.monomial(4))
        with pytest.raises(DegreeCapExceeded):
            iterate(f, 7, degree_cap=1000)


class TestRoots:
    def test_quadratics(self):
        r = sorted(poly_roots(Polynomial([-1, 0, 1])), key=lambda z: z.real)
        assert abs(r[0] + 1) < 1e-12 and abs(r[1] - 1) < 1e-12
        r = sorted(poly_roots(Polynomial([-2, -1, 1])), key=lambda z: z.real)
        assert abs(r[0] + 1) < 1e-12 and abs(r[1] - 2) < 1e-12

    def test_triple_root(self):
        r = poly_roots(Polynomial([0, 0, 0, 1]))
        assert len(r) == 3 and np.max(np.abs(r)) < 1e-6

    def test_shifted_multiple_root(self):
        p = Polynomial.from_roots([1.0, 1.0, 1.0])
        r = poly_roots(p)
        assert len(r) == 3
        assert np.max(np.abs(np.asarray(r) - 1.0)) < 1e-3
        assert np.max(np.abs(p(np.asarray(r)))) <= 1e-10 * p.scale * 2 ** 3

    def test_residual_bound_and_reconstruction(self, rng):
        for _ in range(10):
            deg = int(rng.integers(2, 13))
            roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
            p = Polynomial.from_roots(roots)
            found = poly_roots(p)
            assert len(found) == deg
            rebuilt = Polynomial.from_roots(found)
            assert rebuilt.allclose(p, rtol=1e-8)

    def test_oracle_agreement(self, rng):
        # companion-matrix eigenvalues as the independent reference
        c = rng.normal(size=7) + 1j * rng.normal(size=7)
        mine = np.sort_complex(np.asarray(poly_roots(Polynomial(c))))
        ref = np.sort_complex(np.roots(c[::-1]))
        assert np.max(np.abs(mine - ref)) < 1e-8


class TestFixedPoints:
    def test_square(self):
        info = {(
            "inf" if fp.location.is_infinite else round(fp.location.value.real)):
            fp for fp in fixed_points(RationalMap([0, 0, 1]))}
        assert info[0].kind == SUPERATTRACTING
        assert abs(info[1].multiplier - 2) < 1e-12 and info[1].kind == REPELLING
        assert info["inf"].kind == SUPERATTRACTING

    def test_shifted_square(self):
        fps = fixed_points(RationalMap([-2, 0, 1]))
        by_loc = {}
        for fp in fps:
            key = "inf" if fp.location.is_infinite else round(fp.location.value.real)
            by_loc[key] = fp
        assert abs(by_loc[2].multiplier - 4) < 1e-12 and by_loc[2].kind == REPELLING
        assert abs(by_loc[-1].multiplier + 2) < 1e-12 and by_loc[-1].kind == REPELLING
        assert by_loc["inf"].kind == SUPERATTRACTING

    def test_inversion_neutral(self):
        fps = fixed_points(RationalMap([1], [0, 1]))
        assert len(fps) == 2
        locs = sorted(fp.location.value.real for fp in fps)
        assert abs(locs[0] + 1) < 1e-12 and abs(locs[1] - 1) < 1e-12
        for fp in fps:
            assert abs(fp.multiplier + 1) < 1e-12
            assert fp.kind == NEUTRAL_RATIONAL

    def test_count_is_degree_plus_one(self, rng):
        for _ in range(50):
            f = random_rational_map(rng, int(rng.integers(2, 6)))
            assert len(fixed_points(f)) == f.degree + 1

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            fixed_points(RationalMap.identity())


class TestCriticalPoints:
    def test_square(self):
        pts = critical_points(RationalMap([0, 0, 1]))
        finite = sorted(p.value.real for p in pts if not p.is_infinite)
        assert finite == [0.0]
        assert sum(p.is_infinite for p in pts) == 1

    def test_shifted_square(self):
        pts = critical_points(RationalMap([-2, 0, 1]))
        finite = [p for p in pts if not p.is_infinite]
        assert len(finite) == 1 and abs(finite[0].value) < 1e-12

    def test_joukowski(self):
        pts = critical_points(RationalMap([1, 0, 1], [0, 2]))
        vals = sorted(p.value.real for p in pts)
        assert len(pts) == 2
        assert abs(vals[0] + 1) < 1e-10 and abs(vals[1] - 1) < 1e-10

    def test_count(self, rng):
        for _ in range(20):
            f = random_rational_map(rng, int(rng.integers(2, 5)))
            assert len(critical_points(f)) == 2 * f.degree - 2


class TestMultiplier:
    def test_cases(self):
        f = RationalMap([0, 0, 1])
        assert abs(multiplier(f, 1.0) - 2) < 1e-12
        assert abs(multiplier(f, 0.0)) < 1e-12
        assert abs(multiplier(f, INFINITY)) < 1e-12

    def test_not_fixed(self):
        with pytest.raises(ValueError):
            multiplier(RationalMap([0, 0, 1]), 0.5)

    def test_classification_tolerances(self):
        assert classify_multiplier(0.0) == SUPERATTRACTING
        assert classify_multiplier(0.5) == ATTRACTING
        assert classify_multiplier(3.0) == REPELLING
        assert classify_multiplier(-1.0) == NEUTRAL_RATIONAL
        golden = np.exp(2j * np.pi * (np.sqrt(5) - 1) / 2)
        assert classify_multiplier(golden) == NEUTRAL_IRRATIONAL


class TestCanonicalForm:
    def test_common_factor_removed(self):
        # (z-1)(z-2) / (z-1)(z+3) reduces to (z-2)/(z+3)
        num = Polynomial.from_roots([1.0, 2.0])
        den = Polynomial.from_roots([1.0, -3.0])
        f = RationalMap(num, den)
        assert f.degree == 1
        assert f.num.allclose(Polynomial([-2, 1]))
        assert f.den.allclose(Polynomial([3, 1]))

    def test_monic_denominator(self, rng):
        f = random_rational_map(rng, 3)
        assert abs(f.den.coefficients[-1] - 1.0) < 1e-14

    def test_maps_equal_scaling_insensitive(self):
        f = RationalMap([0, 0, 2], [2])
        g = RationalMap([0, 0, 1])
        assert maps_equal(f, g)
        assert identity_residual(f, g) < 1e-14

    def test_json_round_trip(self, rng):
        f = random_rational_map(rng, 3)
        g = RationalMap.from_json_dict(f.to_json_dict())
        assert coefficient_residual(f, g) == 0.0
