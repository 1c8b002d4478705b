import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial import polynomial as npoly

from invarcurves import rational
from invarcurves.rational import (
    _HUGE, DEGREE_CAP, DegreeCapExceeded, Polynomial, RationalMap, RootConvergenceError,
    UniformStream, chordal,
    classify_multiplier, coefficient_residual, compose,
    fixed_points, homogeneous_horner, identity_residual, iterate, maps_equal,
    multiplier, poly_divmod, poly_roots, polyder, polyval, pull_back, push_forward,
    ATTRACTING, NEUTRAL_IRRATIONAL, NEUTRAL_RATIONAL, REPELLING, SUPERATTRACTING)

from conftest import (EDGE_VALUES, INF, critical_points, is_infinite, on_sphere, poly_allclose,
                      poly_from_roots, random_rational_map, random_sphere_points,
                      scalar_call, sphere_values)


class TestPointAtInfinity:
    def test_chordal_symmetric_bounded(self, rng):
        pts = list(random_sphere_points(rng, 20)) + [INF]
        for a in pts:
            for b in pts:
                d1, d2 = chordal(a, b), chordal(b, a)
                assert d1 == d2
                assert d1 <= 2.0 + 1e-15
                assert (d1 == 0.0) == (a == b)

    def test_huge_values_collapse_to_infinity(self):
        assert is_infinite(1e200)
        assert chordal(1e200, INF) == 0.0

    @given(zs=sphere_values())
    def test_scalar_entry_points_give_plain_numbers(self, zs):
        f = RationalMap([1, 0, 1], [0, -4, 0, 4])     # poles at 0 and +-1
        translation = RationalMap([1, 1])            # fixes infinity alone, multiplier 1
        for z in zs:
            v = f(z)
            assert type(v) is complex and (v == INF or abs(v) <= _HUGE)   # never nan
            d = chordal(z, v)
            assert type(d) is float and 0.0 <= d <= 2.0
            assert chordal(z, on_sphere(z)) == 0.0
            assert (chordal(z, INF) == 0.0) == is_infinite(z)
            if is_infinite(z) or abs(z) > 1e4:   # random points stay below 1.5e3
                lam = multiplier(translation, z)
                assert isinstance(lam, complex) and lam == 1.0
            else:
                with pytest.raises(ValueError, match="not fixed"):
                    multiplier(translation, z)


def same_values(x, y, signed_zeros=True):
    """x == y entry by entry with nan matching nan, the same type and shape,
    and with signed_zeros, -0.0 matching only -0.0."""
    if type(x) is not type(y) or np.shape(x) != np.shape(y):
        return False
    parts = [(np.real(x), np.real(y)), (np.imag(x), np.imag(y))]
    return all(np.array_equal(u, v, equal_nan=True)
               and (not signed_zeros or np.array_equal(np.signbit(u) & ~np.isnan(u),
                                                       np.signbit(v) & ~np.isnan(v)))
               for u, v in parts)


def edge_mixed(rng, n, share):
    """n random complex numbers, a share of them edge values (inf, nan,
    beyond _HUGE)."""
    z = rng.normal(size=n) * 3 + 1j * rng.normal(size=n) * 3
    picks = rng.uniform(size=n) < share
    z[picks] = rng.choice(np.array(EDGE_VALUES, dtype=complex), size=int(picks.sum()))
    return z


class TestPolynomialHelpersMatchNumpy:
    """polyval and polyder repeat numpy.polynomial's arithmetic step for
    step, so they give its values to the bit; poly_divmod repeats polydiv's
    steps on Python complex, whose products numpy's array loops may fuse."""

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9),
           form=st.sampled_from(["python", "numpy scalar", "0-d", "1-d", "list"]),
           share=st.sampled_from([0.0, 0.3, 1.0]))
    def test_polyval(self, seed, n, form, share):
        rng = np.random.default_rng(seed)
        c = edge_mixed(rng, n, share / 3)
        xs = edge_mixed(rng, 7, share)
        x = {"python": complex(xs[0]), "numpy scalar": xs[0], "0-d": np.array(xs[0]),
             "1-d": xs, "list": xs.tolist()}[form]
        with np.errstate(all="ignore"):
            assert same_values(polyval(x, c), npoly.polyval(x, c))
            assert same_values(polyval(xs.real, c), npoly.polyval(xs.real, c))

    # finite coefficients: numpy's scalar products j * c[j] and the array
    # product agree on every value, but not on the sign of a zero part
    # (3 * -0j) or on a product with an inf part
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 9))
    def test_polyder(self, seed, n):
        rng = np.random.default_rng(seed)
        c = edge_mixed(rng, n, 0.0)
        zeros = rng.uniform(size=(2, n)) < 0.3
        c.real[zeros[0]] = np.copysign(0.0, rng.normal(size=zeros[0].sum()))
        c.imag[zeros[1]] = np.copysign(0.0, rng.normal(size=zeros[1].sum()))
        assert same_values(polyder(c), npoly.polyder(c), signed_zeros=False)
        p = Polynomial(c)
        if p.degree >= 1:
            want = Polynomial(npoly.polyder(p.coefficients)).coefficients
            assert same_values(p.derivative().coefficients, want, signed_zeros=False)

    @given(seed=st.integers(0, 2 ** 32 - 1), deg_b=st.integers(0, 5),
           deg_q=st.integers(-2, 4), exact=st.booleans())
    def test_poly_divmod(self, seed, deg_b, deg_q, exact):
        # exact: integer a = b q + r with deg r <= deg b - 2, so the
        # remainder's leading coefficients cancel to zero and are trimmed;
        # real data, so no product is fused and polydiv's bits are ours.
        # Random complex data: polydiv's array products may use FMA, so a
        # platform-free poly_divmod is held to the exact quotient and
        # remainder instead (mpmath at 60 digits), backward:
        # |(q - q*) b + (r - r*)| = |q b + r - a| within 8 ulps of the
        # largest coefficient of |q| |b| + |r|
        rng = np.random.default_rng(seed)
        draw = (lambda k: rng.integers(-9, 10, size=k).astype(complex)) if exact \
            else (lambda k: rng.normal(size=k) + 1j * rng.normal(size=k))
        b = draw(deg_b + 1)
        b[-1] = b[-1] or 3.0
        if deg_q < 0:                      # a shorter than b
            a = draw(max(deg_b + deg_q + 1, 1))
        else:
            a = np.convolve(b, draw(deg_q + 1))
            r = draw(max(deg_b - 1, 1))
            a[:len(r)] += r if deg_b >= 2 else 0
        pa, pb = Polynomial(a), Polynomial(b)
        qa, ra = poly_divmod(pa, pb)
        if exact:
            with np.errstate(all="ignore"):
                qn, rn = npoly.polydiv(pa.coefficients, pb.coefficients)
            assert same_values(qa.coefficients, Polynomial(qn).coefficients)
            assert same_values(ra.coefficients, Polynomial(rn).coefficients)
            return
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            # a = q b + r exactly: q by long division, r = a - q b
            rx = [mpmath.mpc(x) for x in pa.coefficients]
            d = [mpmath.mpc(x) for x in pb.coefficients]
            qx = [mpmath.mpc(0)] * max(len(rx) - len(d) + 1, 1)
            for i in range(len(rx) - len(d), -1, -1):
                qx[i] = rx[i + len(d) - 1] / d[-1]
                for k in range(len(d)):
                    rx[i + k] -= qx[i] * d[k]
            q = qa.coefficients + [0j] * (len(qx) - len(qa.coefficients))
            r = ra.coefficients + [0j] * (len(rx) - len(ra.coefficients))
            n = max(len(rx), len(q) + pb.degree)
            err, scale = [mpmath.mpc(0)] * n, [0.0] * n
            for i, (qi, qxi) in enumerate(zip(q, qx)):
                for j, bj in enumerate(pb.coefficients):
                    err[i + j] += (qi - qxi) * bj
                    scale[i + j] += abs(qi) * abs(bj)
            for k, (rk, rxk) in enumerate(zip(r, rx)):
                err[k] += rk - rxk
                scale[k] += abs(rk)
            assert len(ra.coefficients) <= max(pb.degree, 1)
            assert max(float(abs(e)) for e in err) <= 8 * 2.0 ** -53 * max(scale)


class TestEval:
    def test_square_at_three(self):
        f = RationalMap([0, 0, 1])
        assert f(3) == 9

    def test_square_at_infinity(self):
        f = RationalMap([0, 0, 1])
        assert f(INF) == INF

    def test_pole_goes_to_infinity(self):
        # denominator root at z = 1, numerator z^2+1 nonzero there
        f = RationalMap([1, 0, 1], [0, -4, 0, 4])
        assert f(1.0) == INF
        # substitution check just off the pole
        near = f(1.0 + 1e-8)
        assert not is_infinite(near) and abs(near) > 1e6

    def test_eval_array_matches_scalar(self, rng):
        f = random_rational_map(rng, 3)
        zs = random_sphere_points(rng, 50)
        arr = f.eval_array(zs)
        for z, v in zip(zs, arr):
            assert chordal(v, scalar_call(f, z)) < 1e-9


@st.composite
def maps_with_exact_poles(draw):
    """Maps whose poles are dyadic (so Horner hits q = 0 exactly inside the
    unit disc), with the poles and sample points on both charts."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    poles = rng.integers(-12, 13, size=draw(st.integers(0, 3))) / 8.0
    num_deg = draw(st.integers(0, 4))
    num = rng.normal(size=num_deg + 1) + 1j * rng.normal(size=num_deg + 1)
    f = RationalMap(num, poly_from_roots(poles) if len(poles) else [1.0])
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
            fz = f(z)
            assert type(fz) is complex and fz == v
            assert f(on_sphere(z)) == v


class TestClimb:
    def test_pull_back_counts_steps_and_raises_past_the_cap(self):
        z = np.array([0.5, 3.0, -40.0j, 1e300])
        w, depth = pull_back(z[:3], 2.0, 1.0, 10)
        assert np.array_equal(depth, [0, 2, 6])
        assert np.array_equal(w, [0.5, 0.75, -0.625j])
        assert np.array_equal(z[:3], [0.5, 3.0, -40.0j])     # input untouched
        with pytest.raises(ArithmeticError, match="pull-back"):
            pull_back(z, 2.0, 1.0, 10)

    def test_push_forward_is_iteration(self):
        f = RationalMap([0.25, 0, 1])          # z^2 + 1/4
        w = np.array([0.1, 0.2 + 0.1j, 0.3])
        depth = np.array([2, 0, 3])
        values = push_forward(f, w, depth)
        for w0, k, v in zip(w, depth, values):
            x = w0
            for _ in range(k):
                x = x * x + 0.25
            assert v == x

    def test_values_through_a_pole(self):
        # 1/(z - 1) sends 1 to infinity and infinity to 0
        f = RationalMap([1], [-1, 1])
        w = np.array([1.0, 1.0, 3.0], dtype=complex)
        values = push_forward(f, w, np.array([1, 2, 2]))
        assert np.array_equal(values[:2], [np.inf, 0.0])
        assert np.allclose(values[2], -2.0, rtol=1e-15, atol=0)


class TestCompose:
    def test_square_after_shift(self):
        f = RationalMap([0, 0, 1])
        g = RationalMap([1, 1])
        assert poly_allclose(compose(f, g).num, Polynomial([1, 2, 1]))

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
        f = RationalMap(Polynomial.monomial(65))     # 65^2 = 4225 > DEGREE_CAP
        with pytest.raises(DegreeCapExceeded):
            compose(f, f)

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

    def test_coefficients_beyond_the_floats_are_refused(self):
        # the leading coefficient of f(f) is 1e308^3; refused without a warning
        f = RationalMap([1e308, 1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beyond the float range"):
                compose(f, f)
            with pytest.raises(ValueError, match="beyond the float range"):
                RationalMap([1e308], [1e-308])


class TestProduct:
    @pytest.mark.parametrize("extra", [0, 1], ids=["python", "numpy"])
    def test_exact_on_both_sides_of_the_array_degree(self, extra):
        # Gaussian integers below 10: every product and sum is exact, in the
        # Python loop at degree ARRAY_PRODUCT_DEGREE and in numpy's
        # convolution one degree above
        rng = np.random.default_rng(11)
        da = rational.ARRAY_PRODUCT_DEGREE // 2
        db = rational.ARRAY_PRODUCT_DEGREE - da + extra
        a, b = ([(int(x), int(y)) for x, y in rng.integers(1, 10, size=(d + 1, 2))]
                for d in (da, db))
        want = [[0, 0] for _ in range(da + db + 1)]
        for i, (ar, ai) in enumerate(a):
            for j, (br, bi) in enumerate(b):
                want[i + j][0] += ar * br - ai * bi
                want[i + j][1] += ar * bi + ai * br
        product = Polynomial([complex(*x) for x in a]) * Polynomial([complex(*y) for y in b])
        assert product.degree == rational.ARRAY_PRODUCT_DEGREE + extra
        assert product.coefficients == [complex(re, im) for re, im in want]


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
        assert poly_allclose(iterate(f, 3).num, Polynomial.monomial(8))

    def test_quadratic_twice(self):
        f = RationalMap([-2, 0, 1])
        assert poly_allclose(iterate(f, 2).num, Polynomial([2, 0, -4, 0, 1]))

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
            iterate(f, 7)                            # 4^7 = 16384 > DEGREE_CAP

    @pytest.mark.parametrize("f", [RationalMap([0, 0, 1]), RationalMap([1, 1])],
                             ids=["square", "moebius"])
    def test_huge_count_raises_before_forming_the_chain(self, f):
        # a Moebius map keeps degree 1, but 10**8 compositions are no less work
        for n in (DEGREE_CAP + 1, 10 ** 8, 10 ** 20):
            with pytest.raises(DegreeCapExceeded):
                iterate(f, n)


class TestRoots:
    def test_stall_is_an_arithmetic_error(self, monkeypatch):
        # no root meets a zero residual bound, not even one exact to rounding
        monkeypatch.setattr(rational, "TAU_ROOT", 0.0)
        with pytest.raises(RootConvergenceError, match="worst scaled residual") as info:
            poly_roots(Polynomial([-2, 0, 1]))
        assert isinstance(info.value, ArithmeticError)     # the CLI's exit 2
        # the eigenvalues are the roots +-sqrt(2) to rounding
        assert float(str(info.value).rsplit(" ", 1)[1].rstrip(")")) < 1e-15

    def test_quadratics(self):
        r = sorted(poly_roots(Polynomial([-1, 0, 1])), key=lambda z: z.real)
        assert abs(r[0] + 1) < 1e-12 and abs(r[1] - 1) < 1e-12
        r = sorted(poly_roots(Polynomial([-2, -1, 1])), key=lambda z: z.real)
        assert abs(r[0] + 1) < 1e-12 and abs(r[1] - 2) < 1e-12

    def test_triple_root(self):
        r = poly_roots(Polynomial([0, 0, 0, 1]))
        assert len(r) == 3 and np.max(np.abs(r)) < 1e-6

    def test_shifted_multiple_root(self):
        p = poly_from_roots([1.0, 1.0, 1.0])
        r = poly_roots(p)
        assert len(r) == 3
        assert np.max(np.abs(np.asarray(r) - 1.0)) < 1e-3
        assert np.max(np.abs(p(np.asarray(r)))) <= 1e-10 * p.scale * 2 ** 3

    def test_residual_bound_and_reconstruction(self, rng):
        for _ in range(10):
            deg = int(rng.integers(2, 13))
            roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
            p = poly_from_roots(roots)
            found = poly_roots(p)
            assert len(found) == deg
            assert np.array_equal(found, np.sort_complex(found))     # the canonical order
            rebuilt = poly_from_roots(found)
            assert poly_allclose(rebuilt, p, rtol=1e-8)

    def test_oracle_agreement(self, rng):
        # mpmath's Durand-Kerner iteration at 30 digits as the independent reference
        mpmath = pytest.importorskip("mpmath")
        c = rng.normal(size=7) + 1j * rng.normal(size=7)
        mine = np.sort_complex(np.asarray(poly_roots(Polynomial(c))))
        with mpmath.workdps(30):
            ref = mpmath.polyroots([mpmath.mpc(x) for x in c[::-1]], maxsteps=200, extraprec=60)
        ref = np.sort_complex(np.array([complex(z) for z in ref]))
        assert np.max(np.abs(mine - ref)) < 1e-8


class TestFixedPoints:
    def test_square(self):
        info = {(
            "inf" if is_infinite(fp.location) else round(fp.location.real)):
            fp for fp in fixed_points(RationalMap([0, 0, 1]))}
        assert info[0].kind == SUPERATTRACTING
        assert abs(info[1].multiplier - 2) < 1e-12 and info[1].kind == REPELLING
        assert info["inf"].kind == SUPERATTRACTING

    def test_shifted_square(self):
        fps = fixed_points(RationalMap([-2, 0, 1]))
        by_loc = {}
        for fp in fps:
            key = "inf" if is_infinite(fp.location) else round(fp.location.real)
            by_loc[key] = fp
        assert abs(by_loc[2].multiplier - 4) < 1e-12 and by_loc[2].kind == REPELLING
        assert abs(by_loc[-1].multiplier + 2) < 1e-12 and by_loc[-1].kind == REPELLING
        assert by_loc["inf"].kind == SUPERATTRACTING

    def test_inversion_neutral(self):
        fps = fixed_points(RationalMap([1], [0, 1]))
        assert len(fps) == 2
        locs = sorted(fp.location.real for fp in fps)
        assert abs(locs[0] + 1) < 1e-12 and abs(locs[1] - 1) < 1e-12
        for fp in fps:
            assert abs(fp.multiplier + 1) < 1e-12
            assert fp.kind == NEUTRAL_RATIONAL

    def test_count_is_degree_plus_one(self, rng):
        for _ in range(50):
            f = random_rational_map(rng, int(rng.integers(2, 6)))
            fps = fixed_points(f)
            assert len(fps) == f.degree + 1
            for fp in fps:
                if not is_infinite(fp.location):
                    assert chordal(f(fp.location), fp.location) <= 1e-12

    @pytest.mark.parametrize("k", [2, 3])
    def test_parabolic_multiplicity(self, k):
        # z + z^k fixes 0 with multiplicity k, each copy with multiplier 1,
        # and infinity (superattracting) fills the count to degree + 1
        fps = fixed_points(RationalMap(Polynomial([0, 1]) + Polynomial.monomial(k)))
        finite = [fp for fp in fps if not is_infinite(fp.location)]
        assert len(finite) == k and len(fps) == k + 1
        for fp in finite:
            assert fp.location == 0
            assert fp.multiplier == 1 and fp.kind == NEUTRAL_RATIONAL
        assert [fp.kind for fp in fps if is_infinite(fp.location)] == [SUPERATTRACTING]

    def test_shifted_parabolic_point(self):
        # z + (z - 1)^2: a double root at 1, found to about sqrt(eps)
        fps = fixed_points(RationalMap([1, -1, 1]))
        finite = [fp.location for fp in fps if not is_infinite(fp.location)]
        assert len(finite) == 2
        assert max(abs(a - 1) for a in finite) <= 1e-6

    def test_root_beyond_the_floats_is_infinity(self):
        # z + 1e-320 z^2 vanishes at 0 and at -1e320, beyond the floats: the
        # companion matrix of the untrimmed equation overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fps = fixed_points(RationalMap([0, 2, 1e-320]))
        assert [fp.location for fp in fps] == [0, INF, INF]
        assert fps[0].multiplier == 2 and fps[0].kind == REPELLING

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            fixed_points(RationalMap.identity())


class TestCriticalPoints:
    def test_square(self):
        pts = critical_points(RationalMap([0, 0, 1]))
        finite = sorted(p.real for p in pts if not is_infinite(p))
        assert finite == [0.0]
        assert sum(is_infinite(p) for p in pts) == 1

    def test_shifted_square(self):
        pts = critical_points(RationalMap([-2, 0, 1]))
        finite = [p for p in pts if not is_infinite(p)]
        assert len(finite) == 1 and abs(finite[0]) < 1e-12

    def test_joukowski(self):
        pts = critical_points(RationalMap([1, 0, 1], [0, 2]))
        vals = sorted(p.real for p in pts)
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
        assert abs(multiplier(f, INF)) < 1e-12

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
        num = poly_from_roots([1.0, 2.0])
        den = poly_from_roots([1.0, -3.0])
        f = RationalMap(num, den)
        assert f.degree == 1
        assert poly_allclose(f.num, Polynomial([-2, 1]))
        assert poly_allclose(f.den, Polynomial([3, 1]))

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


# seeds of one to seven 32-bit words: beyond 2**128 SeedSequence mixes the
# words that do not fit its four-word pool in a second pass
STREAM_SEEDS = [0, 1, 7, 2 ** 32 - 1, 2 ** 32, 711530119, 2 ** 64 + 5, 2 ** 130 + 99,
                2 ** 200 + 1]


def same_draws(seed, calls):
    """Draw calls (low, high, size) from numpy's generator and from
    UniformStream in turn; equal element for element, with no warning.
    Numpy is asked for [0, 1) by its defaults, uniform(size=size)."""
    ref, ours = np.random.default_rng(seed), UniformStream(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for low, high, size in calls:
            want = ref.uniform(size=size) if (low, high) == (0.0, 1.0) \
                else ref.uniform(low, high, size)
            got = ours.uniform(low, high, size)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want), (seed, low, high, size)


class TestUniformStream:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_poincare_sequence(self, seed):
        same_draws(seed, [(0.05, 1.0, 100), (0.0, 1.0, 100)])

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 1024, 4097])
    def test_lattes_sequence(self, seed, n):
        same_draws(seed, [(-0.5, 0.5, n), (-0.5, 0.5, n)])

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_example_1_draws_in_c_order(self, seed):
        same_draws(seed, [(0.0, 1.0, (100, 2))])

    def test_blocks_beyond_the_doubling(self):
        # past 8192 draws the states come a block at a time
        same_draws(3, [(-0.5, 0.5, 20000), (0.0, 1.0, 8193), (-0.5, 0.5, 5)])

    @given(seed=st.integers(0, 2 ** 256), n=st.integers(0, 300))
    def test_any_seed(self, seed, n):
        same_draws(seed, [(0.05, 1.0, n), (0.0, 1.0, 100), (-0.5, 0.5, (n, 2))])

    @pytest.mark.parametrize("seed", [-1, -2 ** 40])
    def test_negative_seed_raises_as_numpy_does(self, seed):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.default_rng(seed)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            UniformStream(seed)
