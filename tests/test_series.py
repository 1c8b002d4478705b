import math

import numpy as np
import pytest

from invarcurves.poincare import solve_coefficients
from invarcurves.rational import REPELLING, RationalMap, fixed_points
from invarcurves.series import TruncatedPowerSeries, compose_rational

from conftest import is_infinite, random_rational_map, series_horner_compose


def slow_product(a, b):
    """Reference convolution, written out index by index."""
    n = min(len(a) - 1, len(b) - 1)
    out = np.zeros(n + 1, dtype=complex)
    for k in range(n + 1):
        for i in range(k + 1):
            if i < len(a) and k - i < len(b):
                out[k] += a[i] * b[k - i]
    return out


class TestArithmetic:
    def test_one_plus_z_times_one_minus_z(self):
        a = TruncatedPowerSeries([1, 1, 0])
        b = TruncatedPowerSeries([1, -1, 0])
        assert np.allclose((a * b).coefficients, [1, 0, -1])

    def test_mul_by_zero(self):
        a = TruncatedPowerSeries([2, 3, 4])
        z = TruncatedPowerSeries([0, 0, 0])
        assert np.all((a * z).coefficients == 0)

    def test_exp_squared_is_exp_of_twice(self):
        e = TruncatedPowerSeries([1 / math.factorial(k) for k in range(5)])
        sq = e * e
        target = [2 ** k / math.factorial(k) for k in range(5)]
        assert np.allclose(sq.coefficients, target, rtol=1e-14)

    def test_truncation_to_min_order(self):
        a = TruncatedPowerSeries([1, 1, 1, 1, 1])
        b = TruncatedPowerSeries([1, 2])
        assert (a * b).order == 1
        assert (a + b).order == 1

    def test_ring_axioms_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 65))
            a, b, c = (TruncatedPowerSeries(rng.normal(size=n + 1)
                                            + 1j * rng.normal(size=n + 1))
                       for _ in range(3))
            assoc = ((a * b) * c).coefficients - (a * (b * c)).coefficients
            dist = (a * (b + c)).coefficients - (a * b + a * c).coefficients
            scale = max(np.max(np.abs((a * (b * c)).coefficients)), 1.0)
            assert np.max(np.abs(assoc)) <= 1e-12 * scale
            assert np.max(np.abs(dist)) <= 1e-12 * scale

    def test_against_slow_convolution(self, rng):
        a = rng.normal(size=9) + 1j * rng.normal(size=9)
        b = rng.normal(size=9) + 1j * rng.normal(size=9)
        fast = (TruncatedPowerSeries(a) * TruncatedPowerSeries(b)).coefficients
        assert np.allclose(fast, slow_product(a, b), rtol=1e-14)


class TestReciprocal:
    def test_geometric(self):
        r = TruncatedPowerSeries([1, -1, 0, 0]).reciprocal()
        assert np.allclose(r.coefficients, [1, 1, 1, 1])

    def test_constant(self):
        r = TruncatedPowerSeries([2]).reciprocal()
        assert np.allclose(r.coefficients, [0.5])

    def test_binomial_inverse_square(self):
        s = TruncatedPowerSeries([1, 1, 0, 0])
        r = (s * s).reciprocal()
        assert np.allclose(r.coefficients, [1, -2, 3, -4])

    def test_defining_identity(self, rng):
        a = TruncatedPowerSeries(rng.normal(size=12) + 1j * rng.normal(size=12))
        prod = (a * a.reciprocal()).coefficients
        assert abs(prod[0] - 1) < 1e-12
        assert np.max(np.abs(prod[1:])) < 1e-12 * max(1.0, np.max(np.abs(a.coefficients)))

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroDivisionError):
            TruncatedPowerSeries([0, 1]).reciprocal()


class TestComposeRational:
    def test_square_of_shift(self):
        s = TruncatedPowerSeries([1, 1, 0])
        out = compose_rational(RationalMap([0, 0, 1]), s)
        assert np.allclose(out.coefficients, [1, 2, 1])

    def test_quadratic_at_two(self):
        s = TruncatedPowerSeries([2, 1, 0])
        out = compose_rational(RationalMap([-2, 0, 1]), s)
        assert np.allclose(out.coefficients, [2, 4, 1])

    def test_inversion_geometric(self):
        s = TruncatedPowerSeries([1, 1, 0])
        out = compose_rational(RationalMap([1], [0, 1]), s)
        assert np.allclose(out.coefficients, [1, -1, 1])

    def test_constant_map(self):
        out = compose_rational(RationalMap([2]), TruncatedPowerSeries([1, 1, 0]))
        assert np.array_equal(out.coefficients, [2, 0, 0])

    def test_pole_at_constant_term_rejected(self):
        s = TruncatedPowerSeries([0, 1, 0])
        with pytest.raises(ZeroDivisionError):
            compose_rational(RationalMap([1], [0, 1]), s)

    def test_agrees_with_pointwise_evaluation(self, rng):
        f = RationalMap([1, 1], [2, 0, 1])
        coeffs = np.concatenate([[0.3], rng.normal(size=12) * 0.5])
        s = TruncatedPowerSeries(coeffs)
        out = compose_rational(f, s)
        # inside a small disc the truncation tail is far below the tolerance
        for theta in np.linspace(0, 2 * np.pi, 7):
            z = 0.05 * np.exp(1j * theta)
            direct = complex(f.num(s(z)) / f.den(s(z)))
            assert abs(direct - out(z)) < 1e-10

    def test_matches_series_horner_oracle(self, rng):
        # on the series that solve_coefficients composes (c_0..c_(k-1) and a
        # zero c_k, for every k), within 4 ulps of the magnitude a Horner
        # error bound is stated in: |num| over |s|, times |1/q(s)|.  The two
        # Horners round the first product differently (a scalar times s
        # against a convolution), and cancellation in f(s) can make that
        # gap tens of ulps of the largest coefficient (over 200 random
        # maps: at most 1.4 ulps of this magnitude, 31 of the largest).
        eps = np.finfo(float).eps
        solved = 0
        while solved < 8:
            f = random_rational_map(rng, int(rng.integers(2, 5)))
            a = [p.location for p in fixed_points(f)
                 if p.kind == REPELLING and not is_infinite(p.location)]
            if not a:
                continue
            try:
                c = solve_coefficients(f, a[0], order=40).coefficients
            except (ValueError, ArithmeticError):
                continue
            solved += 1
            for k in range(2, len(c)):
                s = TruncatedPowerSeries(np.append(c[:k], 0.0))
                got = compose_rational(f, s).coefficients
                ref = series_horner_compose(f, s)
                s_abs = TruncatedPowerSeries(np.abs(s.coefficients))
                num_abs = series_horner_compose(RationalMap(np.abs(f.num.coefficients)), s_abs)
                inv_q = series_horner_compose(RationalMap([1], f.den), s)
                scale = (num_abs * TruncatedPowerSeries(np.abs(inv_q.coefficients))).coefficients
                assert np.all(np.abs(got - ref.coefficients) <= 4 * eps * np.abs(scale))
