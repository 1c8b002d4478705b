import functools
import math

import numpy as np
import pytest

from invarcurves import curves, rational
from invarcurves.rational import (DEGREE_CAP, DegreeCapExceeded, Polynomial, RationalMap,
                                  coefficient_residual, compose, embed_points, maps_equal)
from invarcurves.semiconj import (SemiconjTriple, certify_triple, chebyshev,
                                  chebyshev_map, joukowski, make_power_family,
                                  make_ritt_triple, pakovich_example, power_map,
                                  verify_joukowski_identity)

from conftest import mp_chain_identity_residual, poly_allclose, random_rational_map


class TestRittTriple:
    def test_square_and_shift(self):
        t = make_ritt_triple(RationalMap([0, 0, 1]), RationalMap([1, 1]))
        assert poly_allclose(t.f.num, Polynomial([1, 2, 1]))
        assert poly_allclose(t.g.num, Polynomial([1, 0, 1]))
        assert poly_allclose(t.h.num, Polynomial([0, 0, 1]))
        assert t.residual() <= 1e-13

    def test_joukowski_chebyshev_system(self):
        t = make_ritt_triple(joukowski(), power_map(2))
        # f = J o P2 which equals T2 o J
        assert coefficient_residual(t.f, compose(chebyshev_map(2), joukowski())) < 1e-13
        assert t.residual() <= 1e-12

    def test_identity_factor(self):
        v = RationalMap([0.3, 1.1, 0.7])
        t = make_ritt_triple(RationalMap.identity(), v)
        assert maps_equal(t.f, v) and maps_equal(t.g, v)
        assert maps_equal(t.h, RationalMap.identity())

    def test_random_pairs_and_swap(self, rng):
        for _ in range(50):
            u = random_rational_map(rng, int(rng.integers(1, 4)))
            v = random_rational_map(rng, int(rng.integers(1, 4)))
            t = make_ritt_triple(u, v)
            assert t.residual() <= 1e-9
            swapped = SemiconjTriple(f=t.g, g=t.f, h=v, n=1)
            assert swapped.residual() <= 1e-9


class TestPowerFamily:
    def test_constant_w(self):
        c = 2.5 + 0.5j
        t = make_power_family(RationalMap([c]), m=3, n=2)
        # f = c^2 z^3, g = c z^3, h = z^2; both sides c^2 z^6
        assert t.residual() <= 1e-12

    def test_shift_example(self):
        t = make_power_family(RationalMap([1, 1]), m=1, n=2)
        assert poly_allclose(t.f.num, Polynomial([0, 1, 2, 1]))   # z(z+1)^2
        assert poly_allclose(t.g.num, Polynomial([0, 1, 0, 1]))   # z(z^2+1)
        assert poly_allclose(t.h.num, Polynomial([0, 0, 1]))      # z^2
        assert t.residual() <= 1e-13

    def test_degenerate_m0_n1(self):
        w = RationalMap([0.2, 0.9, 1.3])
        t = make_power_family(w, m=0, n=1)
        assert maps_equal(t.f, w) and maps_equal(t.g, w)
        assert maps_equal(t.h, RationalMap.identity())

    def test_random_grid(self, rng):
        for _ in range(20):
            w = random_rational_map(rng, int(rng.integers(1, 4)))
            m = int(rng.integers(0, 3))
            n = int(rng.integers(1, 4))
            assert make_power_family(w, m, n).residual() <= 1e-9

    def test_w_with_pole_at_origin(self):
        # z^m and w(z)^n share the factor z when w has a pole at 0; the
        # canonical form must cancel it
        w = RationalMap([1], [0, 1])   # 1/z
        t = make_power_family(w, m=2, n=2)
        assert maps_equal(t.f, RationalMap([1]))     # z^2 * (1/z)^2 = 1
        assert t.residual() <= 1e-12


@functools.cache
def criterion_8_certificates():
    """The 120 triples of acceptance criterion 8, drawn the same way, each
    with its certified residual."""
    def triples():
        rng = np.random.default_rng(808)
        for _ in range(50):
            u = random_rational_map(rng, int(rng.integers(1, 4)))
            v = random_rational_map(rng, int(rng.integers(1, 4)))
            t = make_ritt_triple(u, v)
            yield t
            yield SemiconjTriple(f=t.g, g=t.f, h=v, n=1)
        for _ in range(20):
            w = random_rational_map(rng, int(rng.integers(1, 4)))
            yield make_power_family(w, int(rng.integers(0, 3)), int(rng.integers(1, 4)))
    return [(t, certify_triple(t)) for t in triples()]


class TestCertifyOracle:
    def test_matches_mpmath_on_criterion_8(self):
        for t, residual in criterion_8_certificates():
            oracle = mp_chain_identity_residual([t.h, t.g], [t.f] * t.n + [t.h])
            assert abs(residual - oracle) <= 1e-15
        assert len(criterion_8_certificates()) == 120

    def test_floats_and_arrays_agree_on_criterion_8(self):
        # one evaluator, on Python floats point by point and on numpy arrays:
        # the same +, - and * in the same order, so the same bits.  Below
        # the crossover a job without numpy certifies on floats, this
        # process (numpy loaded) on arrays
        for t, residual in criterion_8_certificates():
            chains = ([t.h, t.g], [t.f] * t.n + [t.h])
            zs = rational._sample(chains)
            assert len(zs) * sum(f.degree for chain in chains for f in chain) \
                <= rational.ARRAY_WORK
            assert residual == rational._chain_residual(chains, zs, True) \
                == rational._chain_residual(chains, zs, False)

    def test_floats_and_arrays_agree_above_the_crossover(self):
        rng = np.random.default_rng(8)
        t = make_ritt_triple(random_rational_map(rng, 4), random_rational_map(rng, 6))
        chains = ([t.h, t.g], [t.f, t.h])
        zs = rational._sample(chains)
        assert len(zs) * sum(f.degree for chain in chains for f in chain) > rational.ARRAY_WORK
        arrays = certify_triple(t)
        assert arrays == rational._chain_residual(chains, zs, False) <= 1e-12

    def test_huge_coefficient_certifies_exactly(self):
        # both sides are 1e200 z^2, a power of two apart after each map;
        # unscaled, |p|^2 + |q|^2 = 1e400 would overflow the doubles
        ident = RationalMap.identity()
        t = SemiconjTriple(f=ident, g=ident, h=RationalMap([0, 0, 1e200]), n=1)
        assert certify_triple(t) == 0.0

    def test_degree_1100_after_a_rescale(self):
        # (z, 1) comes out of the identity with its largest part scaled to
        # 1/2; the 1100th power of a half is below the doubles, unless the
        # rescale brings the larger modulus up to 1 (a few points suffice)
        h, ident = RationalMap(Polynomial.monomial(1100)), RationalMap.identity()
        chains = ([h, ident], [ident, h])
        assert rational._chain_residual(chains, rational._sample(chains)[::400], False) == 0.0

    def test_perturbed_triple_matches_oracle(self):
        t = make_ritt_triple(RationalMap([0, 0, 1]), RationalMap([1, 1]))
        h = RationalMap([0, 0, 1 + 1e-6])
        bad = SemiconjTriple(f=t.f, g=t.g, h=h, n=1)
        oracle = mp_chain_identity_residual([h, t.g], [t.f, h])
        assert oracle > 1e-7
        assert abs(certify_triple(bad) - oracle) <= 1e-15 * max(1.0, oracle)


class TestDegenerateN0:
    def test_accepted_and_certifiable(self):
        h = RationalMap([0, 0, 1])
        t = SemiconjTriple(f=RationalMap([1, 2, 3]), g=RationalMap.identity(),
                           h=h, n=0)
        assert certify_triple(t) <= 1e-13   # h o id = h, no f involved


class TestIterationCount:
    @pytest.mark.parametrize("f", [RationalMap([0, 0, 1]), RationalMap([1, 1])],
                             ids=["square", "moebius"])
    def test_beyond_the_cap_raises_before_forming_the_chain(self, f):
        with pytest.raises(DegreeCapExceeded):
            certify_triple(SemiconjTriple(f=f, g=f, h=f, n=10 ** 20))
        with pytest.raises(DegreeCapExceeded):
            certify_triple(SemiconjTriple(f=f, g=f, h=f, n=DEGREE_CAP + 1))

    def test_negative_raises_value_error(self):
        h = RationalMap([0, 0, 1])
        with pytest.raises(ValueError):
            certify_triple(SemiconjTriple(f=h, g=RationalMap.identity(), h=h, n=-1))


class TestChebyshev:
    def test_goldens(self):
        assert poly_allclose(chebyshev(1), Polynomial([0, 1]))
        assert poly_allclose(chebyshev(2), Polynomial([-1, 0, 2]))
        assert poly_allclose(chebyshev(3), Polynomial([0, -3, 0, 4]))

    def test_leading_coefficient(self):
        for n in range(1, 9):
            assert abs(chebyshev(n).coefficients[-1] - 2 ** (n - 1)) < 1e-9

    def test_cosine_identity(self):
        for n in (2, 5, 7):
            p = chebyshev(n)
            for t in np.linspace(0, math.pi, 9):
                assert abs(p(math.cos(t)) - math.cos(n * t)) < 1e-11

    def test_semigroup(self):
        for m in range(1, 6):
            for n in range(1, 6):
                lhs = compose(chebyshev_map(m), chebyshev_map(n))
                rhs = RationalMap(chebyshev(m * n))
                assert coefficient_residual(lhs, rhs) <= 1e-10
                sw = compose(chebyshev_map(n), chebyshev_map(m))
                assert coefficient_residual(sw, rhs) <= 1e-10


class TestJoukowskiIdentity:
    def test_n1_is_j_itself(self):
        assert verify_joukowski_identity(1) <= 1e-15

    def test_n2_explicit(self):
        lhs = compose(joukowski(), power_map(2))
        target = RationalMap([1, 0, 0, 0, 1], [0, 0, 2])
        assert coefficient_residual(lhs, target) <= 1e-14

    def test_through_degree_eight(self):
        for n in range(1, 9):
            assert verify_joukowski_identity(n) <= 1e-12


class TestHyperbolaExample:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            pakovich_example(2)

    def test_rotation_identity(self):
        ex = pakovich_example(3, n_samples=601)
        assert ex.rotation_residual <= 1e-12

    def test_hyperbola_equation(self):
        ex = pakovich_example(3, n_samples=2001)
        assert ex.hyperbola_residual() <= 1e-10

    def test_trace_invariant_under_map(self):
        ex = pakovich_example(3, n_samples=24001)
        n = len(ex.trace)
        # the middle third: the images of the arc's ends leave the sampled window
        idx = np.arange(n // 3, 2 * n // 3, 3)
        images = embed_points(ex.map.eval_array(ex.trace.values[idx]))
        assert np.max(curves.points_to_polyline_distance(images, ex.trace)) <= 1e-7

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
    @pytest.mark.parametrize("principal", [True, False])
    def test_closed_form_invariance(self, n, principal):
        # f o u = u o J o P_n, so f maps the whole traced branch, ends and all,
        # into u(R), for either primitive root
        ex = pakovich_example(n, n_samples=257, principal=principal)
        assert ex.invariance_residual() <= 1e-12

    @pytest.mark.parametrize("part, k", [("num", 0), ("num", 2), ("num", 4), ("num", 6),
                                         ("den", 1), ("den", 3)])
    def test_perturbed_map_fails_invariance(self, part, k):
        # every nonzero coefficient of f, nudged by 1e-6, shows in the certificate
        ex = pakovich_example(3, n_samples=257)
        num, den = ex.map.num.coefficients.copy(), ex.map.den.coefficients.copy()
        {"num": num, "den": den}[part][k] *= 1 + 1e-6
        ex.map = RationalMap(num, den)
        assert ex.invariance_residual() > 1e-7

    def test_wrong_n_fails_invariance(self):
        ex = pakovich_example(3, n_samples=257)
        ex.map = compose(ex.u, chebyshev_map(4))
        assert ex.invariance_residual() > 1e-7

    def test_invariance_rejects_a_coarse_trace(self):
        assert pakovich_example(3, n_samples=16).invariance_residual() <= 1e-12
        with pytest.raises(ValueError, match="coarse"):
            pakovich_example(3, n_samples=15).invariance_residual()

    def test_conjugate_root_variant(self):
        ex = pakovich_example(3, n_samples=601, principal=False)
        assert ex.rotation_residual <= 1e-12
        assert ex.hyperbola_residual() <= 1e-9

    def test_n4_image_is_a_line_not_a_hyperbola(self):
        ex = pakovich_example(4, n_samples=101)
        assert np.max(np.abs(ex.trace.finite_values.real)) < 1e-12
        with pytest.raises(ValueError, match="line"):
            ex.hyperbola_residual()
