import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from invarcurves.elliptic import (
    MAX_HALVINGS, EllipticInvariants, Lattice, _ldexp, invariants_from_lattice,
    laurent_coefficients, reduce_to_fundamental, square_lattice_with_g2)
from invarcurves.rational import chordal

from conftest import INF, eisenstein_sum_brute, scalar_wp, theta_wp, wp_rounding_bound

SQUARE = Lattice(2.0, 2j)
RECT = Lattice(2.0, 2.6j)
SKEW = Lattice(1.0, math.sqrt(2) + 1j)
LATTICES = {"square": SQUARE, "rectangular": RECT, "skew": SKEW}
SQUARE_G2 = invariants_from_lattice(Lattice(1.0, 1j)).g2


def random_cell_points(lat, n, seed=7):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-0.5, 0.5, n) * lat.g1
            + rng.uniform(-0.5, 0.5, n) * lat.g2)


class TestLattice:
    def test_orientation_swap(self):
        lat = Lattice(2j, 2.0)
        assert (lat.g2 / lat.g1).imag > 0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Lattice(1.0, 2.0)
        with pytest.raises(ValueError):
            Lattice(0.0, 1j)

    def test_reduced_basis_spans_same_lattice(self):
        lat = Lattice(1.0, 7.0 + 0.9j)   # far from reduced
        a, b = lat.reduced_basis()
        # both reduced generators are integer combinations and vice versa
        for v in (a, b):
            x, y = lat.coordinates(v)
            assert abs(x - round(x)) < 1e-9 and abs(y - round(y)) < 1e-9
        assert abs(a) <= abs(lat.g1) + 1e-12

    def test_json_round_trip(self):
        lat = Lattice.from_json_dict(SKEW.to_json_dict())
        assert lat.g1 == SKEW.g1 and lat.g2 == SKEW.g2


class TestReduce:
    def test_generator_reduces_to_zero(self):
        assert abs(reduce_to_fundamental(SQUARE, SQUARE.g1)) < 1e-12

    def test_boundary_representative_idempotent(self):
        z = 0.5 * SQUARE.g1 + 0.5 * SQUARE.g2
        r1 = reduce_to_fundamental(SQUARE, z)
        r2 = reduce_to_fundamental(SQUARE, r1)
        assert abs(r1 - r2) < 1e-12
        x, y = SQUARE.coordinates(r1)
        assert -0.5 <= x < 0.5 and -0.5 <= y < 0.5

    def test_periodicity_of_wp_through_reduction(self):
        inv = invariants_from_lattice(SQUARE)
        z1 = 7.3 * SQUARE.g1 - 2.2 * SQUARE.g2 + 0.1
        z2 = 0.1 + 0.3 * SQUARE.g1 - 0.2 * SQUARE.g2
        assert abs(inv.wp(z1) - inv.wp(z2)) < 1e-9 * max(1, abs(inv.wp(z2)))

    def test_coordinates_in_cell(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = complex(rng.normal() * 5, rng.normal() * 5)
            x, y = SKEW.coordinates(reduce_to_fundamental(SKEW, z))
            assert -0.5 - 1e-12 <= x < 0.5 + 1e-12
            assert -0.5 - 1e-12 <= y < 0.5 + 1e-12


class TestInvariants:
    def test_square_lattice_kills_g3(self):
        inv = invariants_from_lattice(SQUARE)
        assert abs(inv.g3) <= 1e-12 * abs(inv.g2)
        assert inv.g2.imag == 0.0

    def test_scaling_homogeneity(self):
        inv = invariants_from_lattice(RECT)
        s = 1.7 - 0.3j
        scaled = invariants_from_lattice(Lattice(RECT.g1 * s, RECT.g2 * s))
        assert abs(scaled.g2 - inv.g2 / s ** 4) <= 1e-12 * abs(inv.g2 / s ** 4)
        assert abs(scaled.g3 - inv.g3 / s ** 6) <= 1e-12 * abs(inv.g3 / s ** 6)

    def test_rectangular_invariants_real_and_match_brute_force(self):
        inv = invariants_from_lattice(RECT)
        assert inv.g2.imag == 0.0 and inv.g3.imag == 0.0
        # brute shells at N = 200: the weight-4 truncation tail is ~1e-6
        # relative (cubic shell decay), weight 6 converges much faster
        g2_brute = 60.0 * eisenstein_sum_brute(RECT, 4, 200)
        g3_brute = 140.0 * eisenstein_sum_brute(RECT, 6, 200)
        assert abs(inv.g2 - g2_brute) <= 5e-6 * abs(g2_brute)
        assert abs(inv.g3 - g3_brute) <= 1e-8 * abs(g3_brute)

    def test_skew_matches_brute_force(self):
        inv = invariants_from_lattice(SKEW)
        g2_brute = 60.0 * eisenstein_sum_brute(SKEW, 4, 200)
        assert abs(inv.g2 - g2_brute) <= 5e-6 * abs(g2_brute)

    def test_laurent_low_coefficients(self):
        inv = invariants_from_lattice(RECT)
        laurent = laurent_coefficients(inv.g2, inv.g3)
        assert laurent[2] == inv.g2 / 20.0
        assert laurent[3] == inv.g3 / 28.0

    @given(g2=st.complex_numbers(max_magnitude=1e6), g3=st.complex_numbers(max_magnitude=1e6))
    def test_laurent_coefficients_are_the_array_recursion(self, g2, g3):
        # Python complex, each coefficient divided as numpy divides (Smith's
        # algorithm with one reciprocal): the values the recursion had on a
        # numpy array, bit for bit, signed zeros included
        c = np.zeros(len(laurent_coefficients(g2, g3)), dtype=complex)
        c[2], c[3] = g2 / 20.0, g3 / 28.0
        for k in range(4, len(c)):
            c[k] = 3.0 * sum((c[m] * c[k - m] for m in range(2, k - 1)), 0j) / ((2 * k + 1) * (k - 3))
        got = laurent_coefficients(g2, g3)
        assert all(type(x) is complex for x in got)
        assert [(x.real.hex(), x.imag.hex()) for x in got] \
            == [(x.real.hex(), x.imag.hex()) for x in c.tolist()]

    def test_laurent_recursion_matches_eisenstein(self):
        # c_k = (2k-1) sum' w^(-2k); weight >= 8 brute sums converge quickly
        inv = invariants_from_lattice(SKEW)
        laurent = laurent_coefficients(inv.g2, inv.g3)
        for k in range(4, 9):
            direct = (2 * k - 1) * eisenstein_sum_brute(SKEW, 2 * k, 150)
            assert abs(laurent[k] - direct) <= 1e-10 * abs(direct)

    def test_degenerate_invariants_rejected(self):
        with pytest.raises(ValueError):
            EllipticInvariants(SQUARE, 3.0, 1.0)   # g2^3 = 27 g3^2


class TestWpEvaluation:
    def test_principal_part(self):
        inv = invariants_from_lattice(SQUARE)
        for z in (1e-3, 1e-3j, 1e-3 + 1e-3j):
            assert abs(inv.wp(z) * z * z - 1.0) < 1e-5

    def test_pole_at_lattice_points(self):
        inv = invariants_from_lattice(SQUARE)
        assert inv.wp(0.0) == INF
        assert inv.wp(SQUARE.g1 + SQUARE.g2) == INF

    @pytest.mark.parametrize("name", list(LATTICES))
    def test_evenness(self, name):
        lat = LATTICES[name]
        inv = invariants_from_lattice(lat)
        for z in random_cell_points(lat, 100):
            a, b = inv.wp(z), inv.wp(-z)
            assert chordal(a, b) < 1e-9

    @pytest.mark.parametrize("name", list(LATTICES))
    def test_double_periodicity(self, name):
        lat = LATTICES[name]
        inv = invariants_from_lattice(lat)
        for z in random_cell_points(lat, 100):
            w = inv.wp(z)
            scale = max(1.0, abs(w))
            assert abs(inv.wp(z + lat.g1) - w) <= 1e-9 * scale
            assert abs(inv.wp(z + lat.g2) - w) <= 1e-9 * scale

    @pytest.mark.parametrize("name", list(LATTICES))
    def test_half_period_identity(self, name):
        # DLMF 23.10: with half-periods w_j and e_j = wp(w_j), for j, k, l
        # distinct, (wp(z + w_j) - e_j)(wp(z) - e_j) = (e_j - e_k)(e_j - e_l),
        # and e_1 + e_2 + e_3 = 0
        lat = LATTICES[name]
        inv = invariants_from_lattice(lat)
        half = [lat.g1 / 2, lat.g2 / 2, (lat.g1 + lat.g2) / 2]
        e = [inv.wp(h) for h in half]
        assert abs(sum(e)) <= 1e-8 * max(map(abs, e))
        for j, k, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            rhs = (e[j] - e[k]) * (e[j] - e[l])
            for z in random_cell_points(lat, 100):
                lhs = (inv.wp(z + half[j]) - e[j]) * (inv.wp(z) - e[j])
                assert abs(lhs - rhs) <= 1e-8 * abs(rhs)

    def test_half_period_line_is_real(self):
        # classical: wp is real on horizontal lines at half-period height
        inv = invariants_from_lattice(RECT)
        for t in np.linspace(0.1, 1.9, 12):
            w = inv.wp(t + RECT.g2 / 2)
            assert abs(w.imag) <= 1e-9 * max(1.0, abs(w))


class TestLemniscaticHelper:
    def test_target_invariants(self):
        lat = square_lattice_with_g2(4.0)
        inv = invariants_from_lattice(lat)
        assert abs(inv.g2 - 4.0) <= 1e-12 * 4.0
        assert abs(inv.g3) <= 1e-13


# the shapes of the benchmark's period lattices: <s, s (x + ih)>, x in [0, 1),
# h in [0.7, 1.6], s in [0.01, 10]; plus one far from reduced
BENCH_LIKE = {
    "rect": Lattice(2.0, 2.6j),
    "skew": Lattice(1.0, 0.37 + 1.1j),
    "small": Lattice(0.01, 0.0093 + 0.016j),
    "tall": Lattice(0.3, 0.15 + 0.465j),
    "flat": Lattice(7.3, 5.913 + 5.256j),
    "unreduced": Lattice(1.0, 7.0 + 0.9j),
}
BENCH_INV = {name: invariants_from_lattice(lat) for name, lat in BENCH_LIKE.items()}
cell_coordinates = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


def _normal_or_zero(x):
    return (np.abs(x) >= np.finfo(float).tiny) | (x == 0) | ~np.isfinite(x)


class TestArrayKernel:
    @given(name=st.sampled_from(sorted(BENCH_LIKE)),
           xys=st.lists(cell_coordinates, min_size=1, max_size=20))
    def test_agrees_with_scalar_loop(self, name, xys):
        # numpy and CPython round complex products and quotients apart, so
        # the two paths agree within the rounding each step can reach, not bit
        # for bit
        inv = BENCH_INV[name]
        zs = np.array([x * inv.lattice.g1 + y * inv.lattice.g2 for x, y in xys])
        for z, wz in zip(zs, inv.wp(zs)):
            wo = scalar_wp(inv, z)
            assert math.isfinite(abs(wz)) == math.isfinite(abs(wo))
            if math.isfinite(abs(wo)):
                assert abs(wz - wo) <= wp_rounding_bound(inv, z)

    @pytest.mark.parametrize("name", sorted(BENCH_LIKE))
    def test_infinity_masks_match_at_lattice_points(self, name):
        inv = BENCH_INV[name]
        lat = inv.lattice
        shortest = lat.shortest_vector_length()
        zs = np.array([m * lat.g1 + n * lat.g2 + t * shortest
                       for m in range(-2, 3) for n in range(-2, 3)
                       for t in (0.0, 5e-15, 1e-13j, 1e-3, 0.3)])
        w = inv.wp(zs)
        assert np.array_equal(np.isinf(w), [math.isinf(abs(scalar_wp(inv, z))) for z in zs])
        assert np.isinf(w).sum() == 25 * 2      # t = 0 and t below 1e-14 |a|
        assert not np.isnan(w).any()

    @pytest.mark.parametrize("name", sorted(BENCH_LIKE))
    def test_scalar_agrees_with_the_array(self, name):
        # a Python number climbs on Python complex, the array kernel's steps
        # one point at a time: the same lattice points and points at
        # infinity, and values that round apart only as the two paths'
        # complex products do (numpy may fuse their multiply-adds)
        inv = BENCH_INV[name]
        lat = inv.lattice
        shortest = lat.shortest_vector_length()
        zs = np.concatenate([random_cell_points(lat, 40, seed=13) * 3.0,
                             [0.0, lat.g1, lat.g1 - 2 * lat.g2, 1e-80,
                              # either side of the modulus taken for a lattice point
                              0.5e-14 * shortest, 3e-14 * shortest, lat.g2 + 3e-14j * shortest,
                              lat.g2 / 2, (lat.g1 + lat.g2) / 2, 1e300, -1e300j,
                              complex(math.inf, 0.0), complex(math.nan, 1.0)]])
        with np.errstate(invalid="ignore"):     # the array's inf and nan entries
            ws = inv.wp(zs)
        for z, wz in zip(zs, ws):
            w = inv.wp(complex(z))
            assert type(w) is complex and w == w        # never nan
            assert (w == INF) == (wz == INF)
            if w != INF:
                assert abs(w - wz) <= wp_rounding_bound(inv, z)
        for z in (1, 0.25, np.float64(0.25), np.complex128(0.25 + 0.1j)):
            assert type(inv.wp(z)) is complex
        assert inv.wp(np.float32(0.25)) == inv.wp(np.array([0.25]))[0]
        assert inv.wp(zs[:40].reshape(4, 10)).shape == (4, 10)
        assert inv.wp(np.array([], dtype=complex)).shape == (0,)

    @pytest.mark.parametrize("side", [1e-40, 1e-12, 1e12, 1e40])
    def test_scalar_agrees_with_the_array_far_from_side_1(self, side):
        # in the frame Lambda / 2^e both paths take the steps they take at
        # side 1, so the bound is that of the lattice scaled by 2^-e (whose
        # own Laurent data, unlike those of the lattice, are floats)
        lat = Lattice(side, side * (0.37 + 1.1j))
        inv = invariants_from_lattice(lat)
        s = math.ldexp(1.0, -math.frexp(lat.shortest_vector_length())[1])
        unit = invariants_from_lattice(Lattice(s * lat.g1, s * lat.g2))
        zs = random_cell_points(lat, 20, seed=14)
        for z, wz in zip(zs, inv.wp(zs)):
            assert abs(inv.wp(complex(z)) - wz) <= wp_rounding_bound(unit, s * z) * s * s

    @pytest.mark.parametrize("e", [-1000, -600, -3, 0, 3, 600, 1000])
    def test_scale_back_is_numpys_ldexp(self, e):
        # the scalar path scales wp back by 2^-2e as the array's np.ldexp
        # does: rounded once, and inf where it overflows
        parts = [0.0, -5e-324, 1e-310, 0.1, 1.0 - 2 ** -53, -3.0, 1e300, math.inf]
        with np.errstate(over="ignore"):
            want = np.ldexp(parts, -2 * e).tolist()
        assert [_ldexp(x, -2 * e) for x in parts] == want

    @given(name=st.sampled_from(sorted(BENCH_LIKE)), k=st.integers(-100, 100),
           xys=st.lists(cell_coordinates, min_size=1, max_size=10))
    def test_power_of_two_scaling_is_exact(self, name, k, xys):
        # wp(2^k z; 2^k L) = 2^-2k wp(z; L): the frame Lambda / 2^e makes
        # every step the same floating-point operation on both sides
        inv = BENCH_INV[name]
        lat = inv.lattice
        zs = np.array([x * lat.g1 + y * lat.g2 for x, y in xys])
        s = math.ldexp(1.0, k)
        scaled = invariants_from_lattice(Lattice(s * lat.g1, s * lat.g2))
        # a part that underflows to a subnormal (in s z, or in a result on
        # either side) keeps fewer bits there, so exactness holds only for
        # points that scale exactly and parts that are normal or zero
        sz = s * zs
        zs = zs[(np.ldexp(sz.real, -k) == zs.real) & (np.ldexp(sz.imag, -k) == zs.imag)]
        w, w2 = inv.wp(zs), scaled.wp(s * zs)
        for a, b in ((w2.real, w.real), (w2.imag, w.imag)):
            normal = _normal_or_zero(a) & _normal_or_zero(b)
            assert np.array_equal(a[normal], np.ldexp(b[normal], -2 * k))

    @given(name=st.sampled_from(sorted(BENCH_LIKE)), log_s=st.floats(-30.0, 30.0),
           phase=st.floats(0.0, 2 * math.pi))
    def test_invariants_scale_covariantly(self, name, log_s, phase):
        # g2(sL) = s^-4 g2(L), g3(sL) = s^-6 g3(L); a weight-6 scale for g3,
        # which vanishes on the square lattice
        inv = BENCH_INV[name]
        s = 10.0 ** log_s * complex(math.cos(phase), math.sin(phase))
        scaled = invariants_from_lattice(Lattice(s * inv.lattice.g1, s * inv.lattice.g2))
        g2, g3 = inv.g2 / s ** 4, inv.g3 / s ** 6
        assert abs(scaled.g2 - g2) <= 1e-13 * abs(g2)
        assert abs(scaled.g3 - g3) <= 1e-13 * max(abs(g3), abs(g2) ** 1.5)

    @pytest.mark.parametrize("name", sorted(BENCH_LIKE))
    def test_no_less_accurate_than_the_scalar_loop(self, name):
        # against 30-digit theta functions: each array value is as close as
        # the loop's, up to the rounding by which the two may differ
        inv = BENCH_INV[name]
        zs = random_cell_points(inv.lattice, 40, seed=11)
        ref = theta_wp(inv.lattice, zs)
        w = inv.wp(zs)
        for z, wz, r in zip(zs, w, ref):
            wo = scalar_wp(inv, z)
            assert abs(wz - r) <= abs(wo - r) + wp_rounding_bound(inv, z)
        assert np.max(np.abs(w - ref) / np.abs(ref)) <= 1e-13

    @pytest.mark.parametrize("side", [1e-30, 1e-12, 1e-7, 1e12, 1e30])
    def test_accurate_at_every_scale(self, side):
        # the scalar loop's Laurent data overflow or underflow here; the
        # frame keeps wp as accurate as at side 1
        lat = Lattice(side, side * (0.37 + 1.1j))
        inv = invariants_from_lattice(lat)
        zs = random_cell_points(lat, 40, seed=12)
        ref = theta_wp(lat, zs)
        assert np.max(np.abs(inv.wp(zs) - ref) / np.abs(ref)) <= 1e-13

    def test_sphere_wrappers_on_arrays(self):
        # wp on the sphere: complex inf at lattice points and at 1e-80
        inv = BENCH_INV["rect"]
        zs = np.array([0.0, inv.lattice.g1, 0.3 + 0.2j, 1e-80])
        w = inv.wp(zs)
        assert np.array_equal(w == INF, [True, True, False, True])
        assert [inv.wp(z) == INF for z in zs] == [True, True, False, True]
        assert abs(inv.wp(zs[2]) - w[2]) <= wp_rounding_bound(inv, zs[2])


class TestDeepHalving:
    # wp halves with the linearizer's pull-back, whose step cap raises; a
    # finite point must never reach it

    def test_unreduced_basis_needs_about_30_halvings(self):
        # no accuracy bound here: in this basis the cell is 1e9 long and
        # the chain's rounding is far above wp_rounding_bound's
        lat = Lattice(1.0, 1e9 + 0.9j)
        inv = invariants_from_lattice(lat)
        zs = random_cell_points(lat, 20)
        halvings = np.log2(np.abs(reduce_to_fundamental(lat, zs)) / inv.base_radius)
        assert 25 <= np.median(halvings) and halvings.max() <= 32
        assert np.isfinite(inv.wp(zs)).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cap_is_above_every_finite_point(self):
        # a cell 1.7e308 long: its far points need over 1 000 halvings;
        # the values mean nothing after so many doublings, but they must
        # come back without an error, a warning or a nan
        lat = Lattice(1.0, 1.7e308j)
        zs = np.array([0.3 + 0.4999 * lat.g2, -0.4999 * lat.g2])
        assert 1000 < math.log2(np.abs(zs).max()) + 3 < MAX_HALVINGS   # radius 1/8
        inv = EllipticInvariants(lat, SQUARE_G2, 0.0)
        assert not np.isnan(inv.wp(zs)).any()
