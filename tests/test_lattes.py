import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from invarcurves import cli
from invarcurves.elliptic import (Lattice, invariants_from_lattice,
                                  square_lattice_with_g2)
from invarcurves.lattes import lattes_from_invariants, verify_lattes
from invarcurves.rational import (REPELLING, RationalMap, chordal, coefficient_residual,
                                  fixed_points, iterate)

from conftest import INF, critical_points, is_infinite, lattes_from_lattice

LATTICES = {
    "square": Lattice(2.0, 2j),
    "rectangular": Lattice(2.0, 2.6j),
    "skew": Lattice(1.0, math.sqrt(2) + 1j),
}


class TestConstruction:
    def test_lemniscatic_formula(self):
        # g2 = 4, g3 = 0 gives (w^2+1)^2 / (4w(w^2-1))
        system = lattes_from_lattice(square_lattice_with_g2(4.0))
        target = RationalMap([1, 0, 2, 0, 1], [0, -4, 0, 4])
        assert coefficient_residual(system.map, target) <= 1e-12

    def test_degree_four(self):
        for lat in LATTICES.values():
            assert lattes_from_lattice(lat).map.degree == 4

    def test_infinity_is_fixed(self):
        system = lattes_from_lattice(LATTICES["rectangular"])
        assert system.map(INF) == INF


class TestCertification:
    def test_duplication_residual_all_lattices(self):
        for name, lat in LATTICES.items():
            system = lattes_from_lattice(lat)
            assert verify_lattes(system, n_samples=500) <= 1e-8, name

    def test_square_lattice_certifies_at_every_scale(self):
        # the discriminant test is relative: scaling a lattice by s scales
        # g2^3 and 27 g3^2 alike by s^-12, so no side is degenerate; far
        # from side 1, g2 ~ side^-4 and the Laurent data ~ side^-48 leave
        # the float range, but not in the frame Lambda / 2^e
        for side in (1e-30, 1e-12, 1e-8, 1e-7, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0,
                     1e3, 1e7, 1e12, 1e30, 1e40):
            system = lattes_from_lattice(Lattice(side, side * 1j))
            assert verify_lattes(system, n_samples=100) <= 1e-12, side

    @settings(max_examples=50)     # about 20 ms a job
    @given(x=st.floats(-1.0, 1.0), y=st.floats(0.3, 3.0), k=st.integers(-20, 20))
    def test_lattes_job_certifies_on_lattices_scaled_by_powers_of_two(self, x, y, k):
        # the lattice spanned by 2^k and 2^k (x + iy), any shape but the square
        assume(complex(x, y) != 1j)
        s = math.ldexp(1.0, k)
        lattice = json.dumps({"g1": [s, 0.0], "g2": [s * x, s * y]})
        with tempfile.TemporaryDirectory() as out:
            assert cli.main(["lattes", "--lattice", lattice, "--out", out]) == 0
            assert json.loads((Path(out) / "report.json").read_text())["certified"]

    def test_map_beyond_the_float_range_is_refused(self):
        # at side 1e-40 the coefficient g2^2/16 of f overflows
        with pytest.raises(ValueError):
            lattes_from_lattice(Lattice(1e-40, 1e-40j))

    def test_nan_never_certifies(self):
        system = lattes_from_lattice(LATTICES["square"])

        class NanAtOnePoint:
            # the certificate takes wp one point at a time, wp(2z) and then
            # wp(z) of each sample: the 8th value is wp(z) of the 4th sample
            lattice = system.invariants.lattice
            points = []

            def wp(self, z):
                assert type(z) is complex
                self.points.append(z)
                w = system.invariants.wp(z)
                return complex(math.nan, 0.0) if len(self.points) == 8 else w

        assert verify_lattes(system, n_samples=10) <= 1e-12
        double = NanAtOnePoint()
        assert verify_lattes(type(system)(double, system.map), n_samples=10) == math.inf
        assert len(double.points) == 8

    def test_small_arguments_bypass_doubling(self):
        # with |2z| below the base radius both sides are pure series: this
        # pins the formula itself against the Laurent data
        inv = invariants_from_lattice(LATTICES["square"])
        system = lattes_from_invariants(inv)
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = (rng.uniform(0.02, 0.1) *
                 np.exp(2j * np.pi * rng.uniform()) * inv.base_radius)
            lhs = inv.wp(2 * z)
            rhs = system.map(inv.wp(z))
            assert chordal(lhs, rhs) <= 1e-10

    def test_composition_square_quadruples(self):
        inv = invariants_from_lattice(LATTICES["rectangular"])
        system = lattes_from_invariants(inv)
        f2 = iterate(system.map, 2)
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            z = (rng.uniform(-0.5, 0.5) * inv.lattice.g1
                 + rng.uniform(-0.5, 0.5) * inv.lattice.g2)
            lhs = inv.wp(4.0 * z)
            rhs = f2(inv.wp(z))
            worst = max(worst, chordal(lhs, rhs))
        assert worst <= 1e-7


class TestDynamicalStructure:
    def test_fixed_point_count_is_five(self):
        for lat in LATTICES.values():
            system = lattes_from_lattice(lat)
            assert len(fixed_points(system.map)) == 5

    @pytest.mark.parametrize("k", range(-12, 13))
    def test_fixed_points_scale_with_the_lattice(self, k):
        # wp of the lattice s L at s z is wp of L at z over s^2, so the Lattes
        # map of s L is that of L conjugated by x -> x / s^2; a power of 2
        # keeps the scaling itself free of rounding
        def finite_points(side):
            system = lattes_from_invariants(invariants_from_lattice(Lattice(side, 1j * side)))
            infos = fixed_points(system.map)
            assert all(p.kind == REPELLING for p in infos)
            assert sum(is_infinite(p.location) for p in infos) == 1
            return np.array([p.location for p in infos if not is_infinite(p.location)])

        s = 2.0 ** k
        base, scaled = finite_points(1.0), finite_points(s) * s * s
        assert len(scaled) == 4
        rel = np.abs(scaled[:, None] - base[None, :]) / np.abs(base)
        assert sorted(rel.argmin(axis=1)) == [0, 1, 2, 3]
        assert rel.min(axis=1).max() <= 1e-14

    def test_finite_fixed_points_are_three_torsion_values(self):
        inv = invariants_from_lattice(LATTICES["square"])
        system = lattes_from_invariants(inv)
        torsion = [(i * inv.lattice.g1 + j * inv.lattice.g2) / 3.0
                   for i in range(3) for j in range(3) if (i, j) != (0, 0)]
        torsion_values = [inv.wp(z) for z in torsion]
        for fp in fixed_points(system.map):
            if is_infinite(fp.location):
                continue
            d = min(abs(fp.location - w) for w in torsion_values)
            assert d < 1e-8

    def test_half_period_values_are_critical_values(self):
        inv = invariants_from_lattice(LATTICES["rectangular"])
        system = lattes_from_invariants(inv)
        crit = critical_points(system.map)
        lat = inv.lattice
        for h in (lat.g1 / 2, lat.g2 / 2, (lat.g1 + lat.g2) / 2):
            e = inv.wp(h)
            d = min(chordal(system.map(c), e) for c in crit)
            assert d < 1e-7
