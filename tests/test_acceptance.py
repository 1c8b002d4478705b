"""Acceptance gate: one test per criterion, each printing a PASS line.

Criterion 6's degree-scan clause is implemented exactly as stated and is
expected to fail at double precision: the skew-lattice curve, although
provably transcendental (its incommensurability witness is part of the same
criterion and passes), is an analytic curve on a wide annulus, so degree
4..6 algebraic approximants fit it with held-out residuals far below the
fixed 1e-3 threshold (measured: 2e-6 at degree 4, 7e-14 at degree 6; the
curve's modes decay like exp(-2*pi/3) per Fourier order along the trace,
so ~(d+1)(d+2)/4 polynomial degrees of freedom reach machine depth well
before d = 6).  The test is left honest rather than tuned to go green;
demos/04_transcendental_invariant_curve.py walks through the measurement.
"""

import json
import math

import numpy as np

from invarcurves import cli, curves, elliptic, lattes, poincare, semiconj
from invarcurves.rational import (RationalMap, RootConvergenceError, chordal,
                                  coefficient_residual, compose, embed_points, fixed_points,
                                  iterate, REPELLING)

from conftest import (is_infinite, lattes_from_lattice, random_rational_map,
                      random_sphere_points)

SQUARE_MAP = RationalMap([0, 0, 1])
SHIFTED_MAP = RationalMap([-2, 0, 1])


def _pass(n, message):
    print(f"\nACCEPTANCE CRITERION {n:02d}: PASS - {message}")


def test_criterion_01_poincare_golden_exponential():
    F = poincare.solve_coefficients(SQUARE_MAP, 1.0, order=20)
    worst = max(abs(F.coefficients[k] * math.factorial(k) - 1.0)
                for k in range(1, 21))
    assert worst <= 1e-12
    rng = np.random.default_rng(101)
    zs = 5.0 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    resid = poincare.functional_equation_residual(F, zs)
    assert resid <= 1e-9
    _pass(1, f"coefficients match 1/k! (err {worst:.1e}), "
             f"functional-equation residual {resid:.1e} <= 1e-9")


def test_criterion_02_poincare_golden_cosh():
    F = poincare.solve_coefficients(SHIFTED_MAP, 2.0, order=15)
    assert abs(F.multiplier - 4.0) <= 1e-12
    c1 = F.coefficients[1]
    worst = max(abs((F.coefficients[k] / c1) * math.factorial(2 * k) / 2.0 - 1.0)
                for k in range(1, 16))
    assert worst <= 1e-12
    _pass(2, f"coefficient ratios match 2/(2k)! to {worst:.1e}")


def test_criterion_03_poincare_random_maps():
    rng = np.random.default_rng(303)
    checked = 0
    worst = 0.0
    for _ in range(100):        # a cap on the draws: seed 303 needs 20
        f = random_rational_map(rng, int(rng.integers(2, 4)))
        try:
            target = next(fp for fp in fixed_points(f)
                          if fp.kind == REPELLING and not is_infinite(fp.location))
        except (StopIteration, ValueError, RootConvergenceError):
            continue
        F = poincare.solve_coefficients(f, target.location, order=40)
        rho = F.radius_estimate
        radii = rho * 2.0 ** (3.0 * rng.uniform(0, 1, 100))
        zs = radii * np.exp(2j * np.pi * rng.uniform(size=100))
        resid = poincare.functional_equation_residual(F, zs)
        worst = max(worst, resid)
        assert resid <= 1e-8
        checked += 1
        if checked == 20:
            break
    assert checked == 20
    _pass(3, f"20 random repelling linearizers certified, worst residual {worst:.1e}")


def test_criterion_04_lattes_certification():
    worst = 0.0
    for lat in (elliptic.Lattice(2.0, 2j), elliptic.Lattice(2.0, 2.6j),
                elliptic.Lattice(1.0, math.sqrt(2) + 1j)):
        system = lattes_from_lattice(lat)
        resid = lattes.verify_lattes(system, n_samples=500, seed=4)
        worst = max(worst, resid)
        assert resid <= 1e-8
    lemni = lattes_from_lattice(elliptic.square_lattice_with_g2(4.0))
    target = RationalMap([1, 0, 2, 0, 1], [0, -4, 0, 4])
    coeff_err = coefficient_residual(lemni.map, target)
    assert coeff_err <= 1e-12
    _pass(4, f"duplication residual {worst:.1e} <= 1e-8 on 3 lattices; "
             f"lemniscatic coefficients to {coeff_err:.1e}")


def test_criterion_05_example_1_verdict():
    lat = elliptic.Lattice(2.0, 2j)
    inv = elliptic.invariants_from_lattice(lat)
    system = lattes.lattes_from_invariants(inv)
    offset = lat.g2 / 3.0
    trace = curves.trace_wp_line(inv, offset, n=1024)
    assert trace.closed
    par = curves.parametric_wp_invariance_residual(inv, system.map, offset, n=256)
    assert par <= 1e-7
    cf = curves.circle_fit(trace)
    assert cf.residual > 1e-3
    scan = curves.transcendence_scan(trace, 8)
    assert scan.first_passing_degree is not None
    assert scan.first_passing_degree <= 8
    assert min(r.residual for r in scan.reports) <= 1e-6
    xy = curves.example1_xy_check(inv, offset)
    assert xy.periodicity_residual <= 1e-8
    _pass(5, f"closed trace; parametric invariance {par:.1e}; circle residual "
             f"{cf.residual:.1e} > 1e-3; algebraic at degree "
             f"{scan.first_passing_degree}; reflection periodicity "
             f"{xy.periodicity_residual:.1e}")


def test_criterion_06_example_2_invariance_and_lattices():
    tau = complex(math.sqrt(2.0), 1.0)
    lat = elliptic.Lattice(1.0, tau)
    inv = elliptic.invariants_from_lattice(lat)
    system = lattes.lattes_from_invariants(inv)
    offset = tau / 3.0
    par = curves.parametric_wp_invariance_residual(inv, system.map, offset, n=256)
    assert par <= 1e-7
    verdict = curves.lattice_commensurability(
        lat, elliptic.Lattice(1.0, tau.conjugate()), q_max=1000)
    assert not verdict.commensurable
    coords = sorted(verdict.coordinates.T.ravel().tolist())
    assert abs(coords[0] + 1.0) < 1e-12            # hand-derived b = -1
    assert abs(coords[-1] - 2.0 * math.sqrt(2)) < 1e-12   # hand-derived a = 2 sqrt 2
    _pass(6, f"invariance residual {par:.1e} <= 1e-7; conjugate lattices "
             f"INCOMMENSURABLE-UP-TO(1000) with coordinates (2*sqrt2, -1)")


def test_criterion_06_example_2_transcendence_scan():
    """Faithful to the stated criterion; expected to FAIL (see module
    docstring and the build ledger): the curve admits algebraic approximants
    below the threshold from degree 4 on, so 'never drops below 1e-3' cannot
    hold at double precision even though the curve is transcendental."""
    tau = complex(math.sqrt(2.0), 1.0)
    inv = elliptic.invariants_from_lattice(elliptic.Lattice(1.0, tau))
    trace = curves.trace_wp_line(inv, tau / 3.0, n=1024)
    scan = curves.transcendence_scan(trace, 6)
    control_inv = elliptic.invariants_from_lattice(elliptic.Lattice(2.0, 2j))
    control_trace = curves.trace_wp_line(control_inv, control_inv.lattice.g2 / 3.0,
                                         n=1024)
    control = curves.transcendence_scan(control_trace, 8)
    assert control.first_passing_degree is not None   # paired control passes
    residuals = {r.degree: r.residual for r in scan.reports}
    assert scan.transcendence_evidence, (
        "held-out residuals per degree: "
        + ", ".join(f"d={d}: {r:.2e}" for d, r in residuals.items())
        + " -- degrees >= 4 fall below the 1e-3 threshold; the curve is "
          "transcendental (see the commensurability half of this criterion) "
          "but numerically indistinguishable from algebraic at these degrees")
    _pass(6, "transcendence scan kept every residual >= 1e-3")


def test_criterion_07_example_3_verdict():
    worst_jk = max(semiconj.verify_joukowski_identity(n) for n in range(1, 9))
    assert worst_jk <= 1e-12
    ex = semiconj.pakovich_example(3, n_samples=24001)
    assert ex.rotation_residual <= 1e-12
    hyper = ex.hyperbola_residual()
    assert hyper <= 1e-10
    n = len(ex.trace)
    idx = np.arange(n // 3, 2 * n // 3, 3)
    images = embed_points(ex.map.eval_array(ex.trace.values[idx]))
    inv_res = float(np.max(curves.points_to_polyline_distance(images, ex.trace)))
    assert inv_res <= 1e-7
    _pass(7, f"halved-sum identities to {worst_jk:.1e}; rotation identity "
             f"{ex.rotation_residual:.1e}; hyperbola equation {hyper:.1e}; "
             f"invariance {inv_res:.1e}")


def test_criterion_08_semiconjugacy_suite(tmp_path):
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(50):
        u = random_rational_map(rng, int(rng.integers(1, 4)))
        v = random_rational_map(rng, int(rng.integers(1, 4)))
        t = semiconj.make_ritt_triple(u, v)
        r1 = t.residual()
        swapped = semiconj.SemiconjTriple(f=t.g, g=t.f, h=v, n=1)
        r2 = swapped.residual()
        worst = max(worst, r1, r2)
        assert r1 <= 1e-9 and r2 <= 1e-9
    for _ in range(20):
        w = random_rational_map(rng, int(rng.integers(1, 4)))
        t = semiconj.make_power_family(w, int(rng.integers(0, 3)),
                                       int(rng.integers(1, 4)))
        worst = max(worst, t.residual())
        assert t.residual() <= 1e-9
    # corrupted-h negative control through the CLI contract
    code = cli.main([
        "semiconj", "--verify",
        json.dumps({"num": [[1, 0], [2, 0], [1, 0]], "den": [[1, 0]]}),
        json.dumps({"num": [[1, 0], [0, 0], [1, 0]], "den": [[1, 0]]}),
        json.dumps({"num": [[0, 0], [1, 0], [1, 0]], "den": [[1, 0]]}),
        "1", "--out", str(tmp_path / "neg")])
    assert code == 3
    _pass(8, f"50 composition-swap + 20 power-family triples certified "
             f"(worst {worst:.1e}); swapped triples certified; corrupted h "
             f"exits 3")


def test_criterion_09_algebra_suite():
    rng = np.random.default_rng(909)
    for _ in range(50):
        f = random_rational_map(rng, int(rng.integers(2, 6)))
        assert len(fixed_points(f)) == f.degree + 1
    worst = 0.0
    for _ in range(10):
        f = random_rational_map(rng, int(rng.integers(2, 4)))
        g = random_rational_map(rng, int(rng.integers(2, 4)))
        h = compose(f, g)
        for z in random_sphere_points(rng, 100):
            worst = max(worst, chordal(h(z), f(g(z))))
        assert worst <= 1e-10
        assert coefficient_residual(
            iterate(f, 2), compose(f, f)) <= 1e-10
    _pass(9, f"fixed-point counts equal degree+1 on 50 maps; compose-eval "
             f"consistency {worst:.1e} <= 1e-10")


def test_criterion_10_determinism(tmp_path):
    for which in (1, 2, 3):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{which}{tag}"
            args = ["example", str(which), "--out", str(out), "--seed", "11"]
            if which != 3:
                args += ["--samples", "512"]
            assert cli.main(args) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names and names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), \
                f"example {which}: {name} differs between identical runs"
    _pass(10, "all three example pipelines emit byte-identical outputs "
              "across repeated seeded runs")
