"""Seeded job lists, one per workload.

A job is one `invarcurves` command line plus what the benchmark knows about
its inputs (`meta`), which the checks compare the outputs against.  Every
input is generated here from the seed; the program receives only argv.

A round is a fixed list of job templates: sizes (samples, order, degree) are
fixed per template so the cost mix is the same for every seed, and the seed
picks the lattices, maps and conjugators.  Jobs marked with `fault` are the
kept-failing operations: fixed inputs, independent of the seed, that fail
every time because of a fault in the program.
"""

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np

import refs

WORKLOADS = ("lattes_curves", "linearizers", "semiconjugacies")
SETS_PER_ROUND = 4

# Kept-failing operations and the fault behind each (also in README.md).
FAULT_DISCRIMINANT = ("EllipticInvariants rejects a valid square lattice of side 100: "
                      "the discriminant test |D| <= 1e-12 max(|g2|^3, 1) is absolute "
                      "once g2 is small")
FAULT_CIRCLE_SCALE = ("example 1 at omega 0.01 reports circle: true; circle_fit's "
                      "residual_scale and is_circle are not scale-covariant")
FAULT_HYPERBOLA_WINDOW = ("example 3 --hyperbola-n 5 reports hyperbola_invariant: false; "
                          "_example_3 pushes the central third of a fixed e^+-3 window "
                          "through f and the images leave the traced window")


@dataclass
class Job:
    kind: str
    argv: list
    meta: dict = field(default_factory=dict)
    fault: str = None

    @property
    def label(self):
        return f"{self.kind}:{' '.join(a if len(a) < 24 else a[:20] + '...' for a in self.argv)}"


def _num(x):
    return repr(float(x))


def _lattice_arg(g1, g2):
    return json.dumps({"g1": [g1.real, g1.imag], "g2": [g2.real, g2.imag]})


def _map_arg(m):
    return json.dumps(refs.to_json_map(m))


# ---------------------------------------------------------------------------
# lattes_curves
# ---------------------------------------------------------------------------

def _skew_real_part(rng, rational):
    """Real part of the skew period: p/q with q <= 1000, or sqrt(m)/k with m
    not a square (a quadratic irrational, at least ~1e-7 from any p/q with
    q <= 1000, far outside the program's 1e-9 rationality tolerance)."""
    if rational:
        q = int(rng.integers(2, 1001))
        p = int(rng.integers(1, q))
        return Fraction(p, q), p / q
    while True:
        m = int(rng.integers(2, 200))
        if math.isqrt(m) ** 2 != m:
            break
    k = int(rng.integers(2, 2 * math.isqrt(m) + 3))
    x = math.sqrt(m) / k
    return None, x - math.floor(x)


def _strata(rng, k, lo, hi):
    """k draws, the i-th uniform on the i-th of k equal parts of [lo, hi]."""
    width = (hi - lo) / k
    return [lo + width * (i + rng.uniform()) for i in range(k)]


def lattes_curves(rng):
    jobs = []
    # lattes: rectangular and skew lattices, sides spanning 0.01 .. 10.  Side
    # and height are stratified (job k draws from its own sub-interval) so
    # every round covers the same range of scales and shapes.
    templates = ((1024, "rect"), (2048, "skew-rational"), (4096, "skew-irrational"),
                 (1024, "skew-irrational"), (2048, "rect"), (3072, "skew-rational"))
    sides = _strata(rng, len(templates), -2.0, 1.0)
    heights = _strata(rng, len(templates), 0.7, 1.6)
    for k, (samples, shape) in enumerate(templates):
        side = 10.0 ** sides[k]
        height = heights[(3 * k + 1) % len(templates)]
        if shape == "rect":
            x = 0.0
        else:
            _, x = _skew_real_part(rng, shape == "skew-rational")
        g1 = complex(side, 0.0)
        g2 = complex(side * x, side * height)
        jobs.append(Job("lattes", ["lattes", "--lattice", _lattice_arg(g1, g2),
                                   "--samples", str(samples),
                                   "--seed", str(int(rng.integers(1 << 30)))],
                        {"g1": g1, "g2": g2}))
    # example 1: rectangular lattices <2 omega1, 2i omega2>, doubling-invariant line
    scales = _strata(rng, 2, math.log10(0.3), math.log10(5.0))
    for k, samples in enumerate((1024, 1536)):
        scale = 10.0 ** scales[k]
        aspect = 10.0 ** rng.uniform(-0.12, 0.12)
        om1, om2 = scale * aspect, scale / aspect
        thirds = int(rng.integers(1, 3))
        jobs.append(_example_1(om1, om2, thirds, samples, int(rng.integers(1 << 30))))
    # example 2: skew lattice <1, p + i>; p rational in one job, irrational in the other
    for samples, rational in ((1024, True), (2048, False)):
        frac, p = _skew_real_part(rng, rational)
        jobs.append(Job("example2", ["example", "2", "--p", _num(p), "--samples", str(samples),
                                     "--seed", str(int(rng.integers(1 << 30)))],
                        {"p": p, "rational": frac is not None, "thirds": 1}))
    return jobs


def lattes_curves_kept():
    return [Job("lattes", ["lattes", "--lattice", _lattice_arg(100 + 0j, 100j), "--samples", "2048"],
                {"g1": 100 + 0j, "g2": 100j}, fault=FAULT_DISCRIMINANT),
            _example_1(0.01, 0.01, 1, 1024, 0, fault=FAULT_CIRCLE_SCALE)]


def _example_1(om1, om2, thirds, samples, seed, fault=None):
    return Job("example1", ["example", "1", "--omega1", _num(om1), "--omega2", _num(om2),
                            "--offset-thirds", str(thirds), "--samples", str(samples),
                            "--seed", str(seed)],
               {"g1": complex(2 * om1, 0), "g2": complex(0, 2 * om2), "thirds": thirds},
               fault=fault)


# ---------------------------------------------------------------------------
# linearizers
# ---------------------------------------------------------------------------

def _random_conjugator(rng, kind):
    """Real affine a z + b, or real Moebius (a z + b)/(c z + d) with a pole
    kept off the traced image, small rational coefficients."""
    def r(lo, hi, den=8):
        return Fraction(int(rng.integers(lo * den, hi * den + 1)), den)
    if kind == "affine":
        a = r(1, 3) * (1 if rng.uniform() < 0.5 else -1)
        return [r(-2, 2), a], [Fraction(1)]
    # z -> (a z + b) / (c z + d) with c, d > 0: pole at -d/c < 0, away from
    # exp(R) and away from cosh(sqrt(2R)), which stays in [-1, inf)
    while True:
        a, b = r(-2, 2), r(-2, 2)
        c, d = r(1, 2) / 4, r(1, 2)
        # |M'(1)| >= 1/2 keeps the linearizer's radius of convergence above
        # pi/2 (nearest pole of M(exp(z/c)) at |z| >= pi |c|); smaller radii
        # trip the program's series-reciprocal fault at high order
        if d / c > 1.5 and abs(a * d - b * c) >= (c + d) ** 2 / 2:
            return [b, a], [d, c]


def _conjugate(g, conj):
    """M o g o M^-1 exactly, as (num, den) over Fractions."""
    return refs.compose_exact(refs.compose_exact(conj, g), refs.mobius_inverse(conj))


def _chebyshev(d):
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    for _ in range(d - 1):
        prev, cur = cur, refs.poly_add(refs.poly_mul([0, 2], cur), refs.poly_scale(prev, -1))
    return cur


def _linearizer_job(rng, family, d, conj_kind, order, samples, span):
    """f = M o g o M^-1 for g = z^d (linearizer exp) or T_d (cosh) at M(1);
    F(z) = M(exp(z/c)) or M(cosh(sqrt(2z/c))), c = M'(1), multiplier d or d^2."""
    conj = _random_conjugator(rng, conj_kind)
    g = ([0] * d + [Fraction(1)], [Fraction(1)]) if family == "exp" \
        else (_chebyshev(d), [Fraction(1)])
    f = _conjugate(g, conj)
    a, b, c, dd = refs.mobius_coefficients(conj)
    fixed = float((a + b) / (c + dd))
    cprime = float((a * dd - b * c) / (c + dd) ** 2)
    # the trace covers [-span, span] in the normalized variable t / c
    return Job("poincare", ["poincare", "--map", _map_arg(f), f"--fixed-point={fixed!r},0",
                            "--order", str(order), "--samples", str(samples),
                            "--trace-range", _num(span * abs(cprime)),
                            "--seed", str(int(rng.integers(1 << 30)))],
               {"family": family, "map": f, "conj": conj, "c": cprime,
                "fixed_point": complex(fixed), "multiplier": float(d if family == "exp" else d * d)})


def _random_complex_job(rng, degree, order):
    """f(z) = a + lam (z - a) + sum_k b_k (z - a)^k, with a complex repelling
    multiplier lam well away from the real axis."""
    a = complex(rng.normal(), rng.normal())
    mod = rng.uniform(1.5, 3.0)
    arg = rng.uniform(0.3, math.pi - 0.3) * (1 if rng.uniform() < 0.5 else -1)
    lam = mod * complex(math.cos(arg), math.sin(arg))
    coeffs = [0j, lam] + [complex(rng.normal(), rng.normal()) / k for k in range(2, degree + 1)]
    # expand sum_k coeffs[k] (z - a)^k, plus a
    num = [a]
    for k, ck in enumerate(coeffs):
        term = refs.poly_scale(refs.poly_pow([-a, 1], k), ck)
        num = refs.poly_add(num, term)
    f = (num, [1 + 0j])
    return Job("poincare", ["poincare", "--map", _map_arg(f), f"--fixed-point={a.real!r},{a.imag!r}",
                            "--order", str(order), "--seed", str(int(rng.integers(1 << 30)))],
               {"family": "random", "map": f, "fixed_point": a})


def linearizers(rng):
    jobs = []
    for family, d, conj, order, samples, span in (
            ("exp", 2, "affine", 30, 501, 12.0),
            ("exp", 3, "mobius", 60, 1001, 12.0),
            ("exp", 4, "affine", 90, 1001, 12.0),
            ("exp", 2, "mobius", 120, 1501, 12.0),
            ("cosh", 2, "affine", 30, 501, 60.0),
            ("cosh", 3, "mobius", 60, 1001, 60.0),
            ("cosh", 4, "affine", 90, 1001, 60.0),
            ("cosh", 3, "affine", 120, 1501, 60.0)):
        jobs.append(_linearizer_job(rng, family, d, conj, order, samples, span))
    for degree, order in ((3, 60), (2, 120)):
        jobs.append(_random_complex_job(rng, degree, order))
    return jobs


# ---------------------------------------------------------------------------
# semiconjugacies
# ---------------------------------------------------------------------------

def _random_map(rng, degree, rational):
    """Gaussian-coefficient map of exact degree; rational maps get a
    denominator of the same degree."""
    def poly(d):
        return [complex(rng.normal(), rng.normal()) for _ in range(d + 1)]
    num = poly(degree)
    den = poly(degree) if rational else [1 + 0j]
    return num, den


def _mp_compose(f, g):
    """f o g with coefficients computed at 30 digits, rounded to double."""
    with mp.workdps(refs.DPS):
        mf = ([mp.mpc(c) for c in f[0]], [mp.mpc(c) for c in f[1]])
        mg = ([mp.mpc(c) for c in g[0]], [mp.mpc(c) for c in g[1]])
        num, den = refs.compose_exact(mf, mg)
        return [complex(c) for c in num], [complex(c) for c in den]


def _triple_args(f, g, h, n):
    return ["semiconj", "--verify", _map_arg(f), _map_arg(g), _map_arg(h), str(n)]


def semiconjugacies(rng):
    jobs = []
    for du, dv, ru, rv in ((1, 3, True, False), (2, 2, True, True), (3, 4, False, True)):
        u, v = _random_map(rng, du, ru), _random_map(rng, dv, rv)
        jobs.append(Job("semiconj", ["semiconj", "--u", _map_arg(u), "--v", _map_arg(v)],
                        {"provenance": "composition-swap", "u": u, "v": v}))
    for dw, m, n in ((1, 1, 3), (2, 2, 2)):
        w = _random_map(rng, dw, dw == 2)
        jobs.append(Job("semiconj", ["semiconj", "--w", _map_arg(w), "--m", str(m), "--n", str(n)],
                        {"provenance": "power-family", "w": w, "m": m, "n": n}))
    for n, perturb in ((1, False), (2, False), (1, True), (2, True)):
        u, v = _random_map(rng, 2, True), _random_map(rng, 2 if n == 1 else 1, n == 1)
        f, g = _mp_compose(u, v), _mp_compose(v, u)
        if n == 2:
            g = _mp_compose(g, g)
        h = (list(u[0]), list(u[1]))
        if perturb:
            k = max(range(len(h[0])), key=lambda i: abs(h[0][i]))
            h[0][k] *= 1 + 1e-5
        jobs.append(Job("verify", _triple_args(f, g, h, n),
                        {"provenance": "verify", "perturbed": perturb, "n": n}))
    # n = 3 is the only n the program traces correctly: n = 4 degenerates to
    # a line, n >= 5 hits the traced-window fault kept apart
    jobs.append(Job("example3", ["example", "3", "--hyperbola-n", "3",
                                 "--seed", str(int(rng.integers(1 << 30)))], {"n": 3}))
    return jobs


def semiconjugacies_kept():
    return [Job("example3", ["example", "3", "--hyperbola-n", "5"], {"n": 5},
                fault=FAULT_HYPERBOLA_WINDOW)]


def make_jobs(workload, seed):
    """The round of jobs for a workload; the same seed gives the same round.

    A round is SETS_PER_ROUND job sets, each drawn from its own stream of the
    seed, followed by the kept-failing operations, once each.
    """
    builders = {"lattes_curves": (lattes_curves, lattes_curves_kept),
                "linearizers": (linearizers, list),
                "semiconjugacies": (semiconjugacies, semiconjugacies_kept)}
    build, kept = builders[workload]
    jobs = []
    for k in range(SETS_PER_ROUND):
        jobs += build(np.random.default_rng([seed, WORKLOADS.index(workload), k]))
    return jobs + kept()
