"""Checks of one job's outputs against the references in refs.py.

Each check reads the files the program wrote and returns an Outcome: the
problems found (empty when the job is correct) and the checked quantities as
(name, error, tolerance), from which the run's headroom in digits is taken.
No check compares against a stored copy of an earlier output.
"""

import cmath
import csv
import json
import math
import zlib
from pathlib import Path

import numpy as np

import refs

EPS = 2.2e-16
REF_TOL = 1e-10          # program invariants / coefficients vs theta references
WP_TOL = 1e-9            # traced wp values vs theta references (relative)
INVARIANCE_TOL = 1e-7    # the program's own invariance certificate
DUPLICATION_TOL = 1e-8   # the program's own duplication certificate (lattes)
CERTIFY_TOL = 1e-9       # the program's own semiconjugacy certificate
LINEARIZER_TOL = 1e-8    # chordal, trace vs closed form and functional equation
HYPERBOLA_TOL = 1e-10    # relative, points and images vs the hyperbola equation
CIRCLE_TOL = 1e-6        # concyclic deviation below this is a circle or line
SAMPLED_ROWS = 32


class Outcome:
    def __init__(self):
        self.problems = []
        self.quantities = []

    @property
    def ok(self):
        return not self.problems

    def expect(self, cond, message):
        if not cond:
            self.problems.append(message)

    def within(self, name, err, tol):
        err = float(err)
        self.quantities.append((name, err, tol))
        self.expect(err <= tol, f"{name} = {err:.3e} exceeds {tol:.1e}")

    def headroom(self):
        """min log10(tol / error) over the checked quantities, error floored."""
        return min((math.log10(tol / max(err, EPS)) for _, err, tol in self.quantities),
                   default=math.inf)


def read_json(path):
    return json.loads(Path(path).read_text())


def read_trace(path):
    """trace.csv rows as (params, values) with inf for infinite samples."""
    params, values = [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            params.append(float(row["parameter"]))
            values.append(complex(math.inf, 0.0) if row["is_infinite"] == "1"
                          else complex(float(row["re"]), float(row["im"])))
    return params, values


def _pair(xy):
    return complex(xy[0], xy[1])


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _sampled_rows(n, seed):
    rng = np.random.default_rng([seed, n])
    return sorted(int(i) for i in rng.choice(n, size=min(SAMPLED_ROWS, n), replace=False))


def _argv_value(job, flag, default=None):
    argv = job.argv
    return argv[argv.index(flag) + 1] if flag in argv else default


def _job_seed(job):
    return int(_argv_value(job, "--seed", 0))


def _expect_exit(out, code, want):
    out.expect(code == want, f"exit code {code}, expected {want}")
    return code == want


# ---------------------------------------------------------------------------
# lattes_curves
# ---------------------------------------------------------------------------

def _theta(cache, g1, g2):
    key = (g1, g2)
    if key not in cache:
        cache[key] = refs.ThetaLattice(g1, g2)
    return cache[key]


def _invariant_errors(out, theta, g2, g3):
    """g2 and g3 errors in units of wp_scale^2 and wp_scale^3 (their weights)."""
    rg2, rg3 = theta.invariants()
    out.within("g2_vs_theta", abs(g2 - rg2) / theta.wp_scale ** 2, REF_TOL)
    out.within("g3_vs_theta", abs(g3 - rg3) / theta.wp_scale ** 3, REF_TOL)


def check_lattes(job, outdir, code, cache):
    out = Outcome()
    if not _expect_exit(out, code, 0):
        return out
    theta = _theta(cache, job.meta["g1"], job.meta["g2"])
    report = read_json(outdir / "report.json")
    inv = report["invariants"]
    _invariant_errors(out, theta, _pair(inv["g2"]), _pair(inv["g3"]))
    num, den = refs.from_json_map(read_json(outdir / "map.json"))
    want_num, want_den = refs.duplication_coefficients(*theta.invariants())
    out.within("map_vs_duplication_formula",
               max(refs.rel_coefficient_error(num, want_num, theta.wp_scale),
                   refs.rel_coefficient_error(den, want_den, theta.wp_scale)), REF_TOL)
    out.within("duplication_residual", report["duplication_residual"], DUPLICATION_TOL)
    out.expect(report["certified"] is True, "duplication map not certified")
    return out


def _wp_error(theta, got, want):
    """|got - want| relative to max(|want|, wp_scale), so that zeros of wp do
    not inflate the error."""
    return abs(got - want) / max(abs(want), theta.wp_scale)


def _check_wp_trace(out, job, outdir, theta, offset):
    """Sampled trace points equal the theta-function wp on the traced line;
    returns the sampled (t, w) pairs."""
    params, values = read_trace(outdir / "trace.csv")
    rows = _sampled_rows(len(params), _job_seed(job))
    worst = 0.0
    pairs = []
    for i in rows:
        worst = max(worst, _wp_error(theta, values[i], theta.wp(params[i] + offset)))
        pairs.append((params[i], values[i]))
    out.within("trace_vs_theta_wp", worst, WP_TOL)
    return params, values, pairs


def check_example1(job, outdir, code, cache):
    out = Outcome()
    if not _expect_exit(out, code, 0):
        return out
    g1, g2 = job.meta["g1"], job.meta["g2"]
    theta = _theta(cache, g1, g2)
    offset = g2 * job.meta["thirds"] / 3
    report = read_json(outdir / "example1_report.json")
    _invariant_errors(out, theta, _pair(report["g2"]), _pair(report["g3"]))
    params, values, pairs = _check_wp_trace(out, job, outdir, theta, offset)
    # invariance with the reference duplication map: 3 offset is a period, so
    # f(wp(t + offset)) = wp(2t + 2 offset) = wp(offset - 2t), back on the line
    f = refs.duplication_coefficients(*theta.invariants())
    worst = 0.0
    for t, w in pairs:
        worst = max(worst, _wp_error(theta, refs.mp_value(f, w), theta.wp(offset - 2 * t)))
    out.within("image_vs_theta_wp", worst, WP_TOL)
    for key in ("invariance_residual", "parametric_invariance_residual"):
        out.within(key, report[key], INVARIANCE_TOL)
    verdict = report["verdict"]
    out.expect(verdict["invariant"] is True, "example 1 curve not reported invariant")
    # a rectangular lattice and a horizontal doubling-invariant line give an
    # algebraic curve (the reflection construction of the paper)
    out.expect(verdict["algebraic"] is True, "example 1 curve not reported algebraic")
    is_circle = refs.concyclic_deviation(values) <= CIRCLE_TOL
    out.expect(verdict["circle"] == is_circle,
               f"circle verdict {verdict['circle']}, concyclicity test says {is_circle}")
    return out


def check_example2(job, outdir, code, cache):
    out = Outcome()
    if not _expect_exit(out, code, 0):
        return out
    tau = complex(job.meta["p"], 1.0)
    theta = _theta(cache, 1 + 0j, tau)
    report = read_json(outdir / "example2_report.json")
    _check_wp_trace(out, job, outdir, theta, tau * job.meta["thirds"] / 3)
    for key in ("invariance_residual", "parametric_invariance_residual"):
        out.within(key, report[key], INVARIANCE_TOL)
    verdict = report["verdict"]
    out.expect(verdict["invariant"] is True, "example 2 curve not reported invariant")
    out.expect(verdict["control_passed"] is True, "algebraic control not passed")
    want = "COMMENSURABLE" if job.meta["rational"] else "INCOMMENSURABLE-UP-TO(1000)"
    out.expect(verdict["lattices"] == want,
               f"lattices verdict {verdict['lattices']}, expected {want}")
    # transcendence_evidence is neither asserted nor denied
    return out


# ---------------------------------------------------------------------------
# linearizers
# ---------------------------------------------------------------------------

def check_poincare(job, outdir, code, cache):
    out = Outcome()
    if not _expect_exit(out, code, 0):
        return out
    meta = job.meta
    coeffs = read_json(outdir / "coefficients.json")
    report = read_json(outdir / "report.json")
    a = meta["fixed_point"]
    lam = _pair(coeffs["multiplier"])
    out.within("fixed_point", abs(_pair(coeffs["fixed_point"]) - a) / max(abs(a), 1.0), REF_TOL)
    # f'(a) of the map as the program received it (double coefficients)
    given = refs.from_json_map(json.loads(_argv_value(job, "--map")))
    out.within("multiplier_vs_derivative", _rel(lam, refs.mp_derivative(given, a)), REF_TOL)
    out.within("functional_equation_residual", report["functional_equation_residual"],
               LINEARIZER_TOL)
    if meta["family"] == "random":
        out.expect(report["trace"] is None, "a trace was made for a non-real multiplier")
        out.within("series_functional_equation", _series_residual(job, coeffs, lam),
                   LINEARIZER_TOL)
        return out
    out.expect(_rel(lam, meta["multiplier"]) <= 1e-8,
               f"multiplier {lam} is not the conjugation-invariant {meta['multiplier']}")
    params, values = read_trace(outdir / "trace.csv")
    worst = 0.0
    for t, w in zip(params, values):
        ref = refs.closed_form_linearizer(meta["family"], meta["conj"], meta["c"], t)
        worst = max(worst, refs.chordal(w, ref))
    out.within("trace_vs_closed_form", worst, LINEARIZER_TOL)
    want = meta["family"] == "exp"
    out.expect(report["injective_at_resolution"] is want,
               f"injective_at_resolution {report['injective_at_resolution']}, "
               f"expected {want} for the {meta['family']} family")
    return out


def _series_residual(job, coeffs, lam):
    """f(F(z)) against F(lambda z), F the reported series, at seeded z with
    |lambda z| inside the working disc."""
    c = [_pair(x) for x in coeffs["coefficients"]]
    radius = coeffs["eval_radius"] / abs(lam)
    rng = np.random.default_rng(_job_seed(job))
    worst = 0.0
    for _ in range(16):
        z = radius * math.sqrt(rng.uniform(0.01, 1.0)) * cmath.exp(2j * math.pi * rng.uniform())
        fz = np.polynomial.polynomial.polyval(z, c)
        flz = np.polynomial.polynomial.polyval(lam * z, c)
        worst = max(worst, refs.chordal(refs.mp_value(job.meta["map"], fz), flz))
    return worst


# ---------------------------------------------------------------------------
# semiconjugacies
# ---------------------------------------------------------------------------

def _off_circle_points(seed, k=12):
    """Seeded points with |z| in [0.7, 0.95] or [1.05, 1.4]."""
    rng = np.random.default_rng([seed, 7])
    pts = []
    for i in range(k):
        r = rng.uniform(0.7, 0.95) if i % 2 else rng.uniform(1.05, 1.4)
        pts.append(r * cmath.exp(2j * math.pi * rng.uniform()))
    return pts


def _triple(outdir):
    t = read_json(outdir / "triple.json")
    return (refs.from_json_map(t["f"]), refs.from_json_map(t["g"]),
            refs.from_json_map(t["h"]), int(t["n"]))


def _identity_deviation(outdir, points):
    f, g, h, n = _triple(outdir)
    return refs.chain_deviation([h, g], [f] * n + [h], points)


def check_semiconj(job, outdir, code, cache):
    out = Outcome()
    meta = job.meta
    points = _off_circle_points(zlib.crc32(" ".join(job.argv).encode()))
    if meta.get("perturbed"):
        if not _expect_exit(out, code, 3):
            return out
        report = read_json(outdir / "report.json")
        out.expect(report["certified"] is False, "perturbed triple certified")
        out.expect(report["identity_residual"] > report["tolerance"],
                   "perturbed triple residual within tolerance")
        dev = _identity_deviation(outdir, points)
        out.expect(dev > CERTIFY_TOL, f"perturbed triple deviates by only {dev:.2e}")
        return out
    if not _expect_exit(out, code, 0):
        return out
    report = read_json(outdir / "report.json")
    out.expect(report["certified"] is True, "triple not certified")
    out.expect(report["provenance"] == meta["provenance"],
               f"provenance {report['provenance']}, expected {meta['provenance']}")
    out.within("identity_residual", report["identity_residual"], CERTIFY_TOL)
    out.within("identity_off_circle", _identity_deviation(outdir, points), CERTIFY_TOL)
    f, _, h, _ = _triple(outdir)
    if meta["provenance"] == "composition-swap":            # f = u o v, h = u
        u, v = meta["u"], meta["v"]
        out.within("h_vs_construction", refs.chain_deviation([h], [u], points), CERTIFY_TOL)
        out.within("f_vs_construction", refs.chain_deviation([f], [u, v], points), CERTIFY_TOL)
    elif meta["provenance"] == "power-family":              # f = z^m w^n, h = z^n
        m, k, w = meta["m"], meta["n"], meta["w"]
        out.within("h_vs_construction",
                   max(refs.chordal(refs.mp_value(h, z), z ** k) for z in points), CERTIFY_TOL)
        out.within("f_vs_construction",
                   max(refs.chordal(refs.mp_value(f, z), z ** m * refs.mp_value(w, z) ** k)
                       for z in points), CERTIFY_TOL)
    return out


def check_example3(job, outdir, code, cache):
    out = Outcome()
    if not _expect_exit(out, code, 0):
        return out
    n = job.meta["n"]
    report = read_json(outdir / "example3_report.json")
    f = refs.from_json_map(report["map"])
    theta = 2 * math.pi / n
    cos2, sin2 = math.cos(theta) ** 2, math.sin(theta) ** 2

    def off_hyperbola(w):
        x2, y2 = w.real ** 2 / cos2, w.imag ** 2 / sin2
        return abs(x2 - y2 - 1) / (x2 + y2 + 1)

    _, values = read_trace(outdir / "trace.csv")
    rows = _sampled_rows(len(values), _job_seed(job))
    out.within("points_on_hyperbola", max(off_hyperbola(values[i]) for i in rows), HYPERBOLA_TOL)
    images = max(off_hyperbola(refs.mp_value(f, values[i])) for i in rows)
    out.within("images_on_hyperbola", images, HYPERBOLA_TOL)
    verdict = report["verdict"]
    for key in ("joukowski_identity", "rotation_identity", "hyperbola"):
        out.expect(verdict[key] is True, f"example 3 verdict {key} is false")
    out.within("invariance_residual", report["invariance_residual"], INVARIANCE_TOL)
    out.expect(verdict["hyperbola_invariant"] is (images <= HYPERBOLA_TOL),
               f"hyperbola_invariant {verdict['hyperbola_invariant']}, but the images "
               f"lie on the hyperbola to {images:.1e}")
    return out


CHECKS = {"lattes": check_lattes, "example1": check_example1, "example2": check_example2,
          "poincare": check_poincare, "semiconj": check_semiconj, "verify": check_semiconj,
          "example3": check_example3}


def check(job, outdir, code, cache):
    """Outcome of one job; `cache` keeps references across rounds."""
    try:
        return CHECKS[job.kind](job, Path(outdir), code, cache)
    except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        out = Outcome()
        out.expect(False, f"missing or malformed output: {exc!r}")
        return out
