"""Batch command line: linearizer runs, duplication-map certification,
semiconjugacy triples, and the three scripted example pipelines.

Exit codes: 0 success, 2 precondition failure, 3 certification failure,
64 usage error.  Reports are JSON with sorted keys; with a fixed seed and
configuration all outputs are byte-identical across runs.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import curves, elliptic, lattes, poincare, semiconj
from .rational import RationalMap, fixed_points

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_CERTIFICATION = 3
EXIT_USAGE = 64

INVARIANCE_TOL = 1e-7
FORMATS = {"json", "csv", "svg"}


class UsageError(Exception):
    pass


class PreconditionError(Exception):
    pass


class CertificationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Per-invocation knobs, read from the common flags (their defaults are
    there); a fixed seed and config gives byte-identical reports."""
    tol: float
    order: int
    samples: int
    seed: int
    out: Path
    formats: set

    def __post_init__(self):
        if self.tol is not None and not self.tol > 0:   # nan too
            raise UsageError("tolerance overrides must be positive")
        if self.samples <= 0 or self.order <= 0:
            raise UsageError("sample counts and orders must be positive")
        if not self.formats <= FORMATS:
            raise UsageError(f"formats must be among {', '.join(sorted(FORMATS))}")

    def write_trace(self, trace, fit=None, fixed_map=None):
        """trace.csv and trace.svg where --format asks for them (the JSON
        reports are always written); the SVG marks fixed_map's fixed points."""
        if "csv" in self.formats:
            _write(self.out, "trace.csv", trace.to_csv())
        if "svg" in self.formats:
            fps = () if fixed_map is None else [p.location for p in fixed_points(fixed_map)]
            _write(self.out, "trace.svg", curves.trace_svg(trace, fit, fps))

    @classmethod
    def from_args(cls, args):
        return cls(tol=args.tol, order=args.order, samples=args.samples,
                   seed=args.seed, out=Path(args.out),
                   formats=set(args.format.split(",")))


def _load_json_arg(text):
    """Inline JSON, or @path / bare path to a JSON file."""
    text = text.strip()
    if not text.startswith(("@", "{", "[")) and not _is_file(text):
        raise UsageError(f"not JSON and not a file: {text!r}")
    try:
        if not text.startswith(("{", "[")):
            text = Path(text.removeprefix("@")).read_text()
        return json.loads(text)
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad JSON argument: {exc}")


def _is_file(text):
    try:
        return Path(text).exists()
    except OSError:     # e.g. a name too long for the file system
        return False


def _map_arg(text):
    try:
        return RationalMap.from_json_dict(_load_json_arg(text))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad rational-map JSON: {exc}")


def _complex_arg(text):
    try:
        if "," in text:
            re, im = text.split(",")
            return complex(float(re), float(im))
        return complex(text)
    except ValueError:
        raise UsageError(f"bad complex number: {text!r}")


def _dump_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(outdir, name, content):
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / name).write_text(content)
    except OSError as exc:      # --out is a file, too long a name, unwritable
        raise UsageError(f"cannot write {name} under --out: {exc}")


class _StageRunner:
    """Runs named pipeline stages so a failure aborts with the stage name."""

    def __init__(self, label):
        self.label = label

    def __call__(self, name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, ArithmeticError) as exc:
            raise PreconditionError(f"{self.label}, stage '{name}': {exc}")


def _common_flags(sub):
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed")
    sub.add_argument("--samples", type=int, default=1024, help="sample count")
    sub.add_argument("--order", type=int, default=60, help="series truncation order")
    sub.add_argument("--tol", type=float, default=None,
                     help="override certification tolerance")
    sub.add_argument("--format", default="json,csv,svg",
                     help="comma list of output formats")


def build_parser():
    parser = _Parser(prog="invarcurves",
                     description="invariant-curve laboratory for rational maps")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("poincare", help="solve a linearizer and trace F(R)")
    p.add_argument("--map", required=True, help="rational map (JSON or @file)")
    p.add_argument("--fixed-point", required=True,
                   help="repelling fixed point, as re,im")
    p.add_argument("--trace-range", type=float, default=10.0,
                   help="trace F on [-T, T]")
    _common_flags(p)

    p = subs.add_parser("lattes", help="duplication map from a lattice")
    p.add_argument("--lattice", required=True, help="lattice JSON or @file")
    _common_flags(p)

    p = subs.add_parser("semiconj", help="build or verify a semiconjugacy triple")
    p.add_argument("--u", help="left factor (JSON or @file)")
    p.add_argument("--v", help="right factor (JSON or @file)")
    p.add_argument("--w", help="power-family rational function")
    p.add_argument("--m", type=int, default=1, help="power-family exponent m")
    p.add_argument("--n", type=int, default=2, help="power-family exponent n")
    p.add_argument("--verify", nargs=4, metavar=("F", "G", "H", "N"),
                   help="verify an explicit triple")
    _common_flags(p)

    p = subs.add_parser("example", help="run a scripted reproduction pipeline")
    p.add_argument("which", type=int, choices=(1, 2, 3))
    p.add_argument("--p", type=float, default=math.sqrt(2.0),
                   help="real irrational part of the skew period (example 2)")
    p.add_argument("--omega1", type=float, default=1.0)
    p.add_argument("--omega2", type=float, default=1.0)
    p.add_argument("--offset-thirds", type=int, default=1,
                   help="offset = (second generator) * thirds / 3")
    p.add_argument("--hyperbola-n", type=int, default=3)
    p.add_argument("--dmax", type=int, default=None)
    _common_flags(p)
    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_poincare(args):
    cfg = RunConfig.from_args(args)
    f = _map_arg(args.map)
    a = _complex_arg(args.fixed_point)
    F = poincare.solve_coefficients(f, a, order=cfg.order)
    outdir = cfg.out
    coeffs = {
        "fixed_point": [F.fixed_point.real, F.fixed_point.imag],
        "multiplier": [F.multiplier.real, F.multiplier.imag],
        "coefficients": [[c.real, c.imag] for c in F.coefficients],
        "radius_estimate": F.radius_estimate,
        "eval_radius": F.eval_radius,
    }
    _write(outdir, "coefficients.json", _dump_json(coeffs))

    report = {"map": f.to_json_dict(), "order": cfg.order}
    if poincare.is_real_multiplier(F.multiplier):
        trace = poincare.trace_real_axis(F, args.trace_range, cfg.samples)
        crossings = poincare.injectivity_check(trace)
        realness = poincare.multiplier_real_check(f, trace)
        cfg.write_trace(trace)
        report["trace"] = {"range": args.trace_range, "samples": cfg.samples}
        report["crossings"] = [
            {"s": c.s, "t": c.t, "point": [c.point.real, c.point.imag],
             "distance": c.distance} for c in crossings]
        report["injective_at_resolution"] = not crossings
        report["repelling_multipliers_on_trace_real"] = realness.all_real
    else:
        report["trace"] = None
        report["note"] = "multiplier not real: F(R) is not traced"
    rng = np.random.default_rng(cfg.seed)
    zs = F.eval_radius * 8 * rng.uniform(0.05, 1.0, 100) \
        * np.exp(2j * np.pi * rng.uniform(size=100))
    report["functional_equation_residual"] = \
        poincare.functional_equation_residual(F, zs)
    _write(outdir, "report.json", _dump_json(report))
    return EXIT_OK


def cmd_lattes(args):
    cfg = RunConfig.from_args(args)
    try:
        lat = elliptic.Lattice.from_json_dict(_load_json_arg(args.lattice))
    except (KeyError, TypeError) as exc:
        raise UsageError(f"bad lattice JSON: {exc!r}")
    inv = elliptic.invariants_from_lattice(lat)
    system = lattes.lattes_from_invariants(inv)
    residual = lattes.verify_lattes(system, n_samples=cfg.samples, seed=cfg.seed)
    outdir = cfg.out
    _write(outdir, "map.json", _dump_json(system.map.to_json_dict()))
    report = {
        "invariants": inv.to_json_dict(),
        "duplication_residual": residual,
        "samples": cfg.samples,
        "certified": residual <= (cfg.tol or 1e-8),
    }
    _write(outdir, "report.json", _dump_json(report))
    if not report["certified"]:
        raise CertificationError(f"duplication residual {residual:.3e}")
    return EXIT_OK


def cmd_semiconj(args):
    cfg = RunConfig.from_args(args)
    tol = cfg.tol or semiconj.IDENTITY_RESIDUAL_TOL
    if args.verify:
        f, g, h = (_map_arg(t) for t in args.verify[:3])
        try:
            n = int(args.verify[3])
        except ValueError:
            raise UsageError(f"iteration count N is not an integer: {args.verify[3]!r}")
        triple = semiconj.SemiconjTriple(f, g, h, n)
        provenance = "verify"
    elif args.u and args.v:
        triple = semiconj.make_ritt_triple(_map_arg(args.u), _map_arg(args.v))
        provenance = "composition-swap"
    elif args.w:
        triple = semiconj.make_power_family(_map_arg(args.w), args.m, args.n)
        provenance = "power-family"
    else:
        raise UsageError("need --u/--v, or --w/--m/--n, or --verify")
    residual = triple.residual()
    outdir = cfg.out
    _write(outdir, "triple.json", _dump_json(triple.to_json_dict()))
    report = {
        "provenance": provenance,
        "identity_residual": residual,
        "tolerance": tol,
        "certified": residual <= tol,
        "degenerate_n0": triple.n == 0,
    }
    _write(outdir, "report.json", _dump_json(report))
    if residual > tol:
        raise CertificationError(f"identity residual {residual:.3e} > {tol:.1e}")
    return EXIT_OK


def _example_1(args, cfg):
    run = _StageRunner("example 1")
    lat = run("lattice", elliptic.Lattice, 2.0 * args.omega1, 2j * args.omega2)
    inv = run("invariants", elliptic.invariants_from_lattice, lat)
    system = run("duplication map", lattes.lattes_from_invariants, inv)
    offset = lat.g2 * args.offset_thirds / 3.0
    trace = run("trace", curves.trace_wp_line, inv, offset, n=cfg.samples)
    dup_res = run("duplication residual", lattes.verify_lattes, system, seed=cfg.seed)
    inv_res = run("invariance", curves.invariance_residual, system.map, trace)
    par_res = run("parametric invariance",
                  curves.parametric_wp_invariance_residual, inv, system.map, offset)
    cf = run("circle fit", curves.circle_fit, trace)
    scan = run("algebraic scan", curves.transcendence_scan, trace, args.dmax or 8)
    xy = run("reflection check", curves.example1_xy_check, inv, offset,
             seed=cfg.seed)
    cfg.write_trace(trace, cf, system.map)
    return {
        "lattice": lat.to_json_dict(),
        "g2": [inv.g2.real, inv.g2.imag],
        "g3": [inv.g3.real, inv.g3.imag],
        "duplication_residual": dup_res,
        "trace_closed": trace.closed,
        "invariance_residual": inv_res,
        "parametric_invariance_residual": par_res,
        "verdict": {
            "invariant": max(inv_res, par_res) <= INVARIANCE_TOL,
            "circle": curves.is_circle(cf),
            "algebraic": scan.first_passing_degree is not None,
            "algebraic_degree": scan.first_passing_degree,
        },
        "circle_fit": cf.to_json_dict(),
        "fit_scan": scan.to_json_dict(),
        "reflection_xy": xy.to_json_dict(),
    }


def _example_2(args, cfg):
    run = _StageRunner("example 2")
    tau = complex(args.p, 1.0)
    lat = run("lattice", elliptic.Lattice, 1.0, tau)
    inv = run("invariants", elliptic.invariants_from_lattice, lat)
    system = run("duplication map", lattes.lattes_from_invariants, inv)
    offset = tau * args.offset_thirds / 3.0
    trace = run("trace", curves.trace_wp_line, inv, offset, n=cfg.samples)
    inv_res = run("invariance", curves.invariance_residual, system.map, trace)
    par_res = run("parametric invariance",
                  curves.parametric_wp_invariance_residual, inv, system.map, offset)
    cf = run("circle fit", curves.circle_fit, trace)
    scan = run("degree scan", curves.transcendence_scan, trace, args.dmax or 6)
    # paired control: the algebraic curve of the rectangular-lattice example
    control_lat = elliptic.Lattice(2.0, 2j)
    control_inv = elliptic.invariants_from_lattice(control_lat)
    control_trace = curves.trace_wp_line(control_inv, control_lat.g2 / 3.0,
                                         n=cfg.samples)
    control = run("control scan", curves.transcendence_scan, control_trace, 8)
    verdictL = run("commensurability", curves.lattice_commensurability,
                   lat, elliptic.Lattice(1.0, tau.conjugate()))
    cfg.write_trace(trace, cf)
    return {
        "lattice": lat.to_json_dict(),
        "invariance_residual": inv_res,
        "parametric_invariance_residual": par_res,
        "verdict": {
            "invariant": max(inv_res, par_res) <= INVARIANCE_TOL,
            "circle": curves.is_circle(cf),
            "algebraic_evidence": not scan.transcendence_evidence,
            "transcendence_evidence": scan.transcendence_evidence,
            "control_passed": control.first_passing_degree is not None,
            "lattices": str(verdictL),
        },
        "circle_fit": cf.to_json_dict(),
        "fit_scan": scan.to_json_dict(),
        "control_scan": control.to_json_dict(),
        "commensurability": verdictL.to_json_dict(),
    }


def _example_3(args, cfg):
    run = _StageRunner("example 3")
    n = args.hyperbola_n
    example = run("hyperbola system", semiconj.pakovich_example, n, cfg.samples)
    jk = [semiconj.verify_joukowski_identity(k) for k in range(1, 9)]
    hyper = run("hyperbola equation", example.hyperbola_residual)
    inv_res = run("invariance", example.invariance_residual)
    cfg.write_trace(example.trace)
    return {
        "n": n,
        "epsilon": [example.epsilon.real, example.epsilon.imag],
        "joukowski_identity_residuals": jk,
        "rotation_identity_residual": example.rotation_residual,
        "hyperbola_equation_residual": hyper,
        "invariance_residual": inv_res,
        "verdict": {
            "joukowski_identity": max(jk) <= 1e-12,
            "rotation_identity": example.rotation_residual <= 1e-12,
            "hyperbola": hyper <= 1e-10,
            "hyperbola_invariant": inv_res <= INVARIANCE_TOL,
        },
        "map": example.map.to_json_dict(),
    }


def cmd_example(args):
    cfg = RunConfig.from_args(args)
    if args.dmax is not None and args.dmax < 1:
        raise UsageError("--dmax must be at least 1")   # so `args.dmax or 8` replaces only None
    builders = {1: _example_1, 2: _example_2, 3: _example_3}
    report = builders[args.which](args, cfg)
    report["example"] = args.which
    report["seed"] = cfg.seed
    _write(cfg.out, f"example{args.which}_report.json", _dump_json(report))
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"poincare": cmd_poincare, "lattes": cmd_lattes,
                   "semiconj": cmd_semiconj, "example": cmd_example}[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionError, ValueError, ArithmeticError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
