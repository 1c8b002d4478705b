"""Batch command line: linearizer runs, duplication-map certification,
semiconjugacy triples, and the three scripted example pipelines.

Exit codes: 0 success, 2 precondition failure, 3 certification failure,
64 usage error.  Reports are JSON with sorted keys; with a fixed seed and
configuration all outputs are byte-identical across runs.
"""

import argparse
import atexit
import gc
import json
import math
import sys
from pathlib import Path

# lazy stubs: numpy loads with the first of them that a job runs, so the
# import, --help and every usage error found before it run without numpy
from . import elliptic, examples, geometry, lattes, poincare, rational, semiconj

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_CERTIFICATION = 3
EXIT_USAGE = 64

FORMATS = {"json", "csv", "svg"}


class UsageError(Exception):
    pass


class CertificationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive(kind, noun):
    """argparse type: a number of the given kind that is > 0 (nan is not)."""
    def parse(text):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"{noun} must be positive, got {text!r}")
        return value
    parse.__name__ = kind.__name__      # argparse's "invalid int value" message
    return parse


def _finite(parse):
    """argparse type: a value of parse that is a finite number."""
    def finite(text):
        value = parse(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
        return value
    finite.__name__ = parse.__name__
    return finite


def _formats(text):
    formats = set(text.split(","))
    if not formats <= FORMATS:
        raise argparse.ArgumentTypeError(
            f"formats must be among {', '.join(sorted(FORMATS))}, got {text!r}")
    return formats


def _load_json_arg(text):
    """Inline JSON, or @path / bare path to a JSON file."""
    text = text.strip()
    if not text.startswith(("@", "{", "[")) and not _is_file(text):
        raise UsageError(f"not JSON and not a file: {text!r}")
    try:
        if not text.startswith(("{", "[")):
            text = Path(text.removeprefix("@")).read_text()
        return json.loads(text, parse_float=_finite_float, parse_constant=_finite_float,
                          parse_int=_float_range_int)
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad JSON argument: {exc}")


def _finite_float(text):
    """json's float reader, refusing NaN, Infinity and literals beyond the floats."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"not a finite number: {text}")
    return value


def _float_range_int(text):
    """json's int reader, refusing integers beyond the floats, which every
    number of a map or lattice becomes."""
    try:
        float(value := int(text))
    except OverflowError:
        raise ValueError(f"integer beyond the float range ({len(text)} digits)") from None
    return value


def _is_file(text):
    try:
        return Path(text).exists()
    except OSError:     # e.g. a name too long for the file system
        return False


def _map_arg(text):
    data = _load_json_arg(text)
    try:
        return rational.RationalMap.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad rational-map JSON: {exc}")


def _complex_arg(text):
    try:
        if "," in text:
            re, im = text.split(",")
            z = complex(float(re), float(im))
        else:
            z = complex(text)
    except ValueError:
        raise UsageError(f"bad complex number: {text!r}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise UsageError(f"--fixed-point must be a finite number, got {text!r} "
                         "(for a fixed point at infinity, conjugate by 1/z first)")
    return z


def _json_value(obj):
    """The one JSON rule of the reports: a complex is [re, im], an array its
    nested list (of [re, im] pairs if complex), and any other object its
    to_json_dict() or, for a record, the values of its __slots__."""
    if isinstance(obj, complex):        # numpy's complex128 is one
        return [obj.real, obj.imag]
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    if hasattr(obj, "__slots__"):
        return {name: getattr(obj, name) for name in obj.__slots__}
    import numpy as np      # what is left is numpy's, so numpy is loaded
    if isinstance(obj, np.complexfloating):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = np.stack((obj.real, obj.imag), -1)
        return obj.tolist()
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def _dump_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_value) + "\n"


def _write(outdir, name, content):
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / name).write_text(content)
    except OSError as exc:      # --out is a file, too long a name, unwritable
        raise UsageError(f"cannot write {name} under --out: {exc}")


def _write_trace(args, trace, fit=None, fixed_map=None):
    """trace.csv and trace.svg where --format asks for them (the JSON
    reports are always written); the SVG marks fixed_map's fixed points."""
    if "csv" in args.format:
        _write(args.out, "trace.csv", trace.to_csv())
    if "svg" in args.format:
        fps = () if fixed_map is None else [p.location for p in rational.fixed_points(fixed_map)]
        _write(args.out, "trace.svg", geometry.trace_svg(trace, fit, fps))


SUBCOMMANDS = {"poincare": "solve a linearizer and trace F(R)",
               "lattes": "duplication map from a lattice",
               "semiconj": "build or verify a semiconjugacy triple",
               "example": "run a scripted reproduction pipeline"}


def build_parser(argv=()):
    """The parser of the job that argv names: the top parser with only its
    subcommand (and example number).  When argv names none (help, an unknown
    word, no words), with all of them, so help and errors read in full."""
    parser = _Parser(prog="invarcurves",
                     description="invariant-curve laboratory for rational maps")
    subs = parser.add_subparsers(dest="command", required=True)
    parsers = {name: subs.add_parser(name, help=SUBCOMMANDS[name]) for name in
               (argv[:1] if argv[:1] and argv[0] in SUBCOMMANDS else SUBCOMMANDS)}
    if "example" in parsers:
        numbers = parsers.pop("example").add_subparsers(dest="which", required=True)
        for which in [n for n in "123" if n in argv[1:2]] or "123":  # named, else all
            parsers[which] = numbers.add_parser(which)

    def built(*names):
        return [parsers[name] for name in names if name in parsers]

    for pc in built("poincare"):
        pc.add_argument("--map", required=True, help="rational map (JSON or @file)")
        pc.add_argument("--fixed-point", required=True, help="repelling fixed point, as re,im")
        pc.add_argument("--trace-range", type=float, default=10.0, help="trace F on [-T, T]")
        pc.add_argument("--order", type=_positive(int, "series order"), default=60,
                        help="series truncation order")
    for la in built("lattes"):
        la.add_argument("--lattice", required=True, help="lattice JSON or @file")
    for sc in built("semiconj"):
        sc.add_argument("--u", help="left factor (JSON or @file)")
        sc.add_argument("--v", help="right factor (JSON or @file)")
        sc.add_argument("--w", help="power-family rational function")
        sc.add_argument("--m", type=int, default=1, help="power-family exponent m")
        sc.add_argument("--n", type=int, default=2, help="power-family exponent n")
        sc.add_argument("--verify", nargs=4, metavar=("F", "G", "H", "N"),
                        help="verify an explicit triple")
    for e1 in built("1"):
        e1.add_argument("--omega1", type=_finite(_positive(float, "half-period")), default=1.0)
        e1.add_argument("--omega2", type=_finite(_positive(float, "half-period")), default=1.0)
    for e2 in built("2"):
        e2.add_argument("--p", type=_finite(float), default=math.sqrt(2.0),
                        help="real irrational part of the skew period")
    for which, d_max in (("1", 8), ("2", 6)):
        for e in built(which):
            e.add_argument("--offset-thirds", type=int, default=1,
                           help="offset = (second generator) * thirds / 3")
            e.add_argument("--dmax", type=_positive(int, "scan degree"), default=d_max)
    for e3 in built("3"):
        e3.add_argument("--hyperbola-n", type=int, default=3)

    # the shared flags, each on the jobs whose handler reads it
    for sub in built("poincare", "lattes", "semiconj", "1", "2", "3"):
        sub.add_argument("--out", type=Path, default="out", help="output directory")
    for sub in built("poincare", "lattes", "1", "2", "3"):
        sub.add_argument("--seed", type=int, default=0, help="RNG seed")
        sub.add_argument("--samples", type=_positive(int, "sample count"), default=1024,
                         help="sample count")
    for sub in built("lattes", "semiconj"):
        sub.add_argument("--tol", type=_positive(float, "tolerance"), default=None,
                         help="override certification tolerance")
    for sub in built("poincare", "1", "2", "3"):
        sub.add_argument("--format", type=_formats, default="json,csv,svg",
                         help="comma list of output formats")
    return parser


# ---------------------------------------------------------------------------
# Subcommands (the example pipelines are in examples.py)
# ---------------------------------------------------------------------------

def cmd_poincare(args):
    f = _map_arg(args.map)
    a = _complex_arg(args.fixed_point)
    rng = rational.UniformStream(args.seed)     # a negative seed fails before any file is written
    F = poincare.solve_coefficients(f, a, order=args.order)
    _write(args.out, "coefficients.json", _dump_json({
        "fixed_point": F.fixed_point, "multiplier": F.multiplier,
        "coefficients": F.coefficients, "radius_estimate": F.radius_estimate,
        "eval_radius": F.eval_radius}))

    report = {"map": f, "order": args.order}
    if poincare.is_real_multiplier(F.multiplier):
        trace = poincare.trace_real_axis(F, args.trace_range, args.samples)
        crossings = poincare.injectivity_check(trace)
        realness = poincare.multiplier_real_check(f, trace)
        _write_trace(args, trace)
        report["trace"] = {"range": args.trace_range, "samples": args.samples}
        report["crossings"] = crossings
        report["injective_at_resolution"] = not crossings
        report["repelling_multipliers_on_trace_real"] = realness
    else:
        report["trace"] = None
        report["note"] = "multiplier not real: F(R) is not traced"
    import numpy as np
    zs = F.eval_radius * 8 * rng.uniform(0.05, 1.0, 100) \
        * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 100))
    report["functional_equation_residual"] = \
        poincare.functional_equation_residual(F, zs)
    _write(args.out, "report.json", _dump_json(report))
    return EXIT_OK


def cmd_lattes(args):
    data = _load_json_arg(args.lattice)
    try:
        lat = elliptic.Lattice.from_json_dict(data)
    except (KeyError, TypeError) as exc:
        raise UsageError(f"bad lattice JSON: {exc!r}")
    inv = elliptic.invariants_from_lattice(lat)
    system = lattes.lattes_from_invariants(inv)
    residual = lattes.verify_lattes(system, n_samples=args.samples, seed=args.seed)
    _write(args.out, "map.json", _dump_json(system.map))
    report = {
        "invariants": inv,
        "duplication_residual": residual,
        "samples": args.samples,
        "certified": residual <= (args.tol or 1e-8),
    }
    _write(args.out, "report.json", _dump_json(report))
    if not report["certified"]:
        raise CertificationError(f"duplication residual {residual:.3e}")
    return EXIT_OK


def cmd_semiconj(args):
    if args.verify:
        f, g, h = (_map_arg(t) for t in args.verify[:3])
        try:
            n = int(args.verify[3])
        except ValueError:
            raise UsageError(f"iteration count N is not an integer: {args.verify[3]!r}")
        if n < 0:
            raise UsageError(f"iteration count N must be >= 0, got {n}")
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
    tol = args.tol or semiconj.IDENTITY_RESIDUAL_TOL
    residual = triple.residual()
    _write(args.out, "triple.json", _dump_json(triple))
    report = {
        "provenance": provenance,
        "identity_residual": residual,
        "tolerance": tol,
        "certified": residual <= tol,
        "degenerate_n0": triple.n == 0,
    }
    _write(args.out, "report.json", _dump_json(report))
    if residual > tol:
        raise CertificationError(f"identity residual {residual:.3e} > {tol:.1e}")
    return EXIT_OK


def cmd_example(args):
    report, drawing = examples.run(args)
    _write_trace(args, *drawing)
    which = int(args.which)
    report.update(example=which, seed=args.seed)
    _write(args.out, f"example{which}_report.json", _dump_json(report))
    return EXIT_OK


def main(argv=None):
    """Run one job.  On the process's own argv (a cold job, not a caller's), gc.freeze at
    exit spares it the final collections; unlike os._exit, atexit and stdio flush still run."""
    if argv is None:
        atexit.register(gc.freeze)
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
        handler = {"poincare": cmd_poincare, "lattes": cmd_lattes,
                   "semiconj": cmd_semiconj, "example": cmd_example}[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
