"""The pipelines of `invarcurves example 1|2|3`, loaded by example jobs only."""

from . import curves, elliptic, lattes, semiconj

INVARIANCE_TOL = 1e-7


def _stages(label):
    """A runner of named pipeline stages: a failure aborts with the stage name."""
    def run(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"{label}, stage '{name}': {exc}") from exc
    return run


def _wp_line(args, run, lat, offset):
    """Examples 1 and 2 on the wp-image of the line through offset, up to the
    degree scan (to --dmax): the invariants, the Lattes system, the trace and
    the report keys the two examples have in common."""
    inv = run("invariants", elliptic.invariants_from_lattice, lat)
    system = run("duplication map", lattes.lattes_from_invariants, inv)
    trace = run("trace", curves.trace_wp_line, inv, offset, n=args.samples)
    inv_res = run("invariance", curves.invariance_residual, system.map, trace)
    par_res = run("parametric invariance",
                  curves.parametric_wp_invariance_residual, inv, system.map, offset)
    cf = run("circle fit", curves.circle_fit, trace)
    scan = run("degree scan", curves.transcendence_scan, trace, args.dmax)
    return inv, system, trace, {
        "lattice": lat,
        "invariance_residual": inv_res,
        "parametric_invariance_residual": par_res,
        "verdict": {
            "invariant": max(inv_res, par_res) <= INVARIANCE_TOL,
            "circle": curves.is_circle(cf),
        },
        "circle_fit": cf,
        "fit_scan": scan,
    }


def _example_1(args):
    run = _stages("example 1")
    lat = run("lattice", elliptic.Lattice, 2.0 * args.omega1, 2j * args.omega2)
    offset = lat.g2 * args.offset_thirds / 3.0
    inv, system, trace, report = _wp_line(args, run, lat, offset)
    dup_res = run("duplication residual", lattes.verify_lattes, system, seed=args.seed)
    xy = run("reflection check", curves.example1_xy_check, inv, offset, seed=args.seed)
    degree = report["fit_scan"].first_passing_degree
    report["verdict"].update(algebraic=degree is not None, algebraic_degree=degree)
    report.update(g2=inv.g2, g3=inv.g3, duplication_residual=dup_res,
                  trace_closed=trace.closed, reflection_xy=xy)
    return report, (trace, report["circle_fit"], system.map)


def _example_2(args):
    run = _stages("example 2")
    tau = complex(args.p, 1.0)
    lat = run("lattice", elliptic.Lattice, 1.0, tau)
    _, _, trace, report = _wp_line(args, run, lat, tau * args.offset_thirds / 3.0)
    # paired control: the algebraic curve of the rectangular-lattice example
    control_lat = elliptic.Lattice(2.0, 2j)
    control_inv = elliptic.invariants_from_lattice(control_lat)
    control_trace = curves.trace_wp_line(control_inv, control_lat.g2 / 3.0,
                                         n=args.samples)
    control = run("control scan", curves.transcendence_scan, control_trace, 8)
    verdictL = run("commensurability", curves.lattice_commensurability,
                   lat, elliptic.Lattice(1.0, tau.conjugate()))
    evidence = report["fit_scan"].transcendence_evidence
    report["verdict"].update(algebraic_evidence=not evidence, transcendence_evidence=evidence,
                             control_passed=control.first_passing_degree is not None,
                             lattices=str(verdictL))
    report.update(control_scan=control, commensurability=verdictL)
    return report, (trace, report["circle_fit"])


def _example_3(args):
    run = _stages("example 3")
    n = args.hyperbola_n
    example = run("hyperbola system", semiconj.pakovich_example, n, args.samples)
    jk = [semiconj.verify_joukowski_identity(k) for k in range(1, 9)]
    hyper = run("hyperbola equation", example.hyperbola_residual)
    inv_res = run("invariance", example.invariance_residual)
    return {
        "n": n,
        "epsilon": example.epsilon,
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
        "map": example.map,
    }, (example.trace,)


def run(args):
    """The report of example args.which and (trace, fit, fixed_map) to draw."""
    return {"1": _example_1, "2": _example_2, "3": _example_3}[args.which](args)
