"""Per-layer spans for the traced run.

Spans are timed from outside the program, around calls into the public
functions of each module (the layers).  A wrapper is installed on the
defining module and on every other module that imported the function under
its own name, so calls through either name are seen.  Spans are kept in
memory as (name, start, end, parent) and written out when the run ends;
self time is a span's duration minus that of its child spans.
"""

import sys
import time
from array import array

import numpy as np

# Counters map a call's arguments to the amount of work it was given.
def _one(args, kwargs):
    return 1


def _array_points(args, kwargs):
    return int(np.size(args[1]))


def _polyline_points(args, kwargs):
    return len(np.atleast_2d(args[0]))


def _polyline_segments(args, kwargs):
    trace = args[1]
    return len(trace) - (0 if trace.closed else 1)


def _trace_segments(args, kwargs):
    return len(args[0]) - 1


def _chain_points(args, kwargs):
    """2 * max chain degree + 5 unless n_points is given, as in the program."""
    n_points = kwargs.get("n_points", args[2] if len(args) > 2 else None)
    if n_points:
        return int(n_points)
    degrees = [int(np.prod([f.degree for f in chain]) or 1) for chain in args[:2]]
    return 2 * max(degrees) + 5


# (module, attribute, span name, counters); a dotted attribute is a method.
TARGETS = (
    ("elliptic", "EllipticInvariants.wp", "elliptic.wp", {"points": _one}),
    ("elliptic", "invariants_from_lattice", "elliptic.invariants_from_lattice", {}),
    ("lattes", "verify_lattes", "lattes.verify_lattes", {}),
    ("lattes", "lattes_from_invariants", "lattes.lattes_from_invariants", {}),
    ("curves", "trace_wp_line", "curves.trace_wp_line", {}),
    ("curves", "points_to_polyline_distance", "curves.points_to_polyline_distance",
     {"points": _polyline_points, "segments": _polyline_segments}),
    ("curves", "invariance_residual", "curves.invariance_residual", {}),
    ("curves", "parametric_wp_invariance_residual", "curves.parametric_wp_invariance_residual", {}),
    ("curves", "algebraic_fit", "curves.algebraic_fit", {"calls": _one}),
    ("curves", "circle_fit", "curves.circle_fit", {}),
    ("curves", "example1_xy_check", "curves.example1_xy_check", {}),
    ("curves", "CurveTrace.to_csv", "curves.emit", {}),
    ("curves", "trace_svg", "curves.emit", {}),
    ("poincare", "solve_coefficients", "poincare.solve_coefficients", {}),
    ("poincare", "evaluate", "poincare.evaluate", {"points": _one}),
    ("poincare", "trace_real_axis", "poincare.trace_real_axis", {}),
    ("poincare", "injectivity_check", "poincare.injectivity_check", {"segments": _trace_segments}),
    ("poincare", "functional_equation_residual", "poincare.functional_equation_residual", {}),
    ("poincare", "multiplier_real_check", "poincare.multiplier_real_check", {}),
    ("series", "compose_rational", "series.compose_rational", {"calls": _one}),
    ("rational", "RationalMap.__call__", "rational.RationalMap.call", {"points": _one}),
    ("rational", "RationalMap.eval_array", "rational.RationalMap.eval_array", {"points": _array_points}),
    ("rational", "chain_identity_residual", "rational.chain_identity_residual", {"points": _chain_points}),
    ("rational", "compose", "rational.compose", {}),
    ("rational", "fixed_points", "rational.fixed_points", {}),
    ("rational", "poly_roots", "rational.poly_roots", {}),
    ("rational", "identity_residual", "rational.identity_residual", {}),
    ("semiconj", "certify_triple", "semiconj.certify_triple", {}),
    ("semiconj", "make_ritt_triple", "semiconj.make_triple", {}),
    ("semiconj", "make_power_family", "semiconj.make_triple", {}),
    ("semiconj", "pakovich_example", "semiconj.pakovich_example", {}),
    ("semiconj", "verify_joukowski_identity", "semiconj.verify_joukowski_identity", {}),
    ("cli", "main", "cli.main", {"calls": _one}),
)

# Reported per-layer metrics, named "<span>.<statistic>": s is inclusive
# time, self_s inclusive minus child spans, us_per_point inclusive time per
# counted point, any other statistic a counter of TARGETS.
METRICS = (
    ("elliptic.wp", ("points", "self_s", "us_per_point")),
    ("elliptic.invariants_from_lattice", ("s",)),
    ("lattes.verify_lattes", ("self_s",)),
    ("lattes.lattes_from_invariants", ("s",)),
    ("curves.trace_wp_line", ("self_s",)),
    ("curves.points_to_polyline_distance", ("s", "points", "segments")),
    ("curves.invariance_residual", ("self_s",)),
    ("curves.parametric_wp_invariance_residual", ("self_s",)),
    ("curves.algebraic_fit", ("s", "calls")),
    ("curves.circle_fit", ("s",)),
    ("curves.example1_xy_check", ("self_s",)),
    ("curves.emit", ("s",)),
    ("poincare.solve_coefficients", ("self_s",)),
    ("poincare.evaluate", ("points", "us_per_point")),
    ("poincare.trace_real_axis", ("self_s",)),
    ("poincare.injectivity_check", ("s", "segments")),
    ("poincare.functional_equation_residual", ("self_s",)),
    ("poincare.multiplier_real_check", ("self_s",)),
    ("series.compose_rational", ("s", "calls")),
    ("rational.RationalMap.call", ("points", "us_per_point")),
    ("rational.RationalMap.eval_array", ("points",)),
    ("rational.chain_identity_residual", ("s", "points")),
    ("rational.compose", ("s",)),
    ("rational.fixed_points", ("s",)),
    ("rational.poly_roots", ("s",)),
    ("rational.identity_residual", ("s",)),
    ("semiconj.certify_triple", ("self_s",)),
    ("semiconj.make_triple", ("s",)),
    ("semiconj.pakovich_example", ("self_s",)),
    ("semiconj.verify_joukowski_identity", ("s",)),
    ("cli.main", ("s", "calls")),
)
UNITS = {"s": "s", "self_s": "s", "us_per_point": "us"}   # counters: "count"


def layer_metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    return [(f"{span}.{stat}", UNITS.get(stat, "count"))
            for span, stats in METRICS for stat in stats] + list(OVERHEAD_METRICS)


# Metrics of the tracing itself, per round.
OVERHEAD_METRICS = (
    ("trace.untraced_round_s", "s"),
    ("trace.traced_round_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Span recorder; install() wraps the targets, uninstall() restores them."""

    package = "invarcurves"

    def __init__(self):
        self.span_names = sorted({t[2] for t in TARGETS})
        self._ids = {n: i for i, n in enumerate(self.span_names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = [-1]
        self._patches = []

    def _wrap(self, span, fn, counters):
        nid = self._ids[span]
        keyed = [((span, stat), counter) for stat, counter in counters.items()]
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            for key, counter in keyed:
                counts[key] = counts.get(key, 0) + counter(args, kwargs)
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def install(self):
        modules = {n: m for n, m in sys.modules.items()
                   if n == self.package or n.startswith(self.package + ".")}
        for mod_name, attr, span, counters in TARGETS:
            owner = modules[f"{self.package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(span, original, counters))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original, counters)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32), np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=float), np.frombuffer(self.end, dtype=float))

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, span_names=np.array(self.span_names), name=name,
                            parent=parent, start=start, end=end)

    def layer_metrics(self, rounds):
        """Per-layer metrics per traced round."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        n = len(self.span_names)
        incl = np.bincount(name, weights=dur, minlength=n)
        excl = np.bincount(name, weights=self_time, minlength=n)
        out = {}
        for span, stats in METRICS:
            i = self._ids[span]
            for stat in stats:
                if stat == "s":
                    value = incl[i] / rounds
                elif stat == "self_s":
                    value = excl[i] / rounds
                elif stat == "us_per_point":
                    points = self.counts.get((span, "points"), 0)
                    value = 1e6 * incl[i] / points if points else 0.0
                else:
                    value = self.counts.get((span, stat), 0) / rounds
                out[f"{span}.{stat}"] = {"value": float(value), "unit": UNITS.get(stat, "count")}
        return out
