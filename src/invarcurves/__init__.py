"""Numerical laboratory for invariant analytic curves of rational maps:
linearizers at repelling fixed points, Weierstrass elliptic data and the
degree-4 duplication map, semiconjugacy triples, and curve classification.

Submodules load lazily: each is registered in ``sys.modules`` and bound here
as an unexecuted stub, and its body runs on the first attribute access.  A
CLI job thus compiles and runs only the modules its subcommand touches.  The
public names below resolve on first use through the module ``__getattr__``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "rational": ("Polynomial", "RationalMap", "FixedPointInfo", "chordal",
                 "compose", "iterate", "fixed_points", "multiplier", "poly_roots",
                 "maps_equal"),
    "series": ("TruncatedPowerSeries", "compose_rational"),
    "poincare": ("PoincareSeries", "solve_coefficients", "evaluate",
                 "trace_real_axis", "injectivity_check", "multiplier_real_check"),
    "elliptic": ("Lattice", "EllipticInvariants", "invariants_from_lattice",
                 "reduce_to_fundamental"),
    "lattes": ("LattesSystem", "lattes_from_invariants", "verify_lattes"),
    "semiconj": ("SemiconjTriple", "make_ritt_triple", "make_power_family",
                 "chebyshev", "verify_joukowski_identity", "pakovich_example"),
    "geometry": ("CurveTrace",),
    "curves": ("FitReport", "trace_wp_line", "invariance_residual",
               "circle_fit", "algebraic_fit", "transcendence_scan",
               "lattice_commensurability", "example1_xy_check"),
    "examples": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def _lazy(name):
    """Register the submodule as a stub whose body runs on first access
    (the LazyLoader recipe of the importlib documentation)."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _lazy(_name)
del _name


def __getattr__(name):
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value
