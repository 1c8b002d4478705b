"""Start-up guards: a cold job runs only the modules its subcommand needs,
and the CLI's front end (import, help, usage errors) none of them, nor numpy.

Each case runs a fresh interpreter, since the test process itself has long
since loaded every module.  Submodules are registered in sys.modules as
lazy stubs; a stub's body has not run while its type is not ModuleType.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import invarcurves

SRC = str(Path(invarcurves.__file__).resolve().parents[1])
SQUARE_JSON = json.dumps({"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]]})
SHIFT_JSON = json.dumps({"num": [[1, 0], [1, 0]], "den": [[1, 0]]})
LATTICE_JSON = json.dumps({"g1": [2.0, 0.0], "g2": [0.0, 2.0]})
# z^2 - 2 at its repelling fixed point 2: real multiplier, so F(R) is traced
POINCARE_ARGV = ["poincare", "--map",
                 json.dumps({"num": [[-2, 0], [0, 0], [1, 0]], "den": [[1, 0]]}),
                 "--fixed-point", "2,0", "--samples", "64", "--order", "20"]
# z^2 + (1 + i) z at 0: multiplier 1 + i, not real, so nothing is traced
UNTRACED_ARGV = ["poincare", "--map",
                 json.dumps({"num": [[0, 0], [1, 1], [1, 0]], "den": [[1, 0]]}),
                 "--fixed-point", "0,0", "--order", "20"]

# the public names; each must resolve to its module's object
PUBLIC = {
    "rational": ["Polynomial", "RationalMap", "FixedPointInfo", "chordal", "compose",
                 "iterate", "fixed_points", "multiplier", "poly_roots", "maps_equal"],
    "series": ["TruncatedPowerSeries", "compose_rational"],
    "poincare": ["PoincareSeries", "solve_coefficients", "evaluate", "trace_real_axis",
                 "injectivity_check", "multiplier_real_check"],
    "elliptic": ["Lattice", "EllipticInvariants", "invariants_from_lattice",
                 "reduce_to_fundamental"],
    "lattes": ["LattesSystem", "lattes_from_invariants", "verify_lattes"],
    "semiconj": ["SemiconjTriple", "make_ritt_triple", "make_power_family", "chebyshev",
                 "verify_joukowski_identity", "pakovich_example"],
    "geometry": ["CurveTrace"],
    "curves": ["FitReport", "trace_wp_line", "invariance_residual",
               "circle_fit", "algebraic_fit", "transcendence_scan",
               "lattice_commensurability", "example1_xy_check"],
    "examples": [],
    "draws": [],
}


# imports that no job of the tests below needs: numpy.ma comes with
# np.median, numpy.polynomial loads six series families, fractions is read
# only by lattice_commensurability, numpy.random (ten extension modules
# and OpenSSL through secrets) draws a stream draws.UniformStream repeats,
# and dataclasses generates and compiles code for each class it decorates
AVOIDABLE = ("dataclasses", "fractions", "numpy.ma", "numpy.polynomial", "numpy.random")


def start(script):
    """A new interpreter with src/ on the path, running script."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-c", textwrap.dedent(script)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def last_line(child):
    """The last stdout line of a started interpreter, as JSON."""
    out, err = child.communicate()
    assert child.returncode == 0, err
    return json.loads(out.splitlines()[-1])


def fresh(script):
    """Run script in a new interpreter with src/ on the path; its last
    stdout line, as JSON."""
    return last_line(start(script))


def after_job(argv, tmp_path):
    """Exit code, executed submodules, stub submodules and which of the
    costly imports in AVOIDABLE were made, after one CLI job in a fresh
    interpreter."""
    return fresh(f"""
        import json, sys, types
        from invarcurves.cli import main
        code = main({argv + ["--out", str(tmp_path / "out")]!r})
        mods = {{n.split(".")[1]: type(m) is types.ModuleType
                 for n, m in sys.modules.items() if n.startswith("invarcurves.")}}
        print(json.dumps([code, sorted(n for n, ran in mods.items() if ran),
                          sorted(n for n, ran in mods.items() if not ran),
                          [n for n in {AVOIDABLE!r} if n in sys.modules]]))
    """)


@pytest.mark.parametrize("argv, ran", [
    (["semiconj", "--u", SQUARE_JSON, "--v", SHIFT_JSON],
     ["cli", "rational", "semiconj"]),
    (["semiconj", "--verify", SQUARE_JSON, SQUARE_JSON, SQUARE_JSON, "1"],
     ["cli", "rational", "semiconj"]),
    (["lattes", "--lattice", LATTICE_JSON, "--samples", "64"],
     ["cli", "draws", "elliptic", "lattes", "rational"]),
    (POINCARE_ARGV, ["cli", "draws", "geometry", "poincare", "rational"]),
    (UNTRACED_ARGV, ["cli", "draws", "poincare", "rational"]),
    (["example", "1", "--samples", "256"],
     ["cli", "curves", "draws", "elliptic", "examples", "geometry", "lattes", "rational"]),
    (["example", "2", "--samples", "256"],
     ["cli", "curves", "draws", "elliptic", "examples", "geometry", "lattes", "rational"]),
    (["example", "3", "--samples", "256"],
     ["cli", "examples", "geometry", "rational", "semiconj"]),
], ids=["semiconj", "verify", "lattes", "poincare", "untraced", "example1", "example2",
        "example3"])
def test_unused_submodules_stay_stubs(tmp_path, argv, ran):
    code, executed, stubs, loaded = after_job(argv, tmp_path)
    assert code == 0
    assert executed == ran
    # the rest are still registered, as stubs, not missing from sys.modules
    assert stubs == sorted(set(PUBLIC) - set(ran))
    # rational.py's own Horner, derivative and division stand in for it
    assert "numpy.polynomial" not in loaded
    # the report records are __slots__ classes: no code generated at import
    assert "dataclasses" not in loaded


def benchmark_jobs(workload, seed):
    """The argv of each job of a benchmark job list, as the output manifest
    records it (read here, so that this process imports no perfbench)."""
    manifest = json.loads((Path(__file__).parent / "output_manifest.json").read_text())
    return [job["argv"] for job in manifest["jobs"]
            if job["workload"] == workload and job["seed"] == seed]


def test_semiconjugacy_jobs_load_no_numpy(tmp_path):
    # every semiconj and verify job of a list, one after another in one
    # fresh interpreter (the seed-71 and seed-5 lists side by side): a module
    # once imported stays in sys.modules, so the check after each job names
    # the first job that imports it; then example 3, which draws its
    # hyperbola with numpy
    lists = [benchmark_jobs("semiconjugacies", seed) for seed in (71, 5)]
    runs = [[argv for argv in jobs if argv[0] == "semiconj"] for jobs in lists]
    assert [len(argvs) for argvs in runs] == [36, 36]
    runs[1].append(next(argv for argv in lists[1] if argv[:2] == ["example", "3"]))
    children = [start(f"""
        import json, sys
        from invarcurves.cli import main
        loaded = []
        for argv in {argvs!r}:
            main(argv + ["--out", {str(tmp_path / f"out{i}")!r}])
            loaded.append([name for name in ("numpy", "fractions") if name in sys.modules])
        print(json.dumps(loaded))
    """) for i, argvs in enumerate(runs)]
    assert [last_line(child) for child in children] == [[[]] * 36, [[]] * 36 + [["numpy"]]]


def test_lattes_jobs_load_no_numpy(tmp_path):
    # every lattes job of a list in one fresh interpreter, the seed-71 and
    # seed-5 lists side by side: the certificate runs point by point on
    # Python complex, so no job loads numpy, nor fractions
    runs = [[argv for argv in benchmark_jobs("lattes_curves", seed) if argv[0] == "lattes"]
            for seed in (71, 5)]
    assert [len(argvs) for argvs in runs] == [25, 25]
    children = [start(f"""
        import json, sys
        from invarcurves.cli import main
        loaded = []
        for argv in {argvs!r}:
            assert main(argv + ["--out", {str(tmp_path / f"out{i}")!r}]) == 0
            loaded.append([name for name in ("numpy", "fractions") if name in sys.modules])
        print(json.dumps(loaded))
    """) for i, argvs in enumerate(runs)]
    assert [last_line(child) for child in children] == [[[]] * 25, [[]] * 25]


# the front end: the import, the parser, --help, and the usage checks that
# come before a job builds its first map or lattice; argv None is the bare
# import, the benchmark's set-up line
@pytest.mark.parametrize("argv, code", [
    (None, 0),
    (["--help"], 0),
    (["poincare", "--help"], 0),
    ([], 64),
    (["frobnicate"], 64),
    (["lattes", "--lattice", LATTICE_JSON, "--frobnicate"], 64),
    (["poincare", "--map", SQUARE_JSON, "--fixed-point", "0,0", "--order", "0"], 64),
    (["poincare", "--map", SQUARE_JSON], 64),
    (["semiconj"], 64),
    (["lattes", "--lattice", "{not json}"], 64),
    (["poincare", "--map", "{not json}", "--fixed-point", "0,0"], 64),
], ids=["import", "help", "poincare-help", "no-words", "unknown-subcommand", "unknown-flag",
        "order-0", "no-fixed-point", "semiconj-no-mode", "lattice-not-json", "map-not-json"])
def test_front_end_loads_no_numeric_module(argv, code):
    assert fresh(f"""
        import json, sys, types
        argv = {argv!r}
        from invarcurves.cli import main
        code = 0
        if argv is not None:
            sys.argv = ["invarcurves", *argv]
            try:
                code = main()
            except SystemExit as exc:   # --help
                code = exc.code
        ran = sorted(n.split(".")[1] for n, m in sys.modules.items()
                     if n.startswith("invarcurves.") and type(m) is types.ModuleType)
        print(json.dumps([code, "numpy" in sys.modules, ran]))
    """) == [code, False, ["cli"]]


def test_poincare_job_does_not_import_numpy_ma(tmp_path):
    # np.median would import it, for one step size of the crossing scan
    code, _, _, loaded = after_job(POINCARE_ARGV, tmp_path)
    assert code == 0
    assert "numpy.ma" not in loaded


def test_poincare_job_does_not_import_fractions(tmp_path):
    # curves.py imports it only inside lattice_commensurability
    code, _, _, loaded = after_job(POINCARE_ARGV, tmp_path)
    assert code == 0
    assert "fractions" not in loaded


@pytest.mark.parametrize("argv", [
    ["lattes", "--lattice", LATTICE_JSON, "--samples", "64"],
    POINCARE_ARGV,
    ["example", "1", "--samples", "256"],
], ids=["lattes", "poincare", "example1"])
def test_seeded_jobs_do_not_import_numpy_random(tmp_path, argv):
    # draws.UniformStream draws numpy's default_rng stream itself
    code, _, _, loaded = after_job(argv, tmp_path)
    assert code == 0
    assert "numpy.random" not in loaded


def test_public_names_resolve_to_their_modules():
    assert fresh(f"""
        import importlib, json
        import invarcurves
        public = {PUBLIC!r}
        bad = [name for module, names in public.items() for name in names
               if getattr(invarcurves, name)
               is not getattr(importlib.import_module("invarcurves." + module), name)]
        print(json.dumps(bad))
    """) == []


def test_star_import_gives_every_public_name():
    assert fresh(f"""
        import importlib, json
        from invarcurves import *
        public = {PUBLIC!r}
        bad = [name for module, names in public.items() for name in names
               if globals().get(name)
               is not getattr(importlib.import_module("invarcurves." + module), name)]
        print(json.dumps(bad))
    """) == []


def test_submodule_attribute_is_the_registered_module():
    assert fresh("""
        import json, sys
        import invarcurves
        print(json.dumps([getattr(invarcurves, m) is sys.modules["invarcurves." + m]
                          for m in ("poincare", "curves", "rational")]))
    """) == [True, True, True]


def test_removed_names_raise_attribute_error():
    # complex(inf, 0) replaced SpherePoint and INFINITY, and inv.wp the
    # sphere wrapper wp_eval; wp_prime_eval went with wp', which no job
    # needs; the rest were used only by tests
    removed = ["SpherePoint", "INFINITY", "critical_points", "wp_eval", "wp_prime_eval",
               "lattes_from_lattice"]
    assert fresh(f"""
        import json
        import invarcurves
        missing = []
        for name in {removed!r}:
            try:
                getattr(invarcurves, name)
            except AttributeError:
                missing.append(name)
        print(json.dumps(missing))
    """) == removed


def test_unknown_name_raises_attribute_error():
    assert fresh("""
        import json
        import invarcurves
        try:
            invarcurves.no_such_name
        except AttributeError as exc:
            print(json.dumps(str(exc)))
    """) == "module 'invarcurves' has no attribute 'no_such_name'"


def frozen_at_exit(script):
    """Whether gc.freeze had run by the last atexit handler of a fresh
    interpreter running script.  The observer is registered first, so it
    runs after every handler that script registers (atexit is last in,
    first out)."""
    return fresh("import atexit, gc, json\n"
                 "atexit.register(lambda: print(json.dumps(gc.get_freeze_count() > 0)))\n"
                 + textwrap.dedent(script))


def test_main_on_the_process_argv_freezes_at_exit(tmp_path):
    # a cold job spares its exit the collections over numpy's objects
    argv = ["invarcurves", "lattes", "--lattice", LATTICE_JSON, "--samples", "64",
            "--out", str(tmp_path / "out")]
    assert frozen_at_exit(f"""
        import sys
        from invarcurves.cli import main
        sys.argv = {argv!r}
        assert main() == 0
    """) is True


def test_main_on_an_explicit_argv_keeps_the_exit(tmp_path):
    argv = ["lattes", "--lattice", LATTICE_JSON, "--samples", "64",
            "--out", str(tmp_path / "out")]
    assert frozen_at_exit(f"""
        from invarcurves.cli import main
        assert main({argv!r}) == 0
    """) is False


def test_importing_the_cli_keeps_the_exit():
    assert frozen_at_exit("import invarcurves.cli") is False
