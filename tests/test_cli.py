import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invarcurves import cli, poincare
from invarcurves.rational import RationalMap

SQUARE_JSON = json.dumps({"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]]})
SHIFT_JSON = json.dumps({"num": [[1, 0], [1, 0]], "den": [[1, 0]]})
LATTICE_JSON = json.dumps({"g1": [2.0, 0.0], "g2": [0.0, 2.0]})


def run(argv):
    return cli.main(argv)


def read_json(path):
    return json.loads(path.read_text())


class TestPoincareCommand:
    def test_golden_exponential(self, tmp_path):
        out = tmp_path / "run"
        code = run(["poincare", "--map", SQUARE_JSON, "--fixed-point", "1,0",
                    "--order", "20", "--out", str(out)])
        assert code == 0
        coeffs = read_json(out / "coefficients.json")
        for k in range(1, 21):
            re, im = coeffs["coefficients"][k]
            assert abs(complex(re, im) * math.factorial(k) - 1) < 1e-12
        report = read_json(out / "report.json")
        assert report["functional_equation_residual"] <= 1e-9
        assert (out / "trace.csv").exists()

    def test_golden_cosh_ratios(self, tmp_path):
        out = tmp_path / "run"
        code = run(["poincare", "--map", json.dumps(
            {"num": [[-2, 0], [0, 0], [1, 0]], "den": [[1, 0]]}),
            "--fixed-point", "2,0", "--order", "15", "--out", str(out)])
        assert code == 0
        coeffs = read_json(out / "coefficients.json")
        c1 = complex(*coeffs["coefficients"][1])
        for k in range(1, 16):
            ck = complex(*coeffs["coefficients"][k])
            assert abs((ck / c1) * math.factorial(2 * k) / 2 - 1) < 1e-12

    def test_overflowing_order_is_exit_2(self, tmp_path, capsys):
        code = run(["poincare", "--map", json.dumps({"num": [[0, 0], [1000, 0]],
                                                     "den": [[1, 0]]}),
                    "--fixed-point", "0,0", "--order", "120", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "lambda^120 overflows" in capsys.readouterr().err

    def test_non_repelling_is_exit_2(self, tmp_path):
        code = run(["poincare", "--map", SQUARE_JSON, "--fixed-point", "0,0",
                    "--out", str(tmp_path / "x")])
        assert code == 2

    def test_near_neutral_multiplier_is_exit_2(self, tmp_path):
        # multiplier 1.001: tracing to |t| = 10 needs more pull-back steps
        # than evaluate allows, which must not end in a silent trace of inf
        near_neutral = json.dumps({"num": [[0, 0], [1.001, 0], [-1, 0]], "den": [[1, 0]]})
        code = run(["poincare", "--map", near_neutral, "--fixed-point=0,0",
                    "--trace-range", "10", "--samples", "201", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_missing_flag_is_usage_error(self, tmp_path):
        code = run(["poincare", "--map", SQUARE_JSON, "--out", str(tmp_path / "x")])
        assert code == 64

    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == 64

    @pytest.mark.parametrize("t_max", ["inf", "-inf", "nan", "0", "-5", "1e308"])
    def test_bad_trace_range_is_exit_2(self, tmp_path, capsys, t_max):
        # rejected before linspace, so without a RuntimeWarning (an error
        # under the suite's filterwarnings)
        code = run(["poincare", "--map", SQUARE_JSON, "--fixed-point", "1,0",
                    f"--trace-range={t_max}", "--samples", "64",
                    "--out", str(tmp_path / "x")])
        assert code == 2
        assert "trace range must lie in" in capsys.readouterr().err

    @pytest.mark.parametrize("rel_imag, traced", [(5e-10, True), (2e-9, False)])
    def test_one_realness_test_decides_the_trace(self, tmp_path, rel_imag, traced):
        # f = lam z + z^2 at 0 has multiplier lam, real to rel_imag relative;
        # the CLI and trace_real_axis read the same predicate
        lam = complex(2.0, 2.0 * rel_imag)
        f = RationalMap([0, lam, 1])
        out = tmp_path / "run"
        code = run(["poincare", "--map", json.dumps(f.to_json_dict()), "--fixed-point=0,0",
                    "--order", "20", "--samples", "64", "--out", str(out)])
        assert code == 0
        assert (read_json(out / "report.json")["trace"] is not None) is traced
        F = poincare.solve_coefficients(f, 0.0, order=20)
        assert poincare.is_real_multiplier(F.multiplier) is traced
        if traced:
            assert len(poincare.trace_real_axis(F, 10.0, 64)) == 64
        else:
            with pytest.raises(ValueError, match="not real"):
                poincare.trace_real_axis(F, 10.0, 64)


class TestLattesCommand:
    def test_square_lattice_certifies(self, tmp_path):
        out = tmp_path / "lat"
        assert run(["lattes", "--lattice", LATTICE_JSON, "--out", str(out),
                    "--samples", "200"]) == 0
        report = read_json(out / "report.json")
        assert report["certified"]
        assert report["duplication_residual"] <= 1e-8
        emitted = RationalMap.from_json_dict(read_json(out / "map.json"))
        assert emitted.degree == 4

    def test_degenerate_lattice_is_exit_2(self, tmp_path):
        bad = json.dumps({"g1": [1.0, 0.0], "g2": [2.0, 0.0]})
        assert run(["lattes", "--lattice", bad, "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-30, -12, -7, 0, 12, 30])
    def test_square_lattice_certifies_at_every_scale(self, tmp_path, k):
        side = 10.0 ** k
        out = tmp_path / "lat"
        lattice = json.dumps({"g1": [side, 0.0], "g2": [0.0, side]})
        assert run(["lattes", "--lattice", lattice, "--out", str(out),
                    "--samples", "200"]) == 0
        report = read_json(out / "report.json")
        assert report["certified"]
        for name in ("report.json", "map.json"):
            assert "NaN" not in (out / name).read_text()

    def test_malformed_lattice_json_is_usage_error(self, tmp_path):
        code = run(["lattes", "--lattice", '{"g1": [2,0', "--out", str(tmp_path / "x")])
        assert code == 64


class TestSemiconjCommand:
    def test_ritt_pair_certifies(self, tmp_path):
        out = tmp_path / "s"
        assert run(["semiconj", "--u", SQUARE_JSON, "--v", SHIFT_JSON,
                    "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["certified"] and report["identity_residual"] <= 1e-12
        triple = read_json(out / "triple.json")
        # round trip through the shared JSON format
        for key in ("f", "g", "h"):
            m = RationalMap.from_json_dict(triple[key])
            assert m.to_json_dict() == triple[key]

    def test_power_family_certifies(self, tmp_path):
        out = tmp_path / "p"
        assert run(["semiconj", "--w", SHIFT_JSON, "--m", "1", "--n", "2",
                    "--out", str(out)]) == 0
        assert read_json(out / "report.json")["certified"]

    def test_corrupted_h_is_exit_3(self, tmp_path):
        wrong_h = json.dumps({"num": [[0, 0], [1, 0], [1, 0]], "den": [[1, 0]]})
        code = run(["semiconj", "--verify",
                    json.dumps({"num": [[1, 0], [2, 0], [1, 0]], "den": [[1, 0]]}),
                    json.dumps({"num": [[1, 0], [0, 0], [1, 0]], "den": [[1, 0]]}),
                    wrong_h, "1", "--out", str(tmp_path / "x")])
        assert code == 3

    def test_missing_inputs_usage(self, tmp_path):
        assert run(["semiconj", "--out", str(tmp_path / "x")]) == 64

    def test_degree_cap_is_exit_2(self, tmp_path):
        code = run(["semiconj", "--w", SHIFT_JSON, "--n", "70",
                    "--out", str(tmp_path / "x")])
        assert code == 2

    def test_non_integer_verify_count_is_usage_error(self, tmp_path):
        code = run(["semiconj", "--verify", SQUARE_JSON, SQUARE_JSON, SQUARE_JSON,
                    "abc", "--out", str(tmp_path / "x")])
        assert code == 64


class TestExampleCommand:
    def test_example_1_verdict(self, tmp_path):
        out = tmp_path / "e1"
        assert run(["example", "1", "--out", str(out), "--samples", "600"]) == 0
        report = read_json(out / "example1_report.json")
        v = report["verdict"]
        assert v["invariant"] and not v["circle"] and v["algebraic"]
        assert v["algebraic_degree"] <= 8
        assert report["reflection_xy"]["periodicity_residual"] <= 1e-8

    def test_example_2_verdict(self, tmp_path):
        out = tmp_path / "e2"
        assert run(["example", "2", "--out", str(out), "--samples", "600"]) == 0
        report = read_json(out / "example2_report.json")
        v = report["verdict"]
        assert v["invariant"] and not v["circle"]
        assert v["lattices"] == "INCOMMENSURABLE-UP-TO(1000)"
        assert v["control_passed"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_example_1_verdict_at_every_scale(self, tmp_path):
        verdicts = {}
        for k in (0, -12, -8, 6, 12):
            out = tmp_path / f"e1_{k}"
            omega = str(10.0 ** k)
            assert run(["example", "1", "--omega1", omega, "--omega2", omega,
                        "--out", str(out), "--samples", "600"]) == 0, k
            verdicts[k] = read_json(out / "example1_report.json")["verdict"]
        assert all(v == verdicts[0] for v in verdicts.values()), verdicts

    def test_example_3_verdict(self, tmp_path):
        out = tmp_path / "e3"
        assert run(["example", "3", "--out", str(out)]) == 0
        v = read_json(out / "example3_report.json")["verdict"]
        assert all(v.values())

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_example_3_hyperbola_invariant_beyond_n_3(self, tmp_path, n):
        out = tmp_path / "e3"
        assert run(["example", "3", "--hyperbola-n", str(n), "--out", str(out)]) == 0
        report = read_json(out / "example3_report.json")
        assert report["verdict"]["hyperbola_invariant"] is True
        assert report["invariance_residual"] <= 1e-12

    def test_example_3_honours_samples(self, tmp_path):
        out = tmp_path / "e3"
        assert run(["example", "3", "--samples", "257", "--format", "json,csv",
                    "--out", str(out)]) == 0
        rows = (out / "trace.csv").read_text().splitlines()
        assert rows[0] == "parameter,re,im,is_infinite" and len(rows) == 1 + 257

    def test_example_3_coarse_trace_is_exit_2(self, tmp_path, capsys):
        code = run(["example", "3", "--samples", "15", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "stage 'invariance'" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["406", "408", "1100", str(10 ** 20)])
    def test_example_3_beyond_the_float_range_is_exit_2(self, tmp_path, capsys, n):
        # from n = 406 on f = u o T_n has coefficients beyond the floats (at
        # 408 the old code certified the nan map); 10**20 exceeds the degree
        # cap, checked before T_n's n - 1 step recurrence would run
        t0 = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["example", "3", "--hyperbola-n", n, "--samples", "64",
                        "--out", str(tmp_path / "x")])
        assert code == 2 and not caught, [str(w.message) for w in caught]
        assert "stage 'hyperbola system'" in capsys.readouterr().err
        assert not (tmp_path / "x" / "example3_report.json").exists()
        if len(n) > 4:
            assert time.perf_counter() - t0 < 1.0

    def test_example_3_at_405_is_finite(self, tmp_path):
        out = tmp_path / "e3"
        assert run(["example", "3", "--hyperbola-n", "405", "--samples", "64",
                    "--out", str(out)]) == 0
        report = read_json(out / "example3_report.json")
        assert np.isfinite(report["map"]["num"] + report["map"]["den"]).all()

    def test_example_3_line_image_is_exit_2(self, tmp_path, capsys):
        code = run(["example", "3", "--hyperbola-n", "4", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "stage 'hyperbola equation'" in capsys.readouterr().err

    def test_stage_failure_names_the_stage(self, tmp_path, capsys):
        code = run(["example", "1", "--omega1", "0", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "stage 'lattice'" in capsys.readouterr().err

    def test_bad_config_is_usage_error(self, tmp_path):
        code = run(["example", "1", "--samples", "-5", "--out", str(tmp_path / "x")])
        assert code == 64

    @pytest.mark.parametrize("which", ["1", "2"])
    @pytest.mark.parametrize("dmax", ["0", "-1"])
    def test_dmax_below_one_is_usage_error(self, tmp_path, capsys, which, dmax):
        # a scan over no degree would report transcendence evidence from
        # zero fits; 0 must not fall back to the default either
        out = tmp_path / "x"
        code = run(["example", which, f"--dmax={dmax}", "--samples", "64",
                    "--out", str(out)])
        assert code == 64
        assert "--dmax" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("formats", ["xml", "JSON", "json,xml", "", "csv,"])
    def test_unknown_format_is_usage_error(self, tmp_path, formats):
        out = tmp_path / "x"
        code = run(["example", "3", f"--format={formats}", "--out", str(out)])
        assert code == 64
        assert not out.exists()

    def test_json_report_is_written_for_every_format(self, tmp_path):
        out = tmp_path / "x"
        assert run(["lattes", "--lattice", LATTICE_JSON, "--format", "svg",
                    "--out", str(out)]) == 0
        assert (out / "report.json").exists()

    def test_determinism_bytes(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(["example", "1", "--out", str(out), "--samples", "400",
                        "--seed", "7"]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestArgumentValidation:
    # a value that is neither JSON nor a file name the file system accepts
    @pytest.mark.parametrize("argv", [
        ["lattes", "--lattice", "x" * 300],
        ["semiconj", "--u", "x" * 5000, "--v", SQUARE_JSON],
        ["poincare", "--map", "x" * 5000, "--fixed-point", "1,0"],
    ], ids=["lattice", "u", "map"])
    def test_overlong_argument_is_usage_error(self, tmp_path, capsys, argv):
        code = run(argv + ["--out", str(tmp_path / "x")])
        assert code == 64
        assert "not JSON and not a file" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["semiconj", "--u", SQUARE_JSON, "--v", SQUARE_JSON],
        ["lattes", "--lattice", LATTICE_JSON, "--samples", "200"],
    ], ids=["semiconj", "lattes"])
    def test_nan_tolerance_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert run(argv + ["--tol", "nan", "--out", str(out)]) == 64
        assert "tolerance" in capsys.readouterr().err
        assert not out.exists()

    # --out naming an existing file, and a name too long for the file system
    @pytest.mark.parametrize("name, existing", [("f.json", True), ("x" * 300, False)],
                             ids=["file", "overlong"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, name, existing):
        out = tmp_path / name
        if existing:
            out.write_text("{}")
        assert run(["lattes", "--lattice", LATTICE_JSON, "--samples", "64",
                    "--out", str(out)]) == 64
        assert "cannot write" in capsys.readouterr().err

    def test_infinite_tolerance_is_valid(self, tmp_path):
        out = tmp_path / "x"
        assert run(["semiconj", "--u", SQUARE_JSON, "--v", SQUARE_JSON,
                    "--tol", "inf", "--out", str(out)]) == 0
        assert read_json(out / "report.json")["certified"]


class TestRuntimeDependencies:
    def test_examples_do_not_import_scipy(self, tmp_path):
        # numpy is the only runtime dependency; example 3 and example 1 at
        # 1536 samples run the largest polyline distance queries
        script = (
            "import sys\n"
            "from invarcurves import cli\n"
            f"assert cli.main(['example', '3', '--out', {str(tmp_path / 'e3')!r}]) == 0\n"
            f"assert cli.main(['example', '1', '--samples', '1536', "
            f"'--out', {str(tmp_path / 'e1')!r}]) == 0\n"
            "print('scipy' in sys.modules)\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"


# argv pieces for the fuzz test: extreme and malformed values next to valid
# ones, with sizes kept small (at most 64 samples, order at most 20)
def mostly(good, bad):
    """A good value nine draws in ten, so that most argv get past parsing."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else good)


NUMBERS = mostly(
    st.one_of(st.sampled_from(["0.5", "1", "2", "10", "1e-20", "1e20", "1e308", "1e-308",
                               "5e-324"]), st.floats(1e-3, 1e3).map(repr)),
    st.one_of(st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "abc", "", "1,2",
                               "0x10"]), st.floats().map(repr)))
SMALL_INTS = mostly(st.integers(-1, 5).map(str),
                    st.sampled_from(["1.5", "nan", "abc", "", "1e3", "99999999999999999999"]))
SIZES = mostly(st.integers(1, 64).map(str), st.sampled_from(["-2", "0", "nan", "1.5", "x", ""]))
ORDERS = mostly(st.integers(1, 20).map(str), st.sampled_from(["-1", "0", "nan", "2.0", ""]))
SEEDS = mostly(st.sampled_from(["0", "7", "99999999999999999999"]),
               st.sampled_from(["-1", "nan", "x"]))
FORMATS = mostly(st.sampled_from(["json", "csv", "svg", "json,csv,svg", "csv,svg"]),
                 st.sampled_from(["", ",", "xml", "JSON", "json,,csv"]))
MAPS = mostly(st.sampled_from([
    SQUARE_JSON, SHIFT_JSON,
    json.dumps({"num": [[-2, 0], [0, 0], [1, 0]]}),
    json.dumps({"num": [[1, 0], [0, 0], [1, 0]], "den": [[0, 0], [2, 0]]}),
    json.dumps({"num": [[0, 0], [0.3, 0.4], [1, 0]], "den": [[1, 0], [0.5, 0]]}),
    json.dumps({"num": [[1, 0]]}), json.dumps({"num": [[0, 0]]}),
    json.dumps({"num": [[0, 0], [1, 0]]}),
    json.dumps({"num": [[1e308, 0], [1e308, 0], [1e308, 0]]}),
    json.dumps({"num": [[1e-308, 0], [0, 0], [1e-308, 0]]})]),
    st.sampled_from([
        json.dumps({"num": [[1, 0]], "den": [[0, 0]]}),
        '{"num": [[NaN, 0], [1, 0]]}', '{"num": [[Infinity, 0], [0, 0], [1, 0]]}',
        '{', '[]', 'null', '"z"', '{"num": 1}', '{"num": [[1]]}', '{"num": [["a", "b"]]}',
        '{"den": [[1, 0]]}', '@/nonexistent/map.json', '', 'z^2']))
LATTICES = mostly(st.sampled_from([
    LATTICE_JSON, json.dumps({"g1": [1, 0], "g2": [0.5, 1.1]}),
    json.dumps({"g1": [1e-300, 0], "g2": [0, 1e-300]}),
    json.dumps({"g1": [1e300, 0], "g2": [0, 1e300]}),
    json.dumps({"g1": [1, 0], "g2": [2, 0]}), json.dumps({"g1": [0, 0], "g2": [0, 1]})]),
    st.sampled_from([
        '{"g1": [NaN, 0], "g2": [0, 1]}', '{"g1": [Infinity, 0], "g2": [0, 1]}',
        '{"g1": [1, 0]}', '{"g1": [1], "g2": [0, 1]}', '{"g1": "a", "g2": [0, 1]}',
        '[1, 2]', '{', '', 'null']))
POINTS = mostly(st.sampled_from(["1,0", "2,0", "0,0", "-1,0", "0.5,0.5", "1", "1j"]),
                st.sampled_from(["nan,0", "inf,inf", "1e308,0", "abc", "", "1,2,3", ","]))
# maps with a repelling fixed point, so that half the poincare draws solve
# and trace instead of stopping at the first check
LINEARIZABLE = st.sampled_from([
    (SQUARE_JSON, "1,0"), (json.dumps({"num": [[-2, 0], [0, 0], [1, 0]]}), "2,0"),
    (json.dumps({"num": [[-2, 0], [0, 0], [1, 0]]}), "-1,0"),
    (json.dumps({"num": [[0, 0], [0, 0], [0, 0], [1, 0]]}), "-1,0"),
    (json.dumps({"num": [[-1, 0], [0, 0], [1, 0]], "den": [[1, 0]]}), "1.618033988749895,0")])


@st.composite
def cli_argv(draw):
    """An argv for one of the subcommands.  Each flag is "--flag=value", so
    that a value starting with "-" stays a value; optional flags appear or
    not."""
    def flags(required=False, **choices):
        return [f"--{name.replace('_', '-')}={draw(values)}"
                for name, values in choices.items() if required or draw(st.booleans())]

    kind = draw(st.sampled_from(["poincare", "lattes", "semiconj", "example"]))
    if kind == "poincare":
        f, a = draw(st.one_of(LINEARIZABLE, st.tuples(MAPS, POINTS)))
        argv = ["poincare", f"--map={f}", f"--fixed-point={a}"]
        argv += flags(trace_range=NUMBERS)
    elif kind == "lattes":
        argv = ["lattes"] + flags(True, lattice=LATTICES)
    elif kind == "semiconj":
        argv = ["semiconj"] + flags(u=MAPS, v=MAPS, w=MAPS, m=SMALL_INTS, n=SMALL_INTS)
        if draw(st.booleans()):
            argv += ["--verify", draw(MAPS), draw(MAPS), draw(MAPS), draw(SMALL_INTS)]
    else:
        argv = ["example", draw(st.sampled_from(["1", "2", "3", "0", "x"]))]
        argv += flags(p=NUMBERS, omega1=NUMBERS, omega2=NUMBERS,
                      offset_thirds=SMALL_INTS, hyperbola_n=SMALL_INTS, dmax=SMALL_INTS)
    # sizes are always given, so that no draw runs at the default 1024 / 60
    return (argv + flags(True, samples=SIZES, order=ORDERS)
            + flags(seed=SEEDS, tol=NUMBERS, format=FORMATS))


class TestFuzz:
    @settings(max_examples=200)
    @given(argv=cli_argv())
    def test_every_argv_ends_in_a_documented_exit_code(self, argv):
        # 0, 2, 3 or 64, with no traceback and no warning on the way
        with tempfile.TemporaryDirectory() as out, \
                warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(io.StringIO()) as err, \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = run(argv + ["--out", os.path.join(out, "run")])
        assert code in (0, 2, 3, 64), argv
        assert "Traceback" not in err.getvalue(), argv
        assert not caught, (argv, [str(w.message) for w in caught])
