import argparse
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
from test_golden import JOBS as GOLDEN_JOBS

SQUARE_JSON = json.dumps({"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]]})
SHIFT_JSON = json.dumps({"num": [[1, 0], [1, 0]], "den": [[1, 0]]})
LATTICE_JSON = json.dumps({"g1": [2.0, 0.0], "g2": [0.0, 2.0]})
BIG_JSON = json.dumps({"num": [[1e308, 0], [1e308, 0], [1e308, 0]], "den": [[1, 0]]})


def run(argv):
    return cli.main(argv)


def read_json(path):
    return json.loads(path.read_text())


def child_env():
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


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

    def test_negative_seed_is_exit_2_before_any_file(self, tmp_path, capsys):
        # the seed is checked with the other arguments, not after the
        # coefficients and the trace are written
        out = tmp_path / "x"
        assert run(["poincare", "--map", SQUARE_JSON, "--fixed-point", "1,0", "--order", "20",
                    "--samples", "64", "--seed=-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "precondition failed: expected non-negative integer\n"
        assert not out.exists()

    def test_subnormal_coefficient_is_a_clean_job(self, tmp_path):
        # 2z + 1e-320 z^2 fixes 0 and a point at -1e320, beyond the floats,
        # which is infinity; its monic form and companion matrix overflowed
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["poincare", "--map",
                        json.dumps({"num": [[0, 0], [2, 0], [1e-320, 0]], "den": [[1, 0]]}),
                        "--fixed-point=0,0", "--order", "20", "--samples", "64",
                        "--out", str(out)]) == 0
        assert read_json(out / "coefficients.json")["multiplier"] == [2.0, 0.0]
        assert read_json(out / "report.json")["injective_at_resolution"] is True


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

    def test_negative_seed_is_exit_2(self, tmp_path, capsys):
        # SeedSequence takes non-negative integers only
        assert run(["lattes", "--lattice", LATTICE_JSON, "--seed", "-1", "--samples", "8",
                    "--out", str(tmp_path / "x")]) == 2
        assert "expected non-negative integer" in capsys.readouterr().err

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

    def test_negative_verify_count_is_usage_error(self, tmp_path):
        # h o g = h o id = z^2 would compare equal to h with no f at all
        identity = json.dumps({"num": [[0, 0], [1, 0]], "den": [[1, 0]]})
        out = tmp_path / "x"
        code = run(["semiconj", "--verify", SQUARE_JSON, identity, SQUARE_JSON,
                    "-5", "--out", str(out)])
        assert code == 64
        assert not out.exists()

    @pytest.mark.parametrize("f, n", [(SQUARE_JSON, "99999999999999999999"),
                                      (SHIFT_JSON, "100000000")], ids=["square", "moebius"])
    def test_verify_count_beyond_the_cap_is_exit_2(self, tmp_path, capsys, f, n):
        # neither d^N nor a chain of N maps is formed
        start = time.perf_counter()
        code = run(["semiconj", "--verify", f, f, f, n, "--out", str(tmp_path / "x")])
        assert code == 2
        assert time.perf_counter() - start < 5.0
        assert "cap" in capsys.readouterr().err

    # compositions of a map with coefficients near the float limit leave the
    # floats; a constant u once certified the triple with g = v o u = inf + nan i
    @pytest.mark.parametrize("argv", [
        ["--w", BIG_JSON], ["--u", SQUARE_JSON, "--v", BIG_JSON],
        ["--u", json.dumps({"num": [[1, 0]], "den": [[1, 0]]}), "--v", BIG_JSON],
        ["--verify", BIG_JSON, BIG_JSON, BIG_JSON, "5"],
    ], ids=["power-family", "ritt", "constant-u", "verify"])
    def test_coefficients_beyond_the_float_range_are_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["semiconj", *argv, "--out", str(out)]) == 2
        assert not caught, [str(w.message) for w in caught]
        assert "precondition failed" in capsys.readouterr().err
        assert not out.exists()


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

    def test_example_1_negative_seed_is_exit_2(self, tmp_path, capsys):
        code = run(["example", "1", "--seed", "-3", "--samples", "64", "--dmax", "2",
                    "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "stage 'duplication residual'" in err and "non-negative" in err

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
        # offset 0 is a lattice point: the traced line runs through poles
        code = run(["example", "1", "--offset-thirds", "0", "--samples", "64",
                    "--out", str(tmp_path / "x")])
        assert code == 2
        assert "stage 'trace'" in capsys.readouterr().err

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
        assert run(["poincare", "--map", SQUARE_JSON, "--fixed-point", "1,0", "--order", "20",
                    "--samples", "64", "--format", "svg", "--out", str(out)]) == 0
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

    # json reads NaN, Infinity and 1e400 as floats; such a coefficient or
    # generator is refused before any map or lattice is built
    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("where", ["map-num", "map-den", "u", "lattice"])
    def test_non_finite_json_number_is_usage_error(self, tmp_path, capsys, where, number):
        bad = f'{{"num": [[{number}, 0], [0, 0], [1, 0]], "den": [[1, 0]]}}'
        sizes = ["--samples", "64", "--order", "20"]
        argv = {
            "map-num": ["poincare", "--map", bad, "--fixed-point", "1,0", *sizes],
            "map-den": ["poincare", "--map",
                        f'{{"num": [[0, 0], [0, 0], [1, 0]], "den": [[{number}, 0]]}}',
                        "--fixed-point", "1,0", *sizes],
            "u": ["semiconj", "--u", bad, "--v", SQUARE_JSON],
            "lattice": ["lattes", "--lattice", f'{{"g1": [{number}, 0], "g2": [0, 1]}}',
                        "--samples", "64"],
        }[where]
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv + ["--out", str(out)]) == 64
        assert not caught, [str(w.message) for w in caught]
        assert f"not a finite number: {number}" in capsys.readouterr().err
        assert not out.exists()

    # Lattice orders its generators, so a negative half-period would move
    # example 1's offset onto the real axis
    @pytest.mark.parametrize("flag", ["--omega1", "--omega2"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    def test_non_positive_half_period_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        assert run(["example", "1", f"{flag}={value}", "--out", str(out)]) == 64
        assert "half-period must be positive" in capsys.readouterr().err
        assert not out.exists()

    # a half-period or skew real part of inf (or 1e400, read as inf) would
    # reach Lattice, which then reports the generators as parallel
    @pytest.mark.parametrize("flag, which", [("--omega1", "1"), ("--omega2", "1"), ("--p", "2")])
    @pytest.mark.parametrize("value", ["inf", "1e400", "nan"])
    def test_non_finite_real_flag_is_usage_error(self, tmp_path, capsys, flag, which, value):
        out = tmp_path / "x"
        assert run(["example", which, f"{flag}={value}", "--samples", "64",
                    "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert "finite" in err or "positive" in err
        assert not out.exists()

    # complex() reads nan, inf and 1e400 (as inf); the solver would refuse
    # such a point only as one at infinity, which nan is not
    @pytest.mark.parametrize("point", ["nan,0", "1,nan", "inf,0", "1e400,0", "nan+1j"])
    def test_non_finite_fixed_point_is_usage_error(self, tmp_path, capsys, point):
        out = tmp_path / "x"
        assert run(["poincare", "--map", SQUARE_JSON, f"--fixed-point={point}",
                    "--order", "20", "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert "--fixed-point must be a finite number" in err
        assert "conjugate by 1/z" in err
        assert not out.exists()

    # json reads a 401-digit integer as an int, which no coefficient or
    # generator can become
    @pytest.mark.parametrize("where", ["map", "lattice"])
    def test_integer_beyond_the_float_range_is_usage_error(self, tmp_path, capsys, where):
        big = "1" + "0" * 400
        argv = {"map": ["poincare", "--map", f'{{"num": [[0, 0], [0, 0], [{big}, 0]]}}',
                        "--fixed-point", "1,0", "--samples", "64", "--order", "20"],
                "lattice": ["lattes", "--lattice", f'{{"g1": [{big}, 0], "g2": [0, 1]}}',
                            "--samples", "64"]}[where]
        out = tmp_path / "x"
        assert run(argv + ["--out", str(out)]) == 64
        assert "integer beyond the float range" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_tolerance_is_valid(self, tmp_path):
        out = tmp_path / "x"
        assert run(["semiconj", "--u", SQUARE_JSON, "--v", SQUARE_JSON,
                    "--tol", "inf", "--out", str(out)]) == 0
        assert read_json(out / "report.json")["certified"]


class ReadRecorder:
    """A parsed namespace that notes, in read, each attribute read from it."""

    def __init__(self, namespace, read):
        self._namespace, self._read = namespace, read

    def __getattr__(self, name):
        self._read.add(name)
        return getattr(self._namespace, name)


def declared_dests(path):
    """The dests declared by the parser of a job, e.g. ("example", "1"),
    and by the parsers above it."""
    parser, dests = cli.build_parser(), set()
    for name in (*path, None):
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        dests |= {a.dest for a in actions}
        if name is not None:
            subs = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
            parser = subs.choices[name]
    return dests


# flags that no job of a subcommand (or example N) reads, each with a value
# that the flag takes where it is declared
UNREAD = {
    ("poincare",): ["--tol=1"],
    ("lattes",): ["--order=20", "--format=json"],
    ("semiconj",): ["--seed=0", "--samples=64", "--order=20", "--format=json"],
    ("example", "1"): ["--order=20", "--tol=1", "--p=1", "--hyperbola-n=3"],
    ("example", "2"): ["--order=20", "--tol=1", "--omega1=1", "--omega2=1", "--hyperbola-n=3"],
    ("example", "3"): ["--order=20", "--tol=1", "--p=1", "--omega1=1", "--omega2=1",
                       "--offset-thirds=1", "--dmax=2"],
}


class TestEachJobDeclaresWhatItReads:
    def test_declared_flags_are_the_flags_read(self, tmp_path, monkeypatch):
        # the golden jobs, a multiplier that is not real (no trace) and the
        # power family (no --u/--v) cover every path that reads a flag
        jobs = [*GOLDEN_JOBS.values(),
                ["poincare", "--map", json.dumps({"num": [[0, 0], [1, 1], [1, 0]],
                                                  "den": [[1, 0]]}),
                 "--fixed-point", "0,0", "--order", "20"],
                ["semiconj", "--w", SHIFT_JSON, "--m", "1", "--n", "2"]]
        read = {}
        parse_args = cli._Parser.parse_args

        def recording(parser, argv):
            args = parse_args(parser, argv)
            path = (args.command, *([args.which] if args.command == "example" else []))
            return ReadRecorder(args, read.setdefault(path, set()))

        monkeypatch.setattr(cli._Parser, "parse_args", recording)
        for k, argv in enumerate(jobs):
            assert run(argv + ["--out", str(tmp_path / str(k))]) == 0, argv
        assert sorted(read) == sorted(UNREAD)
        for path, names in read.items():
            assert names == declared_dests(path), path

    @pytest.mark.parametrize("path, flag", [(path, flag) for path, flags in UNREAD.items()
                                            for flag in flags])
    def test_a_flag_the_job_does_not_read_is_usage_error(self, tmp_path, capsys, path, flag):
        out = tmp_path / "x"
        assert run(GOLDEN_JOBS["".join(path)] + [flag, "--out", str(out)]) == 64
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    # the example number comes first, and is one of the three names
    @pytest.mark.parametrize("argv", [["example", "--samples", "64", "1"], ["example", "01"]])
    def test_example_number_is_the_first_argument(self, tmp_path, argv):
        out = tmp_path / "x"
        assert run(argv + ["--out", str(out)]) == 64
        assert not out.exists()


JOB_PARSERS = [("poincare",), ("lattes",), ("semiconj",), ("example",),
               ("example", "1"), ("example", "2"), ("example", "3")]


def sub_parser(parser, path):
    """The parser that path, e.g. ("example", "1"), names under parser."""
    for name in path:
        parser = subparsers_action(parser).choices[name]
    return parser


def subparsers_action(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def type_key(parse):
    """An argparse type by its code and what its closure holds, so that the
    types of two builds of one parser compare equal."""
    if not hasattr(parse, "__code__"):
        return parse
    return (parse.__code__, parse.__name__,
            tuple(type_key(cell.cell_contents) for cell in parse.__closure__ or ()))


def declared_actions(parser):
    return [(a.option_strings, a.dest, a.default, type_key(a.type), a.nargs, a.required,
             list(a.choices) if isinstance(a.choices, dict) else a.choices, a.metavar, a.help)
            for a in parser._actions]


class TestParserPerJob:
    @pytest.mark.parametrize("path", JOB_PARSERS, ids=" ".join)
    def test_a_parser_built_alone_is_the_full_parsers(self, path):
        alone = cli.build_parser(list(path) + ["--out", "x"])
        assert list(subparsers_action(alone).choices) == [path[0]]
        full = sub_parser(cli.build_parser(), path)
        alone = sub_parser(alone, path)
        assert declared_actions(alone) == declared_actions(full)
        assert alone.format_help() == full.format_help()

    def test_an_example_number_builds_that_example_alone(self):
        parser = sub_parser(cli.build_parser(["example", "2", "--samples", "64"]), ["example"])
        assert list(subparsers_action(parser).choices) == ["2"]
        # a flag before the number: all three, so that the error names them
        parser = sub_parser(cli.build_parser(["example", "--samples", "64", "2"]), ["example"])
        assert list(subparsers_action(parser).choices) == ["1", "2", "3"]

    @pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["-h", "poincare"]])
    def test_no_subcommand_first_builds_the_full_parser(self, argv):
        assert list(subparsers_action(cli.build_parser(argv)).choices) == \
            ["poincare", "lattes", "semiconj", "example"]

    @pytest.mark.parametrize("argv, code, stdout, stderr", [
        (["--help"], 0, """\
usage: invarcurves [-h] {poincare,lattes,semiconj,example} ...

invariant-curve laboratory for rational maps

positional arguments:
  {poincare,lattes,semiconj,example}
    poincare            solve a linearizer and trace F(R)
    lattes              duplication map from a lattice
    semiconj            build or verify a semiconjugacy triple
    example             run a scripted reproduction pipeline

options:
  -h, --help            show this help message and exit
""", ""),
        (["bogus"], 64, "", "usage error: argument command: invalid choice: 'bogus' "
         "(choose from 'poincare', 'lattes', 'semiconj', 'example')\n"),
        ([], 64, "", "usage error: the following arguments are required: command\n"),
    ], ids=["help", "unknown", "none"])
    def test_cold_help_and_unknown_subcommand(self, argv, code, stdout, stderr):
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from invarcurves.cli import main; "
             "sys.exit(main())", *argv],
            env=dict(child_env(), COLUMNS="80"), capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (code, stdout, stderr)


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
        done = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"


def out_files(out):
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}


class TestColdProcess:
    # one small job per exit code: 0, 2 (attracting fixed point), 3 (a
    # tolerance below the residual) and 64 (malformed JSON)
    @pytest.mark.parametrize("argv, code", [
        (["lattes", "--lattice", LATTICE_JSON, "--samples", "64"], 0),
        (["poincare", "--map", SQUARE_JSON, "--fixed-point", "0,0"], 2),
        (["lattes", "--lattice", LATTICE_JSON, "--samples", "64", "--tol", "1e-300"], 3),
        (["lattes", "--lattice", '{"g1": [2,0'], 64),
    ], ids=["ok", "precondition", "certification", "usage"])
    def test_a_cold_job_ends_as_an_in_process_one(self, tmp_path, capsys, argv, code):
        # the benchmark's own line: main() on the process's argv, whose exit
        # skips the final collections and must lose no output with them
        assert run(argv + ["--out", str(tmp_path / "warm")]) == code
        err = capsys.readouterr().err
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from invarcurves.cli import main; "
             "sys.exit(main())", *argv, "--out", str(tmp_path / "cold")],
            env=child_env(), capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (code, err)
        assert out_files(tmp_path / "cold") == out_files(tmp_path / "warm")

    def test_module_entry_point_keeps_the_exit_codes(self, tmp_path):
        # python -m runs cli.py as __main__, apart from invarcurves.cli: an
        # example job's usage error must be its exit 64, not a traceback from
        # a UsageError of a second copy of the module that main does not catch
        (tmp_path / "file").touch()
        done = subprocess.run(
            [sys.executable, "-m", "invarcurves.cli", "example", "3", "--samples", "64",
             "--out", str(tmp_path / "file")], env=child_env(), capture_output=True, text=True)
        assert done.returncode == 64
        assert done.stderr.startswith("usage error: cannot write trace.csv under --out")


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
    json.dumps({"num": [[-2, 0], [0, 0], [1, 0]], "den": [[1, 0]]}),
    json.dumps({"num": [[1, 0], [0, 0], [1, 0]], "den": [[0, 0], [2, 0]]}),
    json.dumps({"num": [[0, 0], [0.3, 0.4], [1, 0]], "den": [[1, 0], [0.5, 0]]}),
    json.dumps({"num": [[1, 0]], "den": [[1, 0]]}),
    json.dumps({"num": [[0, 0]], "den": [[1, 0]]}),
    json.dumps({"num": [[0, 0], [1, 0]], "den": [[1, 0]]}),
    json.dumps({"num": [[1e308, 0], [1e308, 0], [1e308, 0]], "den": [[1, 0]]}),
    json.dumps({"num": [[1e-308, 0], [0, 0], [1e-308, 0]], "den": [[1, 0]]})]),
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
    (SQUARE_JSON, "1,0"), (json.dumps({"num": [[-2, 0], [0, 0], [1, 0]], "den": [[1, 0]]}), "2,0"),
    (json.dumps({"num": [[-2, 0], [0, 0], [1, 0]], "den": [[1, 0]]}), "-1,0"),
    (json.dumps({"num": [[0, 0], [0, 0], [0, 0], [1, 0]], "den": [[1, 0]]}), "-1,0"),
    (json.dumps({"num": [[-1, 0], [0, 0], [1, 0]], "den": [[1, 0]]}), "1.618033988749895,0")])


@st.composite
def cli_argv(draw):
    """An argv for one of the subcommands (of example N), drawing only the
    flags that subcommand reads.  Each flag is "--flag=value", so that a
    value starting with "-" stays a value; optional flags appear or not."""
    def flags(required=False, **choices):
        return [f"--{name.replace('_', '-')}={draw(values)}"
                for name, values in choices.items() if required or draw(st.booleans())]

    # sizes are always given, so that no draw runs at the default 1024 / 60
    kind = draw(st.sampled_from(["poincare", "lattes", "semiconj", "example"]))
    if kind == "poincare":
        f, a = draw(st.one_of(LINEARIZABLE, st.tuples(MAPS, POINTS)))
        return (["poincare", f"--map={f}", f"--fixed-point={a}"]
                + flags(True, samples=SIZES, order=ORDERS)
                + flags(trace_range=NUMBERS, seed=SEEDS, format=FORMATS))
    if kind == "lattes":
        return (["lattes"] + flags(True, lattice=LATTICES, samples=SIZES)
                + flags(seed=SEEDS, tol=NUMBERS))
    if kind == "semiconj":
        argv = ["semiconj"] + flags(u=MAPS, v=MAPS, w=MAPS, m=SMALL_INTS, n=SMALL_INTS,
                                    tol=NUMBERS)
        if draw(st.booleans()):
            argv += ["--verify", draw(MAPS), draw(MAPS), draw(MAPS), draw(SMALL_INTS)]
        return argv
    which = draw(mostly(st.sampled_from(["1", "2", "3"]), st.sampled_from(["0", "x", "01"])))
    own = {"1": dict(omega1=NUMBERS, omega2=NUMBERS, offset_thirds=SMALL_INTS, dmax=SMALL_INTS),
           "2": dict(p=NUMBERS, offset_thirds=SMALL_INTS, dmax=SMALL_INTS),
           "3": dict(hyperbola_n=SMALL_INTS)}.get(which, {})
    return (["example", which] + flags(**own) + flags(True, samples=SIZES)
            + flags(seed=SEEDS, format=FORMATS))


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
