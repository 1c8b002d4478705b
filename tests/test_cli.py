import json
import math
import os
import subprocess
import sys
from pathlib import Path

from invarcurves import cli
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

    def test_example_3_verdict(self, tmp_path):
        out = tmp_path / "e3"
        assert run(["example", "3", "--out", str(out)]) == 0
        v = read_json(out / "example3_report.json")["verdict"]
        assert all(v.values())

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
