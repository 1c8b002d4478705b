"""The outputs of the benchmark's job lists against tests/output_manifest.json.

Both tests run tests/output_manifest.py in a child interpreter: its job
lists import perfbench and mpmath, which this process keeps out of the
modules that hypothesis draws constants from.
"""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
OTHER_PLATFORM = 3       # output_manifest.EXIT_OTHER_PLATFORM


def run(code):
    """(exit code, stdout, stderr) of a child running code beside output_manifest."""
    done = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, timeout=600)
    if done.returncode == OTHER_PLATFORM:
        pytest.skip(done.stderr.strip())
    return done.returncode, done.stdout, done.stderr


def test_every_output_matches_the_manifest():
    code, out, err = run("import sys, output_manifest as m; sys.exit(m.main(['--check']))")
    assert code == 0, err
    assert out.endswith(" 0 changed\n")


def test_a_one_ulp_change_names_its_job(tmp_path):
    # one ulp more on the invariance residual changes the report of an
    # example job and no output of a lattes job
    code, out, err = run(f"""
import json, sys
import numpy as np
import output_manifest as m
from invarcurves import curves

manifest = json.loads(m.MANIFEST.read_text())
jobs = [j for j in manifest["jobs"] if j["workload"] == "lattes_curves" and j["seed"] == 71]
manifest["jobs"] = [next(j for j in jobs if j["argv"][0] == kind) for kind in ("lattes", "example")]
path = {str(tmp_path / "manifest.json")!r}
with open(path, "w") as f:
    json.dump(manifest, f)
m.jobs = lambda: [(j["workload"], j["seed"], j["argv"]) for j in manifest["jobs"]]
residual = curves.invariance_residual
curves.invariance_residual = lambda *a: float(np.nextafter(residual(*a), np.inf))
print(" ".join(manifest["jobs"][1]["argv"]))
sys.exit(m.check(path))
""")
    assert code == 1, err
    changed = err.splitlines()
    assert changed == [f"lattes_curves seed 71: files changed (example1_report.json): "
                       f"{out.splitlines()[0]}"]
    assert out.splitlines()[1] == "2 jobs, 1 changed"


def test_one_cold_job_of_each_kind_matches_the_manifest(tmp_path):
    # the benchmark's own command line, main() on the process's argv: the
    # parser each job builds is chosen from sys.argv there
    code, out, err = run(f"""
import json, sys
import output_manifest as m

def kind(job):
    argv, files = job["argv"], job["files"]
    if argv[0] == "example":
        return "example " + argv[1]
    if argv[0] == "poincare":
        return "poincare traced" if "trace.csv" in files else "poincare untraced"
    if argv[0] == "semiconj":
        return "semiconj --verify" if "--verify" in argv else "semiconj build"
    return argv[0]

manifest = json.loads(m.MANIFEST.read_text())
first = {{}}
for job in manifest["jobs"]:
    first.setdefault(kind(job), job)
print(" ".join(sorted(first)))
manifest["jobs"] = list(first.values())
path = {str(tmp_path / "manifest.json")!r}
with open(path, "w") as f:
    json.dump(manifest, f)
m.jobs = lambda: [(j["workload"], j["seed"], j["argv"]) for j in manifest["jobs"]]
sys.exit(m.check(path, cold=True))
""")
    assert code == 0, err
    kinds, summary = out.splitlines()
    assert kinds == ("example 1 example 2 example 3 lattes poincare traced "
                     "poincare untraced semiconj --verify semiconj build")
    assert summary == "8 jobs, 0 changed"
