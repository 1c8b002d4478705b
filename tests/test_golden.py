"""Golden reports: one small job per subcommand, every --out file compared
byte for byte with the copy under tests/golden/<job>/.

A change that is meant to alter a report rewrites the copies with

    PYTHONPATH=src python tests/test_golden.py

and the diff of tests/golden/ then shows what changed.
"""

import json
import sys
from pathlib import Path

import pytest

from invarcurves import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SQUARE_JSON = json.dumps({"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]]})
SHIFT_JSON = json.dumps({"num": [[1, 0], [1, 0]], "den": [[1, 0]]})

JOBS = {
    # z^2 - 2 at its repelling fixed point -1: real multiplier, so F(R) is
    # traced, and it folds over [-2, 2], so the crossing list is not empty
    "poincare": ["poincare", "--map",
                 json.dumps({"num": [[-2, 0], [0, 0], [1, 0]], "den": [[1, 0]]}),
                 "--fixed-point=-1,0", "--samples", "64", "--order", "20", "--seed", "3"],
    "lattes": ["lattes", "--lattice", json.dumps({"g1": [2.0, 0.0], "g2": [0.5, 1.5]}),
               "--samples", "64", "--seed", "3"],
    # a seed of five 32-bit words takes SeedSequence's extra-word mixing path
    "lattes_multiword": ["lattes", "--lattice",
                         json.dumps({"g1": [2.0, 0.0], "g2": [0.5, 1.5]}),
                         "--samples", "64", "--seed", str(2 ** 130 + 99)],
    "semiconj": ["semiconj", "--u", SQUARE_JSON, "--v", SHIFT_JSON],
    "verify": ["semiconj", "--verify", SQUARE_JSON, SQUARE_JSON, SQUARE_JSON, "1"],
    "example1": ["example", "1", "--samples", "256", "--seed", "3"],
    "example2": ["example", "2", "--samples", "256", "--seed", "3"],
    "example3": ["example", "3", "--samples", "256"],
}


def run_job(name, out):
    return cli.main(JOBS[name] + ["--out", str(out)])


@pytest.mark.parametrize("name", sorted(JOBS))
def test_reports_match_the_golden_files(tmp_path, name):
    assert run_job(name, tmp_path) == 0
    want = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    for file in want:
        assert (tmp_path / file).read_bytes() == (GOLDEN / name / file).read_bytes(), file


if __name__ == "__main__":
    for name in JOBS:
        out = GOLDEN / name
        for old in out.glob("*"):
            old.unlink()
        if run_job(name, out) != 0:
            sys.exit(f"{name}: the job did not exit 0")
