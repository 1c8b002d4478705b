"""Phases of a cold job, per job kind of the benchmark's seed-71 job lists.

    python tests/cold_phases.py                       # this checkout's src/
    python tests/cold_phases.py --src A --src B       # two checkouts, job by job in turn
    python tests/cold_phases.py --rounds 3

Each job of the three workloads' lists (perfbench/workloads.py, seed 71)
runs as a fresh interpreter on the benchmark's own command line, main() on
the process's argv.  The child stamps time.perf_counter after it starts,
after `import numpy`, after `import invarcurves.cli` and after main(); the
parent stamps before the start and after the exit.  On Linux perf_counter
reads CLOCK_MONOTONIC, which parent and child share, so the differences are
the five phases: interpreter start, numpy, `import invarcurves.cli`, main
and exit.  Printed per job kind: the median of each phase, in ms, one table
per --src.  Several sources alternate job by job, so that the drift of a
shared machine falls on all of them alike.  Not part of the test suite: it
measures, it asserts nothing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads                         # noqa: E402

PHASES = ("interpreter start", "numpy", "import invarcurves.cli", "main", "exit")
# the benchmark's job line, with a stamp between its steps on the last line of stdout
CHILD = """import time
t = [time.perf_counter()]
import numpy
t.append(time.perf_counter())
from invarcurves.cli import main
t.append(time.perf_counter())
code = main()
t.append(time.perf_counter())
print(t)
raise SystemExit(code)
"""
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def phases(argv, src):
    """(kind suffix, the five phases in ms) of one cold job."""
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", CHILD, *argv, "--out", out], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        end = time.perf_counter()
        traced = (Path(out) / "trace.csv").exists()
    stamps = [start, *json.loads(done.stdout.splitlines()[-1]), end]
    return ("" if traced or argv[0] != "poincare" else " untraced",
            [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", action="append", type=Path,
                   help="a src/ directory to import invarcurves from (repeatable)")
    p.add_argument("--rounds", type=int, default=1, help="passes over the job lists")
    args = p.parse_args(argv)
    sources = args.src or [ROOT / "src"]
    jobs = [job for w in workloads.WORKLOADS for job in workloads.make_jobs(w, 71)]
    times = [{} for _ in sources]
    for _ in range(args.rounds):
        for job in jobs:
            for src, kinds in zip(sources, times):
                suffix, ms = phases(job.argv, src)
                kinds.setdefault(job.kind + suffix, []).append(ms)
    for src, kinds in zip(sources, times):
        print(f"\n{src}\n\n| job kind | jobs | " + " | ".join(PHASES) + " | total |")
        print("|---" * (len(PHASES) + 3) + "|")
        for kind, rows in sorted(kinds.items()):
            medians = [statistics.median(col) for col in zip(*rows)]
            total = statistics.median(sum(row) for row in rows)
            print(f"| {kind} | {len(rows)} | " + " | ".join(f"{m:.1f}" for m in medians)
                  + f" | {total:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
