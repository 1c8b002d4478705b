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
and exit.  The children of the job kinds in NUMPY_FREE do not import numpy
first, since those jobs run without it, and so do those of two rows that
measure the front end, FRONT_END_RUNS times a round each: the benchmark's
set-up line (`import invarcurves.cli` alone) and one usage-error job.
Whatever numpy such a child loads falls in its import or main column, and a
phase it does not run reads "-".  Printed per job kind: the median of each phase, in ms,
one table per --src.  Several sources alternate job by job, so that the
drift of a shared machine falls on all of them alike.  Not part of the test
suite: it measures, it asserts nothing.
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
# the statement of each phase that the child runs
STEPS = {"numpy": "import numpy", "import invarcurves.cli": "from invarcurves.cli import main",
         "main": "code = main()"}
# (kind, argv, the child's phases) of the front-end rows; a computing job runs
# all three, or the last two if its kind is in NUMPY_FREE.  The usage error
# is argparse's: --order must be positive.
USAGE_ARGV = ["poincare", "--map", '{"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]]}',
              "--fixed-point", "1,0", "--order", "0"]
FRONT_END = (("set-up line", None, ("import invarcurves.cli",)),
             ("usage error", USAGE_ARGV, ("import invarcurves.cli", "main")))
FRONT_END_RUNS = 20
# the job kinds that run to their exit without numpy
NUMPY_FREE = ("semiconj", "verify")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child(steps):
    """The child's script: the statement of each phase in steps, each followed
    by a stamp, and the stamps on the last line of stdout."""
    lines = ["import time", "t = [time.perf_counter()]", "code = 0"]
    for step in steps:
        lines += [STEPS[step], "t.append(time.perf_counter())"]
    return "\n".join(lines + ["print(t)", "raise SystemExit(code)"]) + "\n"


def phases(argv, src, steps):
    """(whether F(R) was traced, the five phases in ms, None for one not run)
    of one cold job; argv None runs no job, only the steps."""
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as out:
        job = [] if argv is None else [*argv, "--out", out]
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", child(steps), *job], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        end = time.perf_counter()
        traced = (Path(out) / "trace.csv").exists()
    stamps = [start, *json.loads(done.stdout.splitlines()[-1]), end]
    ms = iter([1e3 * (b - a) for a, b in zip(stamps, stamps[1:])])
    return traced, [next(ms) if phase in ("interpreter start", *steps, "exit") else None
                    for phase in PHASES]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", action="append", type=Path,
                   help="a src/ directory to import invarcurves from (repeatable)")
    p.add_argument("--rounds", type=int, default=1, help="passes over the job lists")
    args = p.parse_args(argv)
    sources = args.src or [ROOT / "src"]
    jobs = [kind for kind in FRONT_END for _ in range(FRONT_END_RUNS)] \
        + [(job.kind, job.argv,
            tuple(s for s in STEPS if s != "numpy" or job.kind not in NUMPY_FREE))
           for w in workloads.WORKLOADS for job in workloads.make_jobs(w, 71)]
    times = [{} for _ in sources]
    for _ in range(args.rounds):
        for kind, job_argv, steps in jobs:
            for src, kinds in zip(sources, times):
                traced, ms = phases(job_argv, src, steps)
                suffix = "" if traced or kind != "poincare" else " untraced"
                kinds.setdefault(kind + suffix, []).append(ms)
    for src, kinds in zip(sources, times):
        print(f"\n{src}\n\n| job kind | jobs | " + " | ".join(PHASES) + " | total |")
        print("|---" * (len(PHASES) + 3) + "|")
        for kind, rows in sorted(kinds.items()):
            medians = [None if col[0] is None else statistics.median(col) for col in zip(*rows)]
            total = statistics.median(sum(filter(None, row)) for row in rows)
            print(f"| {kind} | {len(rows)} | "
                  + " | ".join("-" if m is None else f"{m:.1f}" for m in medians)
                  + f" | {total:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
