"""Benchmark of the `invarcurves` batch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
./src).  One client runs jobs one at a time (a closed loop).  A run repeats
whole rounds of the workload's seeded job list until `--seconds` would be
exceeded, and always runs at least MIN_COMPLETED completed jobs.  Every
job's outputs are checked against references computed apart from the program
(refs.py, checks.py).

--trace 0: every job is a cold `invarcurves` subprocess; prints the
end-to-end metrics, every time scaled by a speed probe run between the jobs
(see PROBE).  --trace 1: the same rounds run in this process through
`invarcurves.cli.main(argv)`; after one warm-up round every job runs traced
and untraced back to back; prints the per-layer metrics per round and the
tracing overhead.  The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread: jobs are single-threaded numerically and the benchmark
# measures one client on a shared machine.  Set before numpy is imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
sys.path.insert(0, str(HERE))

import checks      # noqa: E402
import workloads   # noqa: E402

MIN_COMPLETED = 40     # job_tail_s (p75) then has at least ten jobs beyond it
TAIL_PERCENTILE = 75
SETUP_EVERY = 3        # one set-up sample before every 3rd job
PROBE_EVERY = 2        # one speed probe before every 2nd job
JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 140.0    # no new round starts after this, so a run ends within 180 s
CLI = "import sys; from invarcurves.cli import main; sys.exit(main())"

# The speed probe: a cold interpreter that imports numpy and does a fixed mix
# of interpreted and numpy work, like a job's start-up and compute.  It runs
# nothing of the program, so its time follows the machine alone.  The machine
# is shared and its speed drifts by tens of percent over minutes; every
# timing metric is scaled by PROBE_REF / (the run's median probe time), so it
# reads as on the reference machine at its usual speed.
PROBE = """
import numpy as np
s = 0
for i in range(200000):
    s += i * i % 7
a = np.linspace(0.0, 1.0, 4096)
for _ in range(1000):
    s += float(np.sqrt(a * a + 1.0).sum())
"""
PROBE_REF_WALL_S = 0.30    # the probe's median wall time on the reference machine
PROBE_REF_CPU_S = 0.30     # ... and its median user+system CPU time


def child_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONHASHSEED", None)
    return env


def spawn(argv, env, stderr_path):
    """Run one process to completion: (wall s, user+sys cpu s, peak rss MB, exit code)."""
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, env, file_actions=actions)
    watchdog = threading.Timer(JOB_TIMEOUT_S, _kill, (pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            os.waitstatus_to_exitcode(status))


def _kill(pid):
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, 9)


def time_setup(env, work):
    """Wall time of a cold interpreter that imports invarcurves.cli and exits."""
    wall, _, _, code = spawn(["-c", "import invarcurves.cli"], env, work / "setup.err")
    if code != 0:
        raise SystemExit(f"cannot import invarcurves.cli from {SRC}: "
                         + (work / "setup.err").read_text()[-400:])
    return wall


class Tally:
    """Attempted/failed counts, correctness and the completed jobs' records."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.records = []          # (wall, cpu, rss) of completed jobs
        self.headroom = math.inf

    def add(self, job, outcome, record=None):
        self.attempted += 1
        if outcome.ok:
            if record is not None:
                self.records.append(record)
            self.headroom = min(self.headroom, outcome.headroom())
            return
        self.failed += 1
        if job.fault is None:
            self.correct = False
            print(f"INCORRECT {job.label}: {'; '.join(outcome.problems)}", file=sys.stderr)

    @property
    def completed(self):
        return self.attempted - self.failed


def run_rounds(seconds, run_round):
    """Whole rounds until the next would pass `seconds` (and enough jobs ran)."""
    start = time.perf_counter()
    rounds = 0
    while True:
        t = time.perf_counter()
        enough = run_round(rounds)
        rounds += 1
        last = time.perf_counter() - t
        elapsed = time.perf_counter() - start
        if elapsed + last > RUN_LIMIT_S or (enough and elapsed + last > seconds):
            return rounds


def cold_run(jobs, seconds, work):
    env = child_env()
    time_setup(env, work)          # the first start compiles bytecode
    probe(env, work)               # ... and loads numpy into the page cache
    setups = []
    probes = []                    # (wall, cpu)
    tally = Tally()
    cache = {}

    def one_round(r):
        for i, job in enumerate(jobs):
            # set-up samples and probes spread over the run: the machine's
            # speed drifts on a scale of seconds, so back-to-back samples
            # share one phase
            if i % PROBE_EVERY == 0:
                probes.append(probe(env, work))
            if i % SETUP_EVERY == 0:
                setups.append(time_setup(env, work))
            outdir = work / f"job{i:02d}"
            outdir.mkdir(parents=True, exist_ok=True)
            wall, cpu, rss, code = spawn(["-c", CLI] + job.argv + ["--out", str(outdir)],
                                         env, work / f"job{i:02d}.err")
            tally.add(job, checks.check(job, outdir, code, cache), (wall, cpu, rss))
            shutil.rmtree(outdir)
        return tally.completed >= MIN_COMPLETED

    run_rounds(seconds, one_round)
    if not math.isfinite(tally.headroom):
        raise SystemExit("no completed job had a checked quantity")
    probe_wall = statistics.median(w for w, _ in probes)
    probe_cpu = statistics.median(c for _, c in probes)
    unscaled = run_metrics(setups, tally)
    print(json.dumps({"unscaled": {k: v for k, (v, _) in unscaled.items()},
                      "probe_wall_s": probe_wall, "probe_cpu_s": probe_cpu}), file=sys.stderr)
    metrics = run_metrics(setups, tally, PROBE_REF_WALL_S / probe_wall, PROBE_REF_CPU_S / probe_cpu)
    return tally, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_metrics(setups, tally, wall_scale=1.0, cpu_scale=1.0):
    walls = sorted(w * wall_scale for w, _, _ in tally.records)
    n = len(walls)
    return {
        "setup_s": (statistics.median(setups) * wall_scale, "s"),
        "jobs_per_s": (n / sum(walls), "1/s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (walls[math.ceil(TAIL_PERCENTILE / 100 * n) - 1], "s"),
        "cpu_s_per_job": (sum(c for _, c, _ in tally.records) * cpu_scale / n, "s"),
        "peak_rss_mb": (max(r for _, _, r in tally.records), "MB"),
        "headroom_digits": (tally.headroom, "digits"),
    }


def probe(env, work):
    """(wall s, cpu s) of one speed probe."""
    wall, cpu, _, code = spawn(["-c", PROBE], env, work / "probe.err")
    if code != 0:
        raise SystemExit("speed probe failed: " + (work / "probe.err").read_text()[-400:])
    return wall, cpu


def traced_run(jobs, seconds, work):
    sys.path.insert(0, str(SRC))
    from invarcurves import cli
    import tracing

    tracer = tracing.Tracer()
    tally = Tally()
    cache = {}
    totals = {True: 0.0, False: 0.0}
    measured = 0

    def one_round(r):
        nonlocal measured
        for i, job in enumerate(jobs):
            # round 0 is the warm-up (lazy imports, caches); later rounds run
            # every job traced and untraced back to back, in alternating
            # order, so the machine's drift cancels from the overhead
            modes = (False,) if r == 0 else ((True, False) if (i + r) % 2 else (False, True))
            for traced in modes:
                outdir = work / f"job{i:02d}"
                if traced:
                    tracer.install()
                try:
                    t0 = time.perf_counter()
                    code = _main_in_process(cli, job.argv + ["--out", str(outdir)])
                    if r:
                        totals[traced] += time.perf_counter() - t0
                finally:
                    tracer.uninstall()
                tally.add(job, checks.check(job, outdir, code, cache))
                shutil.rmtree(outdir, ignore_errors=True)
        measured += r > 0
        return measured >= 1

    run_rounds(seconds, one_round)
    tracer.save(work / "spans.npz")
    metrics = tracer.layer_metrics(measured)
    untraced, traced = totals[False] / measured, totals[True] / measured
    for (name, unit), value in zip(tracing.OVERHEAD_METRICS, (untraced, traced, traced - untraced)):
        metrics[name] = {"value": value, "unit": unit}
    return tally, metrics


def _main_in_process(cli, argv):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception:          # a traceback exit of the real CLI
            return 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "invarcurves" / "cli.py").is_file():
        print(f"no program source at {SRC / 'invarcurves'}: run from a source checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    jobs = workloads.make_jobs(args.workload, args.seed)
    runner = traced_run if args.trace else cold_run
    try:
        tally, metrics = runner(jobs, args.seconds, work)
    finally:
        for path in work.iterdir():
            if path.name != "spans.npz":
                shutil.rmtree(path) if path.is_dir() else path.unlink()
        with contextlib.suppress(OSError):
            work.rmdir()
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
