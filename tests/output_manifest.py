"""Output manifest of the benchmark's job lists.

    python tests/output_manifest.py --write    # record tests/output_manifest.json
    python tests/output_manifest.py --check    # compare against it; exit 1 on a change
    python tests/output_manifest.py --check --cold   # the same, one fresh interpreter a job

Runs the job lists of every workload in perfbench/workloads.py at the seeds
in SEEDS, in this process through `invarcurves.cli.main` (with --cold, each
in a fresh interpreter through the benchmark's own command line, COLD), and
records per job its exit code, the first line it wrote to stderr and the
SHA-256 of every file it wrote to --out, with the Python and numpy versions,
the platform and the CPU features numpy dispatches on.
A change that means to move output bytes writes a new manifest, so that its
diff names the jobs whose outputs changed.  Floating-point results may differ
on another platform or numpy build, so the manifest is bound to the one it
was written on: --check exits 3 there, naming what differs.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "output_manifest.json"
SEEDS = (71, 5)
EXIT_CHANGED, EXIT_OTHER_PLATFORM = 1, 3
COLD = "import sys; from invarcurves.cli import main; sys.exit(main())"

# one BLAS thread, as in the benchmark; set before numpy is imported
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np                       # noqa: E402

import workloads                         # noqa: E402
from invarcurves import cli              # noqa: E402


def environment():
    """What the recorded bytes depend on besides the source."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:         # another numpy layout: its version differs anyway
        features = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}",
            "cpu_features": sorted(k for k, on in features.items() if on)}


def jobs():
    """(workload, seed, argv) of every job, in a fixed order."""
    return [(w, seed, job.argv) for w in workloads.WORKLOADS for seed in SEEDS
            for job in workloads.make_jobs(w, seed)]


def run_job(argv, cold=False):
    """Exit code, first stderr line and {file: sha256} of one job."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        code = (run_cold if cold else run_in_process)(argv + ["--out", out], err)
        files = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(Path(out).rglob("*")) if p.is_file()}
    return {"exit": code, "stderr": err.getvalue().partition("\n")[0], "files": files}


def run_in_process(argv, err):
    """Exit code of cli.main(argv), its stderr written to err."""
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception as exc:        # a traceback exit of the real CLI
            print(f"{type(exc).__name__}: {exc}", file=err)
            return 1


def run_cold(argv, err):
    """Exit code of argv run as a cold job, its stderr written to err."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", COLD, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    err.write(done.stderr)
    return done.returncode


def record(job_list, cold=False):
    return [{"workload": w, "seed": seed, "argv": argv, **run_job(argv, cold)}
            for w, seed, argv in job_list]


def check(manifest_path=MANIFEST, cold=False):
    manifest = json.loads(Path(manifest_path).read_text())
    other = [k for k, v in environment().items() if manifest["environment"].get(k) != v]
    if other:
        print(f"manifest written on another platform ({', '.join(other)} differ): "
              "not comparable", file=sys.stderr)
        return EXIT_OTHER_PLATFORM
    job_list = jobs()
    if [(j["workload"], j["seed"], j["argv"]) for j in manifest["jobs"]] != job_list:
        print("the job lists differ from the manifest's: write a new manifest", file=sys.stderr)
        return EXIT_CHANGED
    changed = 0
    for old, new in zip(manifest["jobs"], record(job_list, cold)):
        moved = [key for key in ("exit", "stderr", "files") if old[key] != new[key]]
        if moved:
            changed += 1
            files = sorted(name for name in old["files"].keys() | new["files"].keys()
                           if old["files"].get(name) != new["files"].get(name))
            named = f" ({', '.join(files)})" if files else ""
            print(f"{old['workload']} seed {old['seed']}: {', '.join(moved)} changed{named}: "
                  f"{' '.join(old['argv'])}", file=sys.stderr)
    print(f"{len(manifest['jobs'])} jobs, {changed} changed")
    return EXIT_CHANGED if changed else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    p.add_argument("--cold", action="store_true",
                   help="run each job in a fresh interpreter, as the benchmark does")
    args = p.parse_args(argv)
    if args.check:
        return check(cold=args.cold)
    manifest = {"environment": environment(), "jobs": record(jobs(), args.cold)}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"{len(manifest['jobs'])} jobs recorded in {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
