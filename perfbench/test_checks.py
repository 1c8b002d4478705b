"""Tests of the benchmark's own checks: each accepts the program's output and
rejects a deliberately corrupted copy of it.

    python3 perfbench/test_checks.py        (from the root of a checkout)
"""

import contextlib
import csv
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks      # noqa: E402
import workloads   # noqa: E402
from invarcurves import cli   # noqa: E402

SEED = 11


def _first(workload, predicate):
    return next(j for j in workloads.make_jobs(workload, SEED) if predicate(j))


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, self.tmp)
        self.cache = {}

    def run_job(self, job):
        outdir = self.tmp / "out"
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(job.argv + ["--out", str(outdir)])
        return outdir, code

    def assert_accepts_then_rejects(self, job, corrupt):
        outdir, code = self.run_job(job)
        outcome = checks.check(job, outdir, code, self.cache)
        self.assertTrue(outcome.ok, outcome.problems)
        bad = self.tmp / "corrupted"
        shutil.copytree(outdir, bad)
        corrupt(bad)
        self.assertFalse(checks.check(job, bad, code, self.cache).ok)

    def edit_json(self, path, edit):
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))

    def edit_trace_rows(self, path, job, edit):
        """Apply edit(row) to the trace rows the check samples."""
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for i in checks._sampled_rows(len(rows), checks._job_seed(job))[:1]:
            edit(rows[i])
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)

    def test_perturbed_g2(self):
        job = _first("lattes_curves", lambda j: j.kind == "lattes" and j.fault is None)

        def corrupt(d):
            def edit(report):
                report["invariants"]["g2"][0] *= 1 + 1e-7
            self.edit_json(d / "report.json", edit)
        self.assert_accepts_then_rejects(job, corrupt)

    def test_displaced_trace_point(self):
        job = _first("lattes_curves", lambda j: j.kind == "example1" and j.fault is None)

        def corrupt(d):
            def edit(row):
                row["re"] = repr(float(row["re"]) * (1 + 1e-7) + 1e-9)
            self.edit_trace_rows(d / "trace.csv", job, edit)
        self.assert_accepts_then_rejects(job, corrupt)

    def test_flipped_crossing_verdict(self):
        for family in ("exp", "cosh"):
            job = _first("linearizers", lambda j: j.meta.get("family") == family)

            def corrupt(d):
                def edit(report):
                    report["injective_at_resolution"] = not report["injective_at_resolution"]
                self.edit_json(d / "report.json", edit)
            with self.subTest(family=family):
                self.assert_accepts_then_rejects(job, corrupt)
                shutil.rmtree(self.tmp / "corrupted")
                shutil.rmtree(self.tmp / "out")

    def test_perturbed_h_coefficient(self):
        job = _first("semiconjugacies",
                     lambda j: j.meta.get("provenance") == "composition-swap")

        def corrupt(d):
            def edit(triple):
                triple["h"]["num"][0][0] += 1e-6
            self.edit_json(d / "triple.json", edit)
        self.assert_accepts_then_rejects(job, corrupt)

    def test_off_hyperbola_point(self):
        job = _first("semiconjugacies", lambda j: j.kind == "example3" and j.fault is None)

        def corrupt(d):
            def edit(row):
                row["im"] = repr(float(row["im"]) * (1 + 1e-6))
            self.edit_trace_rows(d / "trace.csv", job, edit)
        self.assert_accepts_then_rejects(job, corrupt)

    def test_kept_failures_are_detected(self):
        """Each kept-failing operation fails its check today."""
        for workload in workloads.WORKLOADS:
            for job in workloads.make_jobs(workload, SEED):
                if job.fault is None:
                    continue
                with self.subTest(job=job.label):
                    outdir, code = self.run_job(job)
                    self.assertFalse(checks.check(job, outdir, code, self.cache).ok)
                    shutil.rmtree(outdir, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
