"""Guard for the traced benchmark run (perfbench/run.py --trace 1): every
target of perfbench/tracing.py must name a function of the package, or the
tracer fails at install time.  tracing.py is loaded from its file, read only.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import invarcurves

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    for mod_name, attr, span, _ in load_tracing().TARGETS:
        owner = importlib.import_module(f"invarcurves.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), span
        else:
            assert callable(getattr(owner, attr, None)), span


def test_every_target_module_is_registered_on_import():
    # Tracer.install looks the modules up in sys.modules after the benchmark
    # has imported the CLI; a fresh interpreter shows what that registers
    src = str(Path(invarcurves.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, invarcurves.cli; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True)
    modules = {f"invarcurves.{t[0]}" for t in load_tracing().TARGETS}
    assert modules <= set(done.stdout.split())
