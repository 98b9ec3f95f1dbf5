"""The names the benchmark under perfbench/ reads from the package.

perfbench imports and wraps functions of qcfrob by name; a name that
vanishes from src/ would break the benchmark and nothing else, so the
import, the tracer's wrapping and one kernel run here in a fresh
interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import kernels, child
from tracer import Tracer
child.install_tracer(Tracer())
raise SystemExit(child.main(["commutation"]))
"""


def test_perfbench_imports_wraps_and_runs_commutation():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["seconds"] > 0
