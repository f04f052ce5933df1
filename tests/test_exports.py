"""The package's export list: what ``from qcongruence import *`` binds."""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import qcongruence


def test_star_import_in_a_fresh_interpreter():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = ("from qcongruence import *\n"
              "import qcongruence\n"
              "missing = [n for n in qcongruence.__all__ if n not in globals()]\n"
              "assert not missing, missing\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_all_lists_exactly_the_public_names():
    # a function deleted from a module cannot stay exported, and a public
    # name the package binds cannot be left out
    public = {name for name, value in vars(qcongruence).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert len(qcongruence.__all__) == len(set(qcongruence.__all__))
    assert set(qcongruence.__all__) == public
