"""Smoke test: every narrative script in demos/, and every Python block of
README.md, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.M | re.S)


def run_python(*args):
    """Run a fresh interpreter from the repo root with src/ on its path, in
    dev mode with every warning an error, as tier-1 runs its own tests.  A
    warning raised in a finalizer (a leaked file's ResourceWarning) cannot
    end the run, so the interpreter's note of it on stderr fails it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", *args],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and "Exception ignored" not in proc.stderr, \
        proc.stderr[-2000:]


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    run_python(str(demo))


def test_readme_has_a_python_block():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block):
    run_python("-c", block)
