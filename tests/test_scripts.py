"""Smoke tests: each example script runs from the checkout and prints its report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, expected", [
    ("convergence_table.py", ["--levels", "2", "--scenarios", "free,floor"],
     "        0.02    4.8000e-02    1.00"),
    ("drop_into_pocket.py", [], "pocket drop from height 2.25, h = 0.005"),
], ids=["convergence_table", "drop_into_pocket"])
def test_script_runs(script, args, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout.splitlines()
