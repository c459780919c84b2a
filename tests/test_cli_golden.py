"""CLI output pinned byte for byte: sha256 of every output file and of stdout.

The expected digests live in golden_cli.json.  After a change that is meant
to alter CLI output, regenerate them with

    PYTHONPATH=src python tests/test_cli_golden.py

and say in the change which outputs moved and why.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from proxsweep.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
SCENARIOS = ("floor", "wedge", "piston", "pocket", "free")
SWEEP = ["--sweep", "0.02,0.01,0.005", "--verify"]

CASES = {
    **{f"{name}-defaults": ["--scenario", name] for name in SCENARIOS},
    **{f"{name}-sweep": ["--scenario", name] + SWEEP for name in SCENARIOS},
    "pocket-q0": ["--scenario", "pocket", "--q0=0.3,2"],
    "pocket-q0-sweep": ["--scenario", "pocket", "--q0=0.3,2"] + SWEEP,
    "pocket-verify": ["--scenario", "pocket", "--verify"],
    "wedge-sweep-noverify": ["--scenario", "wedge", "--sweep", "0.02,0.01,0.005"],
    "piston-sweep-json-only": ["--scenario", "piston"] + SWEEP + ["--json-only"],
    # the benchmark's sizes: 1000-4000 rows, rest runs and the 512-row block edge
    "floor-bench": ["--scenario", "floor", "--sweep", "0.002,0.001", "--T", "2", "--verify"],
    "wedge-bench": ["--scenario", "wedge", "--sweep", "0.0005,0.00025", "--T", "1", "--verify"],
    # T = 2 is no multiple of 0.003: the floor rests, then takes a shrunk last step
    "floor-partial": ["--scenario", "floor", "--sweep", "0.003,0.0015", "--T", "2", "--verify"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digests(args: list[str], out_dir: Path) -> dict:
    """Exit code and digests of stdout and of each file the CLI writes to out_dir."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(args + ["--out", str(out_dir / "run")])
    files = {path.name: _sha(path.read_bytes()) for path in sorted(out_dir.iterdir())}
    return {"exit": code, "stdout": _sha(stdout.getvalue().encode()), "files": files}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_bytes(case, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    expected = golden["cases"][case]
    got = cli_digests(CASES[case], tmp_path)
    where = f"{case} (golden made with {golden['versions']})"
    assert got["exit"] == expected["exit"], f"{where}: exit code differs"
    for name in sorted(set(expected["files"]) | set(got["files"])):
        assert got["files"].get(name) == expected["files"].get(name), f"{where}: {name} differs"
    assert got["stdout"] == expected["stdout"], f"{where}: stdout differs"


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())["cases"]) == sorted(CASES)


if __name__ == "__main__":
    cases = {}
    for case, args in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            cases[case] = cli_digests(args, Path(tmp))
    versions = {"python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": scipy.__version__}
    GOLDEN.write_text(json.dumps({"versions": versions, "cases": cases},
                                 indent=1, sort_keys=True) + "\n")
