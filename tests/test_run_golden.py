"""run() outputs pinned bit for bit: sha256 of the grid arrays of each case.

Each digest covers an array's shape and its raw float64 bytes: the times,
positions and velocities of the Trajectory, the increments, multipliers,
residuals and force averages of the ContactMeasure.  The cases are the five
built-in scenarios at h = 0.01 and 0.001 over their default horizon, and
perfbench's falling discs at N = 2, 4 and 8 (seed 1, h = 0.005, T = 1).  The
expected digests live in golden_runs.json.  After a change that is meant to
alter trajectories, regenerate them with

    PYTHONPATH=src python tests/test_run_golden.py

and say in the change which runs moved and why.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from proxsweep import lookup, run

GOLDEN = Path(__file__).with_name("golden_runs.json")
DISCS = Path(__file__).resolve().parents[1] / "perfbench" / "discs.py"


def _scenario(name, h):
    scn = lookup(name)
    return scn.system, scn.force, scn.q0, scn.u0, h, scn.T


def _discs(n):
    spec = importlib.util.spec_from_file_location("perfbench_discs", DISCS)
    discs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(discs)
    q0, u0 = discs.disc_inputs(n, 1)
    return discs.disc_system(n), discs.disc_force(n), q0, u0, 0.005, 1.0


# case name -> () -> the arguments of run()
CASES = {
    **{f"{name}-h{h}": (lambda name=name, h=h: _scenario(name, h))
       for name in ("floor", "wedge", "piston", "pocket", "free") for h in (0.01, 0.001)},
    **{f"discs-n{n}": (lambda n=n: _discs(n)) for n in (2, 4, 8)},
}


def _sha(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array, dtype=float)
    return hashlib.sha256(repr(array.shape).encode() + array.tobytes()).hexdigest()


def run_digests(case: str) -> dict:
    traj, contact = run(*CASES[case]())
    return {"times": _sha(traj.times), "positions": _sha(traj.positions),
            "velocities": _sha(traj.velocities), "increments": _sha(contact.increments),
            "multipliers": _sha(contact.multipliers), "residuals": _sha(contact.residuals),
            "force_averages": _sha(contact.force_averages)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_output_bits(case):
    golden = json.loads(GOLDEN.read_text())
    got = run_digests(case)
    for array, digest in golden["cases"][case].items():
        assert got[array] == digest, f"{case}: {array} differs (golden made with " \
                                     f"{golden['versions']})"


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())["cases"]) == sorted(CASES)


if __name__ == "__main__":
    versions = {"python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": scipy.__version__}
    cases = {case: run_digests(case) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps({"versions": versions, "cases": cases},
                                 indent=1, sort_keys=True) + "\n")
