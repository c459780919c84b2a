"""The benchmark workloads: inputs from a seed, the user's command, its checks.

Each workload offers
  setup()    build what the first step needs (run in a fresh interpreter),
  command()  the user's command from start to a verified result (wall_s),
  probe()    one untraced run() at the finest h, then diagnose() on it three times.
The last two return the problems they found; a pass with any problem is a
failed pass.  disc_drop() is the many-disc run of the traced scaling curve.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import proxsweep
from proxsweep import cli
from proxsweep.errors import ProxsweepError
from proxsweep.scenarios import lookup

import discs

GAP_TOL = 1e-8
MOMENTUM_TOL = 1e-8
# diagnose() takes well under a second; timing it three times per pass
# steadies diagnose_s at little cost to the pass
DIAGNOSE_REPEATS = 3


@dataclass
class Sample:
    problems: list[str] = field(default_factory=list)
    # raw seconds of the timed segments "wall", "run" and "diagnose"
    times: dict[str, float] = field(default_factory=dict)
    steps: int = 0                  # steps taken in the "run" segment
    values: dict[str, float] = field(default_factory=dict)


def check_trajectory(gap: float, momentum: float, velocity_ok: bool) -> list[str]:
    problems = []
    if gap > GAP_TOL:
        problems.append(f"grid gap {gap:.3g} > {GAP_TOL}")
    if momentum > MOMENTUM_TOL:
        problems.append(f"momentum residual {momentum:.3g} > {MOMENTUM_TOL}")
    if not velocity_ok:
        problems.append("velocity bound violated")
    return problems


def _fmt_vec(v) -> str:
    return ",".join(repr(float(x)) for x in v)


class CliSweep:
    """A CLI h sweep with --verify and CSV output, driven in-process."""

    def __init__(self, scenario: str, sweep: tuple[float, float], T: float,
                 ref_tol: float, seed: int, workdir: str, keep_impact_phase: bool = False):
        self.scn = lookup(scenario)
        self.sweep, self.T, self.ref_tol = sweep, T, ref_tol
        self.u0 = self.scn.u0.copy()
        rng = np.random.default_rng(seed)
        # the start moves within +-1% of the scenario's default
        if keep_impact_phase:
            # Force-free flight: move each coordinate by whole coarse steps of
            # travel, so every impact keeps its place on the sweep's grids.
            # The CLI's error-decrease check under --verify depends on that
            # place and fails for about 2% of arbitrary wedge starts.
            quantum = np.abs(self.u0) * max(sweep)
            reach = np.floor(0.01 * self.scn.q0 / quantum)
            self.q0 = self.scn.q0 + quantum * rng.integers(-reach, reach + 1)
        else:
            self.q0 = self.scn.q0 * (1.0 + rng.uniform(-0.01, 0.01, self.scn.dim))
        self.stem = os.path.join(workdir, scenario)
        self.argv = ["--scenario", scenario, "--sweep", ",".join(f"{h:g}" for h in sweep),
                     "--T", f"{T:g}", "--verify", f"--q0={_fmt_vec(self.q0)}",
                     f"--u0={_fmt_vec(self.u0)}", "--out", self.stem]

    def inputs(self) -> dict:
        return {"argv": self.argv[:-2]}

    def setup(self) -> None:
        proxsweep.good_direction(self.scn.system, *self.scn.probe)
        proxsweep.initialize(self.scn.system, self.scn.force, self.q0, self.u0, min(self.sweep))

    def command(self) -> Sample:
        sample = Sample()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        sample.times["wall"] = time.perf_counter() - start
        if code != 0:
            sample.problems.append(f"CLI exit code {code}")
            return sample
        with open(f"{self.stem}.json", encoding="utf-8") as fh:
            rows = json.load(fh)["convergence"]
        if [row["h"] for row in rows] != list(self.sweep) or any(r["err"] is None for r in rows):
            sample.problems.append(f"bad convergence table {rows}")
        for h in self.sweep:
            with open(f"{self.stem}_h{h:g}.csv", encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
            if lines != round(self.T / h) + 2:
                sample.problems.append(f"h={h:g}: CSV has {lines} lines")
        for name in os.listdir(os.path.dirname(self.stem)):
            os.remove(os.path.join(os.path.dirname(self.stem), name))
        return sample

    def probe(self) -> Sample:
        sample = Sample()
        h, scn = min(self.sweep), self.scn
        admiss = proxsweep.good_direction(scn.system, *scn.probe)
        try:
            start = time.perf_counter()
            traj, contact = proxsweep.run(scn.system, scn.force, self.q0, self.u0, h, self.T)
            mid = time.perf_counter()
            for _ in range(DIAGNOSE_REPEATS):
                report = proxsweep.diagnose(traj, contact, scn.system, scn.force, admiss=admiss)
            end = time.perf_counter()
        except ProxsweepError as exc:  # SimulationAbort and the other solver errors
            sample.problems.append(f"abort: {exc}")
            return sample
        sample.times.update(run=mid - start, diagnose=(end - mid) / DIAGNOSE_REPEATS)
        sample.steps = traj.nsteps
        sample.values.update(max_gap=report.max_feasibility_gap,
                             momentum_residual=report.momentum_residual)
        sample.problems += check_trajectory(report.max_feasibility_gap, report.momentum_residual,
                                            report.velocity_bound_ok)
        err = proxsweep.interpolant_sup_error(traj, scn.reference(self.q0, self.u0))
        sample.values["ref_err"] = err
        if not err <= self.ref_tol:
            sample.problems.append(f"error vs analytic reference {err:.3g} > {self.ref_tol}")
        return sample


def disc_drop(n: int, seed: int, h: float, T: float) -> list[str]:
    """run() on n discs from rest (see discs.py), then its checks."""
    system, force = discs.disc_system(n), discs.disc_force(n)
    q0, u0 = discs.disc_inputs(n, seed)
    try:
        traj, contact = proxsweep.run(system, force, q0, u0, h, T)
    except ProxsweepError as exc:  # SimulationAbort and the other solver errors
        return [f"discs n={n}: abort: {exc}"]
    return check_trajectory(proxsweep.max_feasibility_gap(traj, system),
                            proxsweep.momentum_residual(traj, contact),
                            proxsweep.velocity_bound_ok(traj, contact, system))


# name -> (full size, tiny size used by the self-check)
WORKLOADS = {
    "floor-sweep": (dict(scenario="floor", sweep=(0.002, 0.001), T=2.0, ref_tol=0.005),
                    dict(scenario="floor", sweep=(0.02, 0.01), T=1.0, ref_tol=0.05)),
    "wedge-sweep": (dict(scenario="wedge", sweep=(0.0005, 0.00025), T=1.0, ref_tol=5e-4,
                         keep_impact_phase=True),
                    dict(scenario="wedge", sweep=(0.01, 0.005), T=1.0, ref_tol=0.05,
                         keep_impact_phase=True)),
}
# the traced scaling curve: discs dropping for (h, T), full size and tiny
DISCS_RUN = ((0.005, 1.0), (0.01, 0.3))


def make(name: str, seed: int, workdir: str, tiny: bool = False):
    return CliSweep(seed=seed, workdir=workdir, **WORKLOADS[name][1 if tiny else 0])
