"""Command line runner: single runs, h sweeps, verification gate, file output.

Outputs per run: a CSV trajectory (t, position components, velocity
components, |contact increment|, active-set bitmask; 17 significant digits)
and a JSON diagnostics summary with the stable schema

    {scenario, h, T, max_feasibility_gap, total_variation, sup_velocity,
     impacts: [{t, u_minus, u_plus, residual}],
     constants: {kappa0, nu_min, T0},
     convergence: [{h, err, order}]}

Exit codes: 0 success, 1 configuration error, 2 simulation abort (tube exit
or infeasibility) with the failing step index, 3 verification failure under
--verify.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import DiagnosticsReport, diagnose, error_table, finest_run_reference
from .errors import ConfigError, ProxsweepError, SimulationAbort
from .geometry import good_direction
from .integrator import run
from .scenarios import Scenario, lookup

CSV_DIGITS = 17


@dataclass
class RunConfig:
    scenario: str
    h: float | None = None
    T: float | None = None
    q0: list[float] | None = None
    u0: list[float] | None = None
    sweep: list[float] = field(default_factory=list)
    out: str = "run"
    verify: bool = False
    json_only: bool = False
    J: float = 1.0
    jump_tol: float | None = None  # config-file tolerance override

    def validate(self, scn: Scenario) -> None:
        h = self.h if self.h is not None else scn.h
        T = self.T if self.T is not None else scn.T
        for hv in ([h] if not self.sweep else self.sweep):
            if not (hv > 0.0):
                raise ConfigError(f"h must be > 0, got {hv}")
            if not (T > hv):
                raise ConfigError(f"need T > h, got T={T}, h={hv}")
        for name, vec in (("q0", self.q0), ("u0", self.u0)):
            if vec is not None and len(vec) != scn.dim:
                raise ConfigError(f"{name} must have length {scn.dim}, got {len(vec)}")


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list {text!r}") from exc


def read_config_file(path: str) -> dict:
    """Flat key=value file; array values comma separated; # comments."""
    out: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                out[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def _apply_file_values(cfg: RunConfig, values: dict) -> RunConfig:
    for key, value in values.items():
        if key in ("scenario", "out"):
            cfg = replace(cfg, **{key: value})
        elif key in ("h", "T", "J", "jump_tol"):
            try:
                number = float(value)
            except ValueError as exc:
                raise ConfigError(f"cannot parse {key}={value!r} as a float") from exc
            cfg = replace(cfg, **{key: number})
        elif key in ("q0", "u0", "sweep"):
            cfg = replace(cfg, **{key: _parse_floats(value)})
        elif key in ("verify", "json_only"):
            cfg = replace(cfg, **{key: value.lower() in ("1", "true", "yes")})
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return cfg


def _fmt(x: float) -> str:
    return f"{x:.{CSV_DIGITS}g}"


def write_csv(path: str, scn: Scenario, traj, contact) -> None:
    from .geometry import active_set

    d = scn.dim
    header = (["t"] + [f"q{i + 1}" for i in range(d)] + [f"u{i + 1}" for i in range(d)]
              + ["knorm", "active"])
    lines = [",".join(header)]
    inc_norm = np.concatenate([[0.0], np.linalg.norm(contact.increments, axis=1)])
    for n in range(len(traj.times)):
        t, q, u = traj.times[n], traj.positions[n], traj.velocities[n]
        mask = 0
        for cid in active_set(scn.system, float(t), q).indices:
            mask |= 1 << (cid - 1)
        row = ([_fmt(float(t))] + [_fmt(v) for v in q] + [_fmt(v) for v in u]
               + [_fmt(float(inc_norm[n])), str(mask)])
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_num(x):
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return None
    return x


def report_to_json(scn_name: str, h: float | None, T: float,
                   report: DiagnosticsReport,
                   convergence: list[dict] | None = None) -> dict:
    return {
        "scenario": scn_name,
        "h": _json_num(h),
        "T": T,
        "max_feasibility_gap": report.max_feasibility_gap,
        "total_variation": report.total_variation,
        "sup_velocity": report.sup_velocity,
        "impacts": [
            {"t": ev.time, "u_minus": list(map(float, ev.u_minus)),
             "u_plus": list(map(float, ev.u_plus)),
             "residual": _json_num(ev.law_residual)}
            for ev in report.impacts
        ],
        "constants": {
            "kappa0": _json_num(report.constants.kappa0),
            "nu_min": _json_num(report.constants.nu_min),
            "T0": _json_num(report.constants.T0),
        },
        "convergence": convergence if convergence is not None else
        report.convergence_table,
    }


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _single_run(scn: Scenario, cfg: RunConfig, q0: np.ndarray, u0: np.ndarray,
                h: float, T: float):
    traj, contact = run(scn.system, scn.force, q0, u0, h, T)
    admiss = good_direction(scn.system, scn.probe[0], scn.probe[1])
    report = diagnose(traj, contact, scn.system, scn.force, admiss=admiss, J=cfg.J,
                      jump_tol=cfg.jump_tol)
    return traj, contact, report


def _verify_run(report: DiagnosticsReport, h: float, sup_force: float) -> list[str]:
    problems = []
    if report.max_feasibility_gap > 1e-8:
        problems.append(f"feasibility gap {report.max_feasibility_gap:.3g} > 1e-8")
    if not report.velocity_bound_ok:
        problems.append("per-step velocity bound violated")
    if report.momentum_residual > 1e-8:
        problems.append(f"momentum balance residual {report.momentum_residual:.3g} > 1e-8")
    bound = 5.0 * h * (1.0 + sup_force)
    for ev in report.impacts:
        if ev.verifiable and ev.law_residual > bound:
            problems.append(f"impact residual {ev.law_residual:.3g} > {bound:.3g} at t={ev.time:.4g}")
        if ev.verifiable and ev.variational_max > 1e-7 + bound:
            problems.append(f"variational inequality violated at t={ev.time:.4g}")
    return problems


def _verify_sweep(reports: list[DiagnosticsReport], rows: list[dict],
                  has_reference: bool) -> list[str]:
    problems = []
    sups = [r.sup_velocity for r in reports]
    tvs = [r.total_variation for r in reports]
    if min(sups) > 0 and (max(sups) - min(sups)) / min(sups) >= 0.10:
        problems.append("sup |u| varies by >= 10% over the sweep")
    if min(tvs) > 0 and (max(tvs) - min(tvs)) / min(tvs) >= 0.25:
        problems.append("TV(u) varies by >= 25% over the sweep")
    errs = [row.get("err") for row in rows]
    if any(e is None for e in errs):
        problems.append("a sweep run failed")
        return problems
    if all(e <= 1e-12 for e in errs):
        return problems  # exact regime (e.g. free flight): nothing more to check
    for i in range(1, len(errs)):
        if not errs[i] < errs[i - 1]:
            problems.append(f"error not strictly decreasing at h={rows[i]['h']}")
    if has_reference and errs[-1] > 0.05:
        problems.append(f"final error {errs[-1]:.3g} > 0.05 vs analytic reference")
    return problems


def run_cli(args: argparse.Namespace) -> int:
    cfg = RunConfig(scenario="floor")
    if args.config:
        cfg = _apply_file_values(cfg, read_config_file(args.config))
    for key in ("scenario", "h", "T", "out", "J"):
        if getattr(args, key) is not None:
            cfg = replace(cfg, **{key: getattr(args, key)})
    for key in ("q0", "u0", "sweep"):
        if getattr(args, key) is not None:
            cfg = replace(cfg, **{key: _parse_floats(getattr(args, key))})
    cfg = replace(cfg, verify=cfg.verify or args.verify,
                  json_only=cfg.json_only or args.json_only)

    scn = lookup(cfg.scenario)
    cfg.validate(scn)
    q0 = np.array(cfg.q0, dtype=float) if cfg.q0 is not None else scn.q0
    u0 = np.array(cfg.u0, dtype=float) if cfg.u0 is not None else scn.u0
    T = cfg.T if cfg.T is not None else scn.T
    if scn.system.p:
        g0 = scn.system.values(0.0, q0)
        if np.min(g0) <= 0.0:
            worst = int(np.argmin(g0))
            raise ConfigError(
                f"initial position infeasible: g_{scn.system.constraints[worst].id}"
                f"(0, q0) = {g0[worst]:.6g} <= 0")

    out_dir = os.path.dirname(cfg.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    if not cfg.sweep:
        h = cfg.h if cfg.h is not None else scn.h
        traj, contact, report = _single_run(scn, cfg, q0, u0, h, T)
        if not cfg.json_only:
            write_csv(f"{cfg.out}.csv", scn, traj, contact)
        write_json(f"{cfg.out}.json", report_to_json(scn.name, h, T, report))
        print(f"{scn.name} h={h:g} T={T:g}: steps={traj.nsteps} "
              f"gap={report.max_feasibility_gap:.3g} TV={report.total_variation:.6g} "
              f"sup|u|={report.sup_velocity:.6g} impacts={len(report.impacts)}")
        if cfg.verify:
            problems = _verify_run(report, h, scn.force.sup_F)
            for p in problems:
                print(f"verify: {p}")
            return 3 if problems else 0
        return 0

    # sweep: each h is integrated once; its trajectory also feeds the error table
    trajectories, reports = [], []
    for h in cfg.sweep:
        traj, contact, report = _single_run(scn, cfg, q0, u0, h, T)
        if not cfg.json_only:
            write_csv(f"{cfg.out}_h{h:g}.csv", scn, traj, contact)
        write_json(f"{cfg.out}_h{h:g}.json", report_to_json(scn.name, h, T, report))
        trajectories.append(traj)
        reports.append(report)

    reference = scn.reference(q0, u0)
    rows = error_table(cfg.sweep, trajectories, reference or finest_run_reference(
        scn.system, scn.force, q0, u0, T, cfg.sweep))
    summary = report_to_json(scn.name, None, T, reports[-1], convergence=rows)
    write_json(f"{cfg.out}.json", summary)
    for h, rep, row in zip(cfg.sweep, reports, rows):
        err = row.get("err")
        print(f"{scn.name} h={h:g} T={T:g}: gap={rep.max_feasibility_gap:.3g} "
              f"TV={rep.total_variation:.6g} sup|u|={rep.sup_velocity:.6g} "
              f"err={err if err is None else format(err, '.3g')}")
    if cfg.verify:
        problems = []
        for h, rep in zip(cfg.sweep, reports):
            problems += [f"h={h:g}: {p}" for p in _verify_run(rep, h, scn.force.sup_F)]
        problems += _verify_sweep(reports, rows, reference is not None)
        for p in problems:
            print(f"verify: {p}")
        return 3 if problems else 0
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxsweep",
        description="Prediction-correction simulator for constrained second-order "
                    "dynamics with inelastic impacts.")
    parser.add_argument("--scenario", help="scenario name (floor, wedge, piston, pocket, free)")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--h", type=float, help="time step")
    parser.add_argument("--T", type=float, help="final time")
    parser.add_argument("--q0", help="initial position, comma separated")
    parser.add_argument("--u0", help="initial velocity, comma separated")
    parser.add_argument("--sweep", help="comma separated list of h values")
    parser.add_argument("--verify", action="store_true",
                        help="check invariants and convergence; exit 3 on failure")
    parser.add_argument("--out", help="output path stem (default: run)")
    parser.add_argument("--json-only", dest="json_only", action="store_true",
                        help="skip CSV output")
    parser.add_argument("--J", type=float, help="horizon constant J (default 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_cli(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 1
    except SimulationAbort as exc:
        print(f"simulation abort at step {exc.step_index}: {exc.reason}", file=_sys.stderr)
        return 2
    except ProxsweepError as exc:
        print(f"simulation abort: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
