"""Command line runner: single runs, h sweeps, verification gate, file output.

Outputs per run: a CSV trajectory (t, position components, velocity
components, |contact increment|, active-set bitmask; 17 significant digits)
and a JSON diagnostics summary.  Both are written from run() and diagnose()
alone: the bitmask is the report's activity mask, so the CLI evaluates no
constraint itself.  The JSON has the stable schema

    {scenario, h, T, max_feasibility_gap, total_variation, sup_velocity,
     impacts: [{t, u_minus, u_plus, residual}],
     constants: {kappa0, nu_min, T0},
     convergence: [{h, err, order}]}

Settings come from one table, SETTINGS: each config-file key is also a flag,
flag values win over file values, and every value is parsed from text by the
same parser whichever source gave it; the library's own input rules then
validate it, so the CLI restates none of them.  Booleans take only
1/true/yes/0/false/no in any case; --verify and --json-only set "true".

Exit codes: 0 success, 1 configuration error (an unknown key or flag, a value
that does not parse or fails validation, a sweep whose values repeat an output
stem), 2 simulation abort (tube exit or infeasibility) with the failing step
index, 3 verification failure under --verify.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys

import numpy as np

from .diagnostics import (DiagnosticsReport, diagnose, error_table, finest_run_reference,
                          law_bound)
from .errors import ConfigError, ProxsweepError, SimulationAbort
from .geometry import good_direction
from .integrator import _check_inputs, run
from .scenarios import BUILDERS, Scenario, lookup

CSV_DIGITS = 17


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _vector(text: str) -> np.ndarray:
    return np.array(_floats(text), dtype=float)


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _bool(text: str) -> bool:
    return _BOOLS[text.lower()]


_FROM_SCENARIO = object()

# Every run setting: name -> (parser of its text, default, flag help).  Config
# file keys and flags share these names (--json-only for json_only), and
# _FROM_SCENARIO takes the scenario's value.
SETTINGS = {
    "scenario": (str, "floor", f"scenario name ({', '.join(BUILDERS)})"),
    "h": (float, 0.01, "time step (default: 0.01)"),
    "T": (float, _FROM_SCENARIO, "final time"),
    "q0": (_vector, _FROM_SCENARIO, "initial position, comma separated"),
    "u0": (_vector, _FROM_SCENARIO, "initial velocity, comma separated"),
    "sweep": (_floats, (), "comma separated list of h values"),
    "verify": (_bool, False, "check invariants and convergence; exit 3 on failure"),
    "out": (str, "run", "output path stem (default: run)"),
    "json_only": (_bool, False, "skip CSV output"),
}


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


def resolve_settings(file_values: dict, flag_values: dict) -> tuple[Scenario, argparse.Namespace]:
    """Parse, default and validate the run settings; flag values win over file values.

    Both sources give text.  Each value is parsed once by its SETTINGS parser;
    an unknown key, a value that does not parse, one the library rejects
    (integrator._check_inputs), or a sweep with two values that print alike
    at %g, and so would write the same files, is a ConfigError.
    """
    cfg = {}
    for key, text in {**file_values, **flag_values}.items():
        if key not in SETTINGS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            cfg[key] = SETTINGS[key][0](text)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"cannot parse {key}={text!r}") from exc
    scn = lookup(cfg.get("scenario", SETTINGS["scenario"][1]))
    for key, (_, default, _) in SETTINGS.items():
        cfg.setdefault(key, getattr(scn, key) if default is _FROM_SCENARIO else default)

    # each h of a sweep writes its files at stem out_h{h:g}
    if len({f"{h:g}" for h in cfg["sweep"]}) < len(cfg["sweep"]):
        raise ConfigError(f"sweep values repeat an output stem (h to 6 digits): {cfg['sweep']}")
    try:  # the library's own input rules, checked before any run or file
        for h in cfg["sweep"] or [cfg["h"]]:
            _check_inputs(scn.system, scn.force, cfg["q0"], cfg["u0"], h, cfg["T"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return scn, argparse.Namespace(**cfg)


def _runs(differs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows that start a run of equal rows, and the run of every row,
    where differs[k] tells row k + 1 from row k."""
    starts = np.concatenate(([True], differs))
    return np.flatnonzero(starts), np.cumsum(starts) - 1


def write_csv(path: str, scn: Scenario, traj, contact, active) -> None:
    """One row per grid point, active the run's (N+1, p) activity mask
    (DiagnosticsReport.active); each run of equal values in a column, and of
    equal active rows, is formatted once."""
    d = scn.dim
    header = (["t"] + [f"q{i + 1}" for i in range(d)] + [f"u{i + 1}" for i in range(d)]
              + ["knorm", "active"])
    inc_norm = np.concatenate([[0.0], np.linalg.norm(contact.increments, axis=1)])
    columns = []
    for column in (traj.times, *traj.positions.T, *traj.velocities.T, inc_norm):
        key = column.view(np.int64)  # equal bits, so -0.0 and 0.0 stay apart
        heads, runs = _runs(key[1:] != key[:-1])
        text = [f"%.{CSV_DIGITS}g" % x for x in column[heads].tolist()]
        columns.append(np.array(text, dtype=object)[runs].tolist())
    heads, runs = _runs(np.any(active[1:] != active[:-1], axis=1))
    # Python-int bits keep the mask exact for any constraint id
    bits = np.array([1 << (c.id - 1) for c in scn.system.constraints], dtype=object)
    masks = (active[heads] * bits).sum(axis=1, initial=0).tolist()
    columns.append(np.array(["%d" % mask for mask in masks], dtype=object)[runs].tolist())
    lines = [",".join(header)] + list(map(",".join, zip(*columns)))
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
        "convergence": convergence or [],
    }


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _verify_run(report: DiagnosticsReport, h: float, sup_force: float) -> list[str]:
    problems = []
    if report.max_feasibility_gap > 1e-8:
        problems.append(f"feasibility gap {report.max_feasibility_gap:.3g} > 1e-8")
    if not report.velocity_bound_ok:
        problems.append("per-step velocity bound violated")
    if report.momentum_residual > 1e-8:
        problems.append(f"momentum balance residual {report.momentum_residual:.3g} > 1e-8")
    bound = law_bound(h, sup_force)
    for ev in report.impacts:  # NaN residuals (V empty) fail both comparisons below
        if math.isnan(ev.law_residual):
            problems.append(f"impact at t={ev.time:.4g} not verifiable (empty velocity polyhedron)")
        if ev.law_residual > bound:
            problems.append(f"impact residual {ev.law_residual:.3g} > {bound:.3g} at t={ev.time:.4g}")
        if ev.variational_max > bound:
            problems.append(f"variational inequality violated at t={ev.time:.4g}")
    return problems


def _verify_sweep(reports: list[DiagnosticsReport], rows: list[dict],
                  has_reference: bool) -> list[str]:
    problems = []
    sups = [r.sup_velocity for r in reports]
    tvs = [r.total_variation for r in reports]
    if min(sups) > 0 and (max(sups) - min(sups)) / min(sups) >= 0.10:
        problems.append("sup |u| varies by >= 10% over the sweep")
    # TVs all at the run's rounding level, as in exact free flight, have no spread
    if max(tvs) > 1e-9 * (1.0 + max(sups)) and max(tvs) - min(tvs) >= 0.25 * min(tvs):
        problems.append("TV(u) varies by >= 25% over the sweep")
    errs = [row["err"] for row in rows]
    if all(e <= 1e-12 for e in errs):
        return problems  # exact regime (e.g. free flight): nothing more to check
    for i in range(1, len(errs)):
        if not errs[i] < errs[i - 1]:
            problems.append(f"error not strictly decreasing at h={rows[i]['h']}")
    if has_reference and errs[-1] > 0.05:
        problems.append(f"final error {errs[-1]:.3g} > 0.05 vs analytic reference")
    return problems


def run_cli(args: argparse.Namespace) -> int:
    """Run, write and check each h of the sweep, or the one h with files at stem out.

    Only a sweep adds the error table, the summary JSON and the sweep checks.
    """
    flags = {key: value for key, value in vars(args).items()
             if key != "config" and value is not None}
    scn, cfg = resolve_settings(read_config_file(args.config) if args.config else {}, flags)
    T = cfg.T
    admiss = good_direction(scn.system, scn.probe[0], scn.probe[1])

    os.makedirs(os.path.dirname(cfg.out) or ".", exist_ok=True)

    # each h is integrated once; in a sweep its trajectory also feeds the error table
    trajectories, reports, problems = [], [], []
    for h in cfg.sweep or [cfg.h]:
        traj, contact = run(scn.system, scn.force, cfg.q0, cfg.u0, h, T)
        report = diagnose(traj, contact, scn.system, scn.force, admiss=admiss)
        stem = f"{cfg.out}_h{h:g}" if cfg.sweep else cfg.out
        if not cfg.json_only:
            write_csv(f"{stem}.csv", scn, traj, contact, report.active)
        write_json(f"{stem}.json", report_to_json(scn.name, h, T, report))
        problems += [f"h={h:g}: {p}" if cfg.sweep else p
                     for p in _verify_run(report, h, scn.force.sup_F)]
        trajectories.append(traj)
        reports.append(report)

    if not cfg.sweep:
        print(f"{scn.name} h={h:g} T={T:g}: steps={traj.nsteps} "
              f"gap={report.max_feasibility_gap:.3g} TV={report.total_variation:.6g} "
              f"sup|u|={report.sup_velocity:.6g} impacts={len(report.impacts)}")
    else:
        reference = scn.reference(cfg.q0, cfg.u0)
        rows = error_table(cfg.sweep, trajectories, reference or finest_run_reference(
            scn.system, scn.force, cfg.q0, cfg.u0, T, cfg.sweep))
        write_json(f"{cfg.out}.json", report_to_json(scn.name, None, T, reports[-1], rows))
        for h, rep, row in zip(cfg.sweep, reports, rows):
            print(f"{scn.name} h={h:g} T={T:g}: gap={rep.max_feasibility_gap:.3g} "
                  f"TV={rep.total_variation:.6g} sup|u|={rep.sup_velocity:.6g} "
                  f"err={row['err']:.3g}")
        problems += _verify_sweep(reports, rows, reference is not None)
    if not cfg.verify:
        return 0
    for p in problems:
        print(f"verify: {p}")
    return 3 if problems else 0


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)  # exit 1 like any configuration error, not 2


def build_parser() -> argparse.ArgumentParser:
    """One flag per SETTINGS key, plus --config; values stay text."""
    parser = _ArgumentParser(
        prog="proxsweep",
        description="Prediction-correction simulator for constrained second-order "
                    "dynamics with inelastic impacts.")
    parser.add_argument("--config", help="flat key=value config file")
    for key, (parse, _, text) in SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        if parse is _bool:  # a present flag reads as "true"
            parser.add_argument(flag, dest=key, action="store_const", const="true", help=text)
        else:
            parser.add_argument(flag, dest=key, help=text)
    return parser


def main(argv=None) -> int:
    try:
        return run_cli(build_parser().parse_args(argv))
    except (ConfigError, OSError) as exc:
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
