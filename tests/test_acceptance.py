"""Acceptance gate: one check per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All tolerances are fixed here, not calibrated at runtime.
"""

import math

import numpy as np
import pytest

from proxsweep import (InfeasibleConeError, active_set, compute_constants,
                       convergence_study, diagnose, good_direction, max_intergrid_gap,
                       momentum_residual, project_point, project_velocity, run,
                       verify_impact_law)
from proxsweep.scenarios import lookup

from conftest import (H_SWEEP, antipodal_pair, half_space_1d, reverse_triangle_constant,
                      sample_boundary, sample_feasible, sample_normal, zero_force)
from oracles import (OracleInfeasibleError, enumerate_qp, grid_project,
                     hypomonotonicity_residual)

NAMES = ["floor", "wedge", "piston", "pocket", "free"]


def _report(num, title, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({title})"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweeps():
    """One full h sweep per registry scenario, shared across criteria."""
    data = {}
    for name in NAMES:
        scn = lookup(name)
        data[name] = (scn, [(h, *run(scn.system, scn.force, scn.q0, scn.u0, h, scn.T))
                            for h in H_SWEEP])
    return data


def test_criterion_1_grid_feasibility(sweeps):
    worst = 0.0
    for name, (scn, runs) in sweeps.items():
        for h, traj, _ in runs:
            for t, q in zip(traj.times, traj.positions):
                worst = max(worst, -np.min(scn.system.values(float(t), q), initial=0.0))
    _report(1, "grid feasibility", worst <= 1e-8, f"max gap {worst:.3e} <= 1e-8")


def test_criterion_2_intergrid_bound(sweeps):
    scn, runs = sweeps["piston"]
    c0 = scn.system.lipschitz_c0
    ok, detail = True, []
    for h, traj, _ in runs:
        gap = max_intergrid_gap(traj, scn.system)
        ok &= gap <= c0 * h + 1e-8
        detail.append(f"h={h:g}: {gap:.2e} <= {c0 * h + 1e-8:.2e}")
    _report(2, "inter-grid distance bound", ok, "; ".join(detail))


def test_criterion_3_impact_law(sweeps):
    scn, runs = sweeps["floor"]
    ok, detail = True, []
    for h, traj, _ in runs:
        bound = 5.0 * h * (1.0 + scn.force.sup_F)
        events = verify_impact_law(traj, scn.system, sup_force=scn.force.sup_F)
        ok &= len(events) == 1
        for ev in events:
            ok &= not math.isnan(ev.law_residual) and ev.law_residual <= bound
            ok &= ev.variational_max <= bound
        res = events[0].law_residual if events else math.nan
        detail.append(f"h={h:g}: residual {res:.2e} <= {bound:.2e}")
    _report(3, "inelastic impact law", ok, "; ".join(detail))


def test_criterion_4_convergence(sweeps):
    ok, detail = True, []
    for name in ("floor", "piston"):
        scn, _ = sweeps[name]
        rows = convergence_study(scn.system, scn.force, scn.q0, scn.u0, scn.T,
                                 H_SWEEP, reference=scn.reference())
        errs = [row["err"] for row in rows]
        ok &= all(e is not None for e in errs)
        ok &= all(e1 < e0 for e0, e1 in zip(errs, errs[1:]))
        ok &= errs[-1] <= 0.05
        detail.append(f"{name}: errors {['%.3g' % e for e in errs]}")
    scn, _ = sweeps["free"]
    rows = convergence_study(scn.system, scn.force, scn.q0, scn.u0, scn.T,
                             H_SWEEP, reference=scn.reference())
    free_ok = all(row["err"] <= 1e-12 for row in rows)
    ok &= free_ok
    detail.append(f"free: max error {max(row['err'] for row in rows):.2e} <= 1e-12")
    _report(4, "convergence to analytic references", ok, "; ".join(detail))


def test_criterion_5_uniform_bounds(sweeps):
    ok, detail = True, []
    for name, (scn, runs) in sweeps.items():
        reports = [diagnose(traj, contact, scn.system, scn.force) for _, traj, contact in runs]
        sups = [report.sup_velocity for report in reports]
        tvs = [report.total_variation for report in reports]
        sup_ok = max(sups) - min(sups) < 0.10 * min(sups) or max(sups) <= 1e-9
        tv_ok = max(tvs) - min(tvs) < 0.25 * min(tvs) or max(tvs) <= 1e-9
        ok &= sup_ok and tv_ok
        detail.append(f"{name}: sup in [{min(sups):.3g},{max(sups):.3g}], "
                      f"TV in [{min(tvs):.3g},{max(tvs):.3g}]")
    _report(5, "uniform velocity and variation bounds", ok, "; ".join(detail))


def _point_instances(name, rng):
    scn = lookup(name)
    for _ in range(100):
        if name == "piston":
            t = float(rng.uniform(0.0, 1.5))
            x = np.array([t + rng.uniform(-2.0, 2.0)])
            box = (np.array([t - 3.0]), np.array([t + 3.0]))
        else:
            t = 0.0
            x = rng.uniform(-2.0, 2.0, size=scn.dim)
            box = (np.full(scn.dim, -3.0), np.full(scn.dim, 3.0))
        yield scn, t, x, box


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(101)
    resolution = 5e-4
    worst_pt = 0.0
    for name in NAMES:
        for scn, t, x, box in _point_instances(name, rng):
            orc = grid_project(scn.system, t, x, resolution, box)
            dist_orc = float(np.linalg.norm(orc.value - x))
            if dist_orc >= 0.95 * scn.system.eta:
                continue  # outside the single-valued regime; skip, see pre
            res = project_point(scn.system, t, x)
            worst_pt = max(worst_pt, float(np.linalg.norm(res.point - orc.value)))
    point_ok = worst_pt <= 3 * resolution

    from test_projection import random_polyhedron_instance
    worst_qp, count = 0.0, 0
    while count < 500:
        poly, u = random_polyhedron_instance(rng)
        try:
            expected = enumerate_qp(poly, u)
        except OracleInfeasibleError:
            with pytest.raises(InfeasibleConeError):
                project_velocity(poly, u)
            continue
        got = project_velocity(poly, u)
        worst_qp = max(worst_qp, float(np.linalg.norm(got.point - expected.value)))
        count += 1
    qp_ok = worst_qp <= 1e-9
    _report(6, "solver vs oracle equivalence", point_ok and qp_ok,
            f"point max dev {worst_pt:.2e} <= {3 * resolution:.1e}; "
            f"velocity max dev {worst_qp:.2e} <= 1e-9 over {count} instances")


def test_criterion_7_hypomonotonicity():
    ok, detail = True, []
    for name in ("floor", "wedge", "piston", "pocket"):
        sys = lookup(name).system
        rng = np.random.default_rng(202)
        worst = -math.inf
        for _ in range(1000):
            t, x = sample_boundary(name, rng)
            y = sample_feasible(name, rng, t)
            v = sample_normal(sys, t, x, rng)
            worst = max(worst, hypomonotonicity_residual(sys, t, x, y, v))
        ok &= worst <= 1e-9
        detail.append(f"{name} (eta={sys.eta:g}): max residual {worst:.2e}")
    _report(7, "hypomonotonicity of the normal cone", ok, "; ".join(detail))


def test_criterion_8_multiplier_contract(sweeps):
    ok, worst_res, worst_mom = True, 0.0, 0.0
    for name, (scn, runs) in sweeps.items():
        sys = scn.system
        for h, traj, contact in runs:
            for j in range(traj.nsteps):
                lam, inc = contact.multipliers[j], contact.increments[j]
                if lam.size and np.min(lam) < 0.0:
                    ok = False
                tol = 1e-8 * (1.0 + np.linalg.norm(inc))
                t1, q1 = float(traj.times[j + 1]), traj.positions[j + 1]
                if np.linalg.norm(inc) > tol:
                    act = active_set(sys, t1, q1)
                    if len(act) == 0:
                        ok = False
                        continue
                    grads = sys.gradients(t1, q1)
                    worst_res = max(worst_res,
                                    float(np.linalg.norm(lam @ grads + inc)) / (1.0 + np.linalg.norm(inc)))
                if lam.size and np.max(lam) > 1e-10:
                    act = active_set(sys, t1, q1)
                    for i, con in enumerate(sys.constraints):
                        if lam[i] > 1e-10 and con.id not in act:
                            ok = False
            worst_mom = max(worst_mom, momentum_residual(traj, contact))
    ok &= worst_res <= 1e-8 and worst_mom <= 1e-8
    _report(8, "Kuhn-Tucker multiplier contract", ok,
            f"max cone residual {worst_res:.2e} <= 1e-8, "
            f"max momentum residual {worst_mom:.2e} <= 1e-8")


def test_criterion_9_theoretical_constants(sweeps):
    scn = lookup("floor")
    consts = compute_constants(scn.system, good_direction(scn.system, *scn.probe), scn.q0,
                               scn.u0, scn.force, 0.01, scn.T)
    kappa_ok = consts.kappa0 == 1.0
    nu_ok = consts.nu_min == 1.0 / 6.0  # min(inf, 1/(2*(0+1+2))) by hand

    rec = compute_constants(lookup("free").system, None, np.array([1.0]), np.array([1.0]),
                            zero_force(1), 0.01, 1.0)
    t0_ok = rec.T0 == 0.125

    pocket, runs = sweeps["pocket"]
    u0 = float(np.linalg.norm(pocket.u0))
    sup_f = pocket.force.sup_F
    t0 = 1.0 / (2.0 * 2.0 * (2.0 * u0 + 3.0 * sup_f + math.sqrt(sup_f)))
    horizon_ok = True
    for h, traj, _ in runs:
        bound = 2.0 * (2.0 * u0 + 3.0 * h * sup_f + math.sqrt(sup_f))
        early = [np.linalg.norm(traj.velocities[n + 1])
                 for n in range(traj.nsteps) if traj.times[n] <= t0]
        horizon_ok &= max([u0] + early) <= bound
    _report(9, "theoretical constants", kappa_ok and nu_ok and t0_ok and horizon_ok,
            f"kappa0 = {consts.kappa0}, nu_min = {consts.nu_min}, T0 = {rec.T0}, "
            f"pocket horizon bound holds for all h")


def test_criterion_10_reverse_triangle():
    single = reverse_triangle_constant(half_space_1d(), 0.0, np.array([0.0]))
    ortho = reverse_triangle_constant(lookup("wedge").system, 0.0,
                                      np.array([0.0, 0.0]))
    anti = reverse_triangle_constant(antipodal_pair(), 0.0, np.array([0.0, 0.3]))
    ok = (single == 1.0 and abs(ortho - math.sqrt(2.0)) <= 1e-3
          and anti == math.inf)
    _report(10, "reverse triangle constant", ok,
            f"single {single}, orthogonal {ortho:.6f} (sqrt2 +- 1e-3), "
            f"antipodal {anti}")
