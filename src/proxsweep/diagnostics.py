"""Post-hoc verification of trajectory properties and theoretical constants.

Everything here reads a finished trajectory: feasibility gaps on and between
grid points, total variation and sup norm of the velocity, impact events
checked exactly against the inelastic law u+ = P_V(u-), the a-priori velocity
bound A(1), the local horizon T0 and the start margin.  compute_constants is
the one place these constants are derived, kappa0 and nu_min from a
good-direction certificate's delta, and law_bound the one place of the
tolerance on an impact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleConeError
from .geometry import (AdmissibilityEstimate, ConstraintSystem, _active_mask,
                       least_distance, velocity_polyhedron)
from .integrator import ContactMeasure, ForceField, Trajectory, run
from .projection import project_point, project_velocity

SAMPLES_PER_STEP = 4        # interpolant samples per step (quarter intervals)
COVERING_RADIUS = 1.0       # covering radius r asserted for every scenario, in nu_min


@dataclass
class ImpactEvent:
    """A velocity jump at a contact point.

    u_minus / u_plus are the discrete one-sided velocities around the jump
    window, law_residual = |u_plus - P_V(u_minus)| and variational_max how far
    (u+, u- - u+) is from the law's exact criterion (verify_impact_law); both
    are NaN when V is empty and the event cannot be verified.
    """

    time: float
    u_minus: np.ndarray
    u_plus: np.ndarray
    law_residual: float
    variational_max: float


@dataclass
class ConstantsRecord:
    kappa0: float | None = None
    nu_min: float | None = None
    T0: float | None = None
    A_k: float | None = None
    margin_ok: bool | None = None


@dataclass
class DiagnosticsReport:
    max_feasibility_gap: float
    max_intergrid_gap: float
    total_variation: float
    sup_velocity: float
    impacts: list[ImpactEvent]
    constants: ConstantsRecord
    velocity_bound_ok: bool = True        # |u^{n+1}| <= 2|u^n + h f^n| + c0
    momentum_residual: float = 0.0        # |u(T) - u0 - sum h f + sum dk|


def _jumps(traj: Trajectory) -> np.ndarray:
    """|u^{n+1} - u^n| for every step n."""
    return np.linalg.norm(np.diff(traj.velocities, axis=0), axis=1)


def _grid_values(traj: Trajectory, sys: ConstraintSystem) -> np.ndarray:
    """g at every grid point as (p, N+1), so that a reduction over the
    constraints runs along the grid: across a row numpy pays per row."""
    return np.ascontiguousarray(sys.values(traj.times, traj.positions).T)


def _column_sums(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=0) bit for bit, for x (N, d): numpy sums one column pairwise
    and several row by row in grid order, and that order costs half as much
    run down each column."""
    if x.shape[1] == 1 or not len(x):
        return x.sum(axis=0)
    return np.add.accumulate(x.T, axis=1)[:, -1]


def total_variation(traj: Trajectory) -> float:
    """Sum of |u^{n+1} - u^n| over the grid, starting from u^0 = u0."""
    return float(np.sum(_jumps(traj)))


def sup_velocity(traj: Trajectory) -> float:
    return float(np.max(np.linalg.norm(traj.velocities, axis=1)))


def max_feasibility_gap(traj: Trajectory, sys: ConstraintSystem) -> float:
    """max over grid times of max_i (-g_i(t^n, q^n))_+."""
    return _feasibility_gap(sys.values(traj.times, traj.positions))


def _feasibility_gap(g: np.ndarray) -> float:
    return max(0.0, -float(np.min(g, initial=np.inf)))


def _interpolant(traj: Trajectory, fractions,
                 steps=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """(t, q_h(t)) at t = (1-w) t^n + w t^{n+1} for each w in fractions and every
    step n in steps, ordered step by step; q_h is linear in t on each step."""
    w = np.asarray(fractions, dtype=float)[:, None]
    grid = np.column_stack([traj.times, traj.positions])
    starts, ends = grid[:-1][steps, None], grid[1:][steps, None]
    samples = ((1.0 - w) * starts + w * ends).reshape(-1, grid.shape[1])
    return samples[:, 0], samples[:, 1:]


def max_intergrid_gap(traj: Trajectory, sys: ConstraintSystem) -> float:
    """max over sampled intermediate times of dist(q_h(t), C(t)); a sample
    whose projection does not converge counts as inf.

    On an affine set g is affine in (t, q), so along a step's chord each g_i
    is affine in w and a step with both ends in C stays in C: only steps with
    an infeasible end are sampled, and a sample that roundoff would put a
    hair outside on any other step reads 0.  Other sets sample every step.
    """
    return _intergrid_gap(traj, sys, _grid_values(traj, sys) if sys.affine else None)


def _intergrid_gap(traj, sys, g) -> float:
    """max_intergrid_gap given g = _grid_values(traj, sys) on an affine set."""
    steps = slice(None)
    if sys.affine:
        out = np.any(g < 0.0, axis=0)
        steps = np.flatnonzero(out[:-1] | out[1:])
        if not len(steps):
            return 0.0
    times, points = _interpolant(traj, np.linspace(0.0, 1.0, SAMPLES_PER_STEP + 1)[1:-1], steps)
    outside = np.flatnonzero(np.any(sys.values(times, points) < 0.0, axis=1))
    projections = (project_point(sys, times[i], points[i]) for i in outside)
    return max((p.distance if p.converged else math.inf for p in projections), default=0.0)


def _largest_step(traj: Trajectory) -> float:
    return float(np.max(np.diff(traj.times), initial=0.0))


def law_bound(h: float, sup_force: float) -> float:
    """5 h (1 + sup_F): the --verify bound on an impact's law_residual and
    variational_max, and the distance within which verify_impact_law counts a
    row of V as active at u+."""
    return 5.0 * h * (1.0 + sup_force)


def detect_impacts(traj: Trajectory, sys: ConstraintSystem,
                   sup_force: float) -> list[tuple[int, int]]:
    """Index windows [a, b] of steps forming one contact-induced jump.

    A window is a maximal run of steps that end in contact with a jump
    |u^{n+1} - u^n| above the smooth-forcing level, and that holds at least
    one jump above the seed threshold: an off-grid impact resolves over two
    consecutive steps and must count as one event.  Both thresholds are
    derived from the largest step h and the run's sup_F, each floored at 1e-7.
    """
    return _impact_windows(traj, _grid_values(traj, sys), _jumps(traj), _largest_step(traj),
                           sup_force)


def _impact_windows(traj, g, jumps, h: float, sup_force: float) -> list[tuple[int, int]]:
    """detect_impacts given g = _grid_values(traj, sys), jumps = _jumps(traj)
    and the largest step h."""
    seed_tol = max(5.0 * h * sup_force, 1e-7)
    extend_tol = max(1.5 * h * sup_force, 1e-7)
    in_contact = _active_mask(g[:, 1:].T, traj.positions[1:]).any(axis=1)
    # run edges of the extension mask; seed_tol >= extend_tol puts every seed in a run
    edges = np.flatnonzero(np.diff(np.concatenate(([False], (jumps > extend_tol) & in_contact,
                                                   [False])))).reshape(-1, 2)
    return [(int(a), int(b) - 1) for a, b in edges if np.any(jumps[a:b] > seed_tol)]


def verify_impact_law(traj: Trajectory, sys: ConstraintSystem,
                      sup_force: float) -> list[ImpactEvent]:
    """Check u+ = P_V(u-) at every detect_impacts jump, by its residual and exactly.

    law_residual is |u+ - P_V(u-)|.  variational_max tests the law's exact
    criterion: u+ = P_V(u-) iff u+ is in V and u- - u+ lies in the normal cone
    -cone{n_i} of V at u+, over the rows n_i active there, here those with
    residual_i(u+) <= law_bound |n_i| (the largest step's bound).  It is the
    larger of u+'s distance-scaled violation of V, max_i (-residual_i /
    |n_i|)_+, and the distance of u- - u+ from that cone, which by Moreau's
    decomposition is |P_K(u- - u+)| with K = {w : n_i . w >= 0}: one kernel
    call.  Events whose polyhedron is empty (infeasible) carry NaN in both.
    """
    return _impact_events(traj, sys, detect_impacts(traj, sys, sup_force),
                          law_bound(_largest_step(traj), sup_force))


def _impact_events(traj, sys, windows, bound: float) -> list[ImpactEvent]:
    """verify_impact_law on the detect_impacts windows, with bound its law_bound."""
    events: list[ImpactEvent] = []
    for a, b in windows:
        t_ev, q_ev = float(traj.times[b + 1]), traj.positions[b + 1]
        u_minus, u_plus = traj.velocities[a], traj.velocities[b + 1]
        poly = velocity_polyhedron(sys, t_ev, q_ev)
        try:
            u_star = project_velocity(poly, u_minus).point
        except InfeasibleConeError:
            events.append(ImpactEvent(t_ev, u_minus, u_plus, law_residual=math.nan,
                                      variational_max=math.nan))
            continue
        slack = poly.residuals(u_plus)
        norms = np.linalg.norm(poly.normals, axis=1)
        # a zero row with slack < 0 would make V empty, which project_velocity refused
        violation = float(np.max(-slack[slack < 0.0] / norms[slack < 0.0], initial=0.0))
        rows, jump = poly.normals[slack <= bound * norms], u_minus - u_plus
        move, _ = least_distance(rows, -rows @ jump)  # P_K(jump) = jump + move
        events.append(ImpactEvent(t_ev, u_minus, u_plus,
                                  law_residual=float(np.linalg.norm(u_plus - u_star)),
                                  variational_max=max(violation,
                                                      float(np.linalg.norm(jump + move)))))
    return events


def compute_constants(sys: ConstraintSystem, admiss: AdmissibilityEstimate | None,
                      q0: np.ndarray, u0: np.ndarray, force: ForceField, h: float,
                      T: float) -> ConstantsRecord:
    """kappa0, nu_min, the velocity bound A(1), the local horizon T0 and the
    start margin of a run from (q0, u0) with first step h to time T.

    From the certificate's delta, with c0 = sys.lipschitz_c0, eta = sys.eta
    and r = COVERING_RADIUS:
    kappa0 = c0/delta + 1;
    nu_min = min(eta delta / (2 kappa0 + 2 c0 + delta)^2,
                 r / (2 (c0 + delta + 2 kappa0)));
    A(1) = A_k = |u0| + 2 kappa0 + integral of F over [0, T];
    T0 = 1 / (4 (2|u0| + 3 sup F + sqrt(sup F))), infinite when the
    denominator vanishes;
    margin_ok: min_i g_i(0, q0) / beta > h (|u0| + integral of F over
    [0, T]), true with no constraint.  Without a certificate (admiss None)
    kappa0, nu_min and A(1) stay None.
    """
    speed, impulse = float(np.linalg.norm(u0)), force.integral_bound(0.0, T)
    # min g / beta bounds the distance from q0 to the boundary of C(0) from below
    rec = ConstantsRecord(margin_ok=sys.p == 0 or (
        float(np.min(sys.values(0.0, q0))) / sys.beta > h * (speed + impulse)))
    denom = 4.0 * (2.0 * speed + 3.0 * force.sup_F + math.sqrt(force.sup_F))
    rec.T0 = math.inf if denom == 0.0 else 1.0 / denom
    if admiss is None:
        return rec
    c0, delta = sys.lipschitz_c0, admiss.delta
    rec.kappa0 = kappa0 = c0 / delta + 1.0
    rec.nu_min = min(sys.eta * delta / (2.0 * kappa0 + 2.0 * c0 + delta) ** 2,
                     COVERING_RADIUS / (2.0 * (c0 + delta + 2.0 * kappa0)))
    rec.A_k = speed + 2.0 * kappa0 + impulse
    return rec


def velocity_bound_ok(traj: Trajectory, contact: ContactMeasure,
                      sys: ConstraintSystem) -> bool:
    """|u^{n+1}| <= 2 |u^n + h f^n| + c0 at every step, up to 1e-9."""
    return _velocity_bound_ok(traj, sys, np.linalg.norm(traj.velocities, axis=1),
                              _impulses(traj, contact))


def _impulses(traj: Trajectory, contact: ContactMeasure) -> np.ndarray:
    """h f^n for every step n, as (N, d) stored column by column: the sum with
    the grid's velocities, and its row norms, then run along the grid when the
    velocities are stored so too."""
    return np.diff(traj.times)[:, None] * np.asfortranarray(contact.force_averages)


def _velocity_bound_ok(traj, sys, speeds, impulses) -> bool:
    """velocity_bound_ok given speeds |u^n| and impulses = _impulses(traj, contact)."""
    rhs = 2.0 * np.linalg.norm(traj.velocities[:-1] + impulses, axis=1)
    return not np.any(speeds[1:] > rhs + sys.lipschitz_c0 + 1e-9)


def momentum_residual(traj: Trajectory, contact: ContactMeasure) -> float:
    """|u(T) - u0 - sum_n h f^n + sum_n dk^n|, a discrete momentum balance."""
    return _momentum_residual(traj, contact, _impulses(traj, contact))


def _momentum_residual(traj, contact, impulses) -> float:
    lhs = (traj.velocities[-1] - traj.velocities[0] - _column_sums(impulses)
           + _column_sums(contact.increments))
    return float(np.linalg.norm(lhs))


def interpolant_sup_error(traj: Trajectory, reference) -> float:
    """sup_t |q_h(t) - q_ref(t)| sampled at quarter-interval points and at T;
    reference maps times (m,) to positions (m, d)."""
    times, points = _interpolant(traj, np.linspace(0.0, 1.0, SAMPLES_PER_STEP + 1)[:-1])
    diff = np.vstack([points, traj.positions[-1]]) - reference(np.append(times, traj.times[-1]))
    # row norms as vecdot: the 1-D norm bit for bit (axis=1 is not)
    return float(np.max(np.sqrt(np.vecdot(diff, diff))))


def finest_run_reference(sys: ConstraintSystem, force: ForceField, q0, u0, T: float,
                         h_list):
    """Reference times (m,) -> positions (m, d): the interpolant of a run at half
    the smallest sweep step."""
    return run(sys, force, q0, u0, min(h_list) / 2.0, T)[0].position


def error_table(h_list, trajectories, reference) -> list[dict]:
    """Error rows {h, err, order} for trajectories already integrated at h_list."""
    rows = [{"h": float(h), "err": interpolant_sup_error(traj, reference), "order": None}
            for h, traj in zip(h_list, trajectories)]
    for i in range(1, len(rows)):
        e0, e1 = rows[i - 1]["err"], rows[i]["err"]
        h0, h1 = rows[i - 1]["h"], rows[i]["h"]
        # no meaningful order below the roundoff floor
        if e0 > 1e-12 and e1 > 1e-12 and h0 != h1:
            rows[i]["order"] = float(math.log(e0 / e1) / math.log(h0 / h1))
    return rows


def convergence_study(sys: ConstraintSystem, force: ForceField, q0, u0, T: float,
                      h_list, reference=None) -> list[dict]:
    """Error table over an h sweep; rows are {h, err, order} dicts.

    reference, times (m,) -> positions (m, d), is the closed form when
    available; otherwise the finest-h run (half the smallest sweep step)
    serves as reference.  A run that fails at any h raises, as in the CLI.
    """
    if reference is None:
        reference = finest_run_reference(sys, force, q0, u0, T, h_list)
    trajectories = [run(sys, force, q0, u0, h, T)[0] for h in h_list]
    return error_table(h_list, trajectories, reference)


def diagnose(traj: Trajectory, contact: ContactMeasure, sys: ConstraintSystem,
             force: ForceField, admiss: AdmissibilityEstimate | None = None
             ) -> DiagnosticsReport:
    """Assemble the full report for one finished run.

    Each grid array that several checks read (g, |u^{n+1} - u^n|, |u^n|,
    h f^n) is built once and handed to the checks' private forms; the report
    equals the one the public functions give.
    """
    g, jumps, h = _grid_values(traj, sys), _jumps(traj), _largest_step(traj)
    speeds, impulses = np.linalg.norm(traj.velocities, axis=1), _impulses(traj, contact)
    windows = _impact_windows(traj, g, jumps, h, force.sup_F)
    return DiagnosticsReport(
        max_feasibility_gap=_feasibility_gap(g),
        max_intergrid_gap=_intergrid_gap(traj, sys, g),
        total_variation=float(np.sum(jumps)),
        sup_velocity=float(np.max(speeds)),
        impacts=_impact_events(traj, sys, windows, law_bound(h, force.sup_F)),
        constants=compute_constants(sys, admiss, traj.positions[0], traj.velocities[0], force,
                                    float(traj.times[1]), float(traj.times[-1])),
        velocity_bound_ok=_velocity_bound_ok(traj, sys, speeds, impulses),
        momentum_residual=_momentum_residual(traj, contact, impulses),
    )
