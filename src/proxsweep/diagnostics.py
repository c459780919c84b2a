"""Post-hoc verification of trajectory properties and theoretical constants.

Everything here reads a finished trajectory: feasibility gaps on and between
grid points, total variation and sup norm of the velocity, impact events and
their residuals against the inelastic law u+ = P_V(u-), the a-priori velocity
bound A(k) and the local horizon T0.  compute_constants is the one place the
inward-cone constants kappa0 and nu_min are derived from a good-direction
certificate's delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InfeasibleConeError, InvalidConstantsError
from .geometry import (AdmissibilityEstimate, ConstraintSystem, VelocityPolyhedron,
                       _active_mask, velocity_polyhedron)
from .integrator import ContactMeasure, ForceField, Trajectory, run
from .projection import project_point, project_velocity

SAMPLES_PER_STEP = 4        # interpolant samples per step (quarter intervals)
VARIATIONAL_SAMPLES = 32    # random admissible velocities per impact
COVERING_RADIUS = 1.0       # covering radius r asserted for every scenario, in nu_min


@dataclass
class ImpactEvent:
    """A velocity jump at a contact point.

    u_minus / u_plus are the discrete one-sided velocities around the jump
    window, law_residual = |u_plus - P_V(u_minus)| and variational_max the
    worst value of <u- - u+, w - u+> over the sampled admissible w; both are
    NaN when V is empty and the event cannot be verified.
    """

    time: float
    u_minus: np.ndarray
    u_plus: np.ndarray
    law_residual: float
    variational_max: float = -math.inf


@dataclass
class ConstantsRecord:
    kappa0: float | None = None
    nu_min: float | None = None
    T0: float | None = None
    A_k: float | None = None


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


def total_variation(traj: Trajectory) -> float:
    """Sum of |u^{n+1} - u^n| over the grid, starting from u^0 = u0."""
    return float(np.sum(np.linalg.norm(np.diff(traj.velocities, axis=0), axis=1)))


def sup_velocity(traj: Trajectory) -> float:
    return float(np.max(np.linalg.norm(traj.velocities, axis=1)))


def max_feasibility_gap(traj: Trajectory, sys: ConstraintSystem) -> float:
    """max over grid times of max_i (-g_i(t^n, q^n))_+."""
    return max(0.0, -float(np.min(sys.values(traj.times, traj.positions), initial=np.inf)))


def _interpolant(traj: Trajectory, fractions) -> tuple[np.ndarray, np.ndarray]:
    """(t, q_h(t)) at t = (1-w) t^n + w t^{n+1} for each w in fractions and every
    step n, ordered step by step; q_h is linear in t on each step."""
    w = np.asarray(fractions, dtype=float)[:, None]
    grid = np.column_stack([traj.times, traj.positions])
    samples = ((1.0 - w) * grid[:-1, None] + w * grid[1:, None]).reshape(-1, grid.shape[1])
    return samples[:, 0], samples[:, 1:]


def max_intergrid_gap(traj: Trajectory, sys: ConstraintSystem) -> float:
    """max over sampled intermediate times of dist(q_h(t), C(t)); a sample
    whose projection does not converge counts as inf."""
    times, points = _interpolant(traj, np.linspace(0.0, 1.0, SAMPLES_PER_STEP + 1)[1:-1])
    outside = np.flatnonzero(np.any(sys.values(times, points) < 0.0, axis=1))
    projections = (project_point(sys, times[i], points[i]) for i in outside)
    return max((p.distance if p.converged else math.inf for p in projections), default=0.0)


def detect_impacts(traj: Trajectory, sys: ConstraintSystem,
                   sup_force: float = 0.0) -> list[tuple[int, int]]:
    """Index windows [a, b] of steps forming one contact-induced jump.

    A window is a maximal run of steps that end in contact with a jump
    |u^{n+1} - u^n| above the smooth-forcing level, and that holds at least
    one jump above the seed threshold: an off-grid impact resolves over two
    consecutive steps and must count as one event.  Both thresholds are
    derived from the largest step h and sup_force, each floored at 1e-7.
    """
    h = float(np.max(np.diff(traj.times))) if traj.nsteps else 0.0
    seed_tol = max(5.0 * h * sup_force, 1e-7)
    extend_tol = max(1.5 * h * sup_force, 1e-7)
    jumps = np.linalg.norm(np.diff(traj.velocities, axis=0), axis=1)
    ends = traj.positions[1:]
    in_contact = _active_mask(sys.values(traj.times[1:], ends), ends).any(axis=1)
    # run edges of the extension mask; seed_tol >= extend_tol puts every seed in a run
    edges = np.flatnonzero(np.diff(np.concatenate(([False], (jumps > extend_tol) & in_contact,
                                                   [False])))).reshape(-1, 2)
    return [(int(a), int(b) - 1) for a, b in edges if np.any(jumps[a:b] > seed_tol)]


def _sample_admissible(poly: VelocityPolyhedron, around: np.ndarray) -> list[np.ndarray]:
    """Polyhedron vertices plus random admissible points near `around`."""
    m, d = poly.normals.shape
    samples: list[np.ndarray] = []
    # vertices: solutions of d active rows, kept when admissible
    if m >= d > 0:
        for rows in combinations(range(m), d):
            a = poly.normals[list(rows)]
            try:
                v = np.linalg.solve(a, -poly.offsets[list(rows)])
            except np.linalg.LinAlgError:
                continue
            if poly.membership(v, tol=1e-9 * (1.0 + np.linalg.norm(v))):
                samples.append(v)
    rng = np.random.default_rng(2024)
    scale = 1.0 + float(np.linalg.norm(around))
    for _ in range(VARIATIONAL_SAMPLES):
        cand = around + scale * rng.standard_normal(d)
        samples.append(project_velocity(poly, cand).point)
    return samples


def verify_impact_law(traj: Trajectory, sys: ConstraintSystem,
                      sup_force: float = 0.0) -> list[ImpactEvent]:
    """Check u+ = P_V(u-) at every detected jump, plus its variational form.

    The variational form <u- - u+, w - u+> <= 0 is sampled at the polyhedron
    vertices and at random admissible velocities.  Events whose polyhedron is
    empty (infeasible) carry NaN in both.
    """
    events: list[ImpactEvent] = []
    for a, b in detect_impacts(traj, sys, sup_force):
        t_ev = float(traj.times[b + 1])
        q_ev = traj.positions[b + 1]
        u_minus = traj.velocities[a]
        u_plus = traj.velocities[b + 1]
        poly = velocity_polyhedron(sys, t_ev, q_ev)
        try:
            u_star = project_velocity(poly, u_minus).point
        except InfeasibleConeError:
            events.append(ImpactEvent(t_ev, u_minus, u_plus, law_residual=math.nan,
                                      variational_max=math.nan))
            continue
        residual = float(np.linalg.norm(u_plus - u_star))
        worst = -math.inf
        for w in _sample_admissible(poly, u_plus):
            worst = max(worst, float((u_minus - u_plus) @ (w - u_plus)))
        events.append(ImpactEvent(t_ev, u_minus, u_plus, law_residual=residual,
                                  variational_max=worst))
    return events


def compute_constants(sys: ConstraintSystem, admiss: AdmissibilityEstimate | None,
                      u0: np.ndarray, force: ForceField, T: float = 1.0,
                      k: int = 1, J: float = 1.0) -> ConstantsRecord:
    """kappa0, nu_min, the velocity bound A(k) and the local horizon T0.

    From the certificate's delta, with c0 = sys.lipschitz_c0, eta = sys.eta
    and r = COVERING_RADIUS:
    kappa0 = c0/delta + 1;
    nu_min = min(eta delta / (2 kappa0 + 2 c0 + delta)^2,
                 r / (2 (c0 + delta + 2 kappa0)));
    A(k) = |u0| + 2 k kappa0 + k * integral of F over [0, T];
    T0 = 1 / (2 (J+1) (2|u0| + 3 sup F + sqrt(sup F))), infinite when the
    denominator vanishes.  Without a certificate (admiss None) only T0 is
    set.  A J that is negative or not finite raises InvalidConstantsError.
    """
    if not 0.0 <= J < math.inf:
        raise InvalidConstantsError(f"J must be finite and >= 0, got {J}")
    rec = ConstantsRecord()
    speed = float(np.linalg.norm(u0))
    denom = 2.0 * (J + 1.0) * (2.0 * speed + 3.0 * force.sup_F + math.sqrt(force.sup_F))
    rec.T0 = math.inf if denom == 0.0 else 1.0 / denom
    if admiss is None:
        return rec
    c0, delta = sys.lipschitz_c0, admiss.delta
    rec.kappa0 = kappa0 = c0 / delta + 1.0
    rec.nu_min = min(sys.eta * delta / (2.0 * kappa0 + 2.0 * c0 + delta) ** 2,
                     COVERING_RADIUS / (2.0 * (c0 + delta + 2.0 * kappa0)))
    rec.A_k = speed + 2.0 * k * kappa0 + k * force.integral_bound(0.0, T)
    return rec


def velocity_bound_ok(traj: Trajectory, contact: ContactMeasure,
                      sys: ConstraintSystem) -> bool:
    """|u^{n+1}| <= 2 |u^n + h f^n| + c0 at every step, up to 1e-9."""
    steps = np.diff(traj.times)[:, None]
    lhs = np.linalg.norm(traj.velocities[1:], axis=1)
    rhs = 2.0 * np.linalg.norm(traj.velocities[:-1] + steps * contact.force_averages, axis=1)
    return not np.any(lhs > rhs + sys.lipschitz_c0 + 1e-9)


def momentum_residual(traj: Trajectory, contact: ContactMeasure) -> float:
    """|u(T) - u0 - sum_n h f^n + sum_n dk^n|, a discrete momentum balance."""
    steps = np.diff(traj.times)
    forcing = (steps[:, None] * contact.force_averages).sum(axis=0)
    lhs = traj.velocities[-1] - traj.velocities[0] - forcing + contact.increments.sum(axis=0)
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
             force: ForceField, admiss: AdmissibilityEstimate | None = None,
             J: float = 1.0) -> DiagnosticsReport:
    """Assemble the full report for one finished run."""
    T = float(traj.times[-1])
    events = verify_impact_law(traj, sys, sup_force=force.sup_F)
    constants = compute_constants(sys, admiss, traj.velocities[0], force, T=T, J=J)
    return DiagnosticsReport(
        max_feasibility_gap=max_feasibility_gap(traj, sys),
        max_intergrid_gap=max_intergrid_gap(traj, sys),
        total_variation=total_variation(traj),
        sup_velocity=sup_velocity(traj),
        impacts=events,
        constants=constants,
        velocity_bound_ok=velocity_bound_ok(traj, contact, sys),
        momentum_residual=momentum_residual(traj, contact),
    )
