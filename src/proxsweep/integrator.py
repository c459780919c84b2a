"""Prediction-correction time stepping for the constrained second-order problem.

The state q obeys, in the sense of measures,

    du + dk = f(t, q) dt,   dk supported on contact, dk in N(C(t), q),

with inelastic impacts.  The scheme advances a position pair:

    q^0 = q0,   q^1 = q0 + h u0 + h^2 f^0,
    q^{n+1} = P_{C(t^{n+1})} [ q^n + h u^n + h^2 f^n ],

where f^n is the time average of f(s, q^n) over the step (3-point
Gauss-Legendre) and u^n = (q^n - q^{n-1}) / h.  For uniform h the predictor
equals 2 q^n - q^{n-1} + h^2 f^n.  Velocities are piecewise constant,
positions piecewise linear.  Per step the contact increment

    dk^n = u^n + h f^n - u^{n+1}

is an exact proximal normal at q^{n+1}: h dk^n is the displacement the
projection removed, so its Kuhn-Tucker multipliers are the projection's own
divided by h.  extract_multipliers recovers them independently, by
nonnegative least squares on the active gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import nnls

from .errors import InvalidConstantsError, SimulationAbort, StepSizeTooLargeError
from .geometry import ConstraintSystem, _active_mask
from .projection import project_point

(_N0, _N1, _N2), (_W0, _W1, _W2) = (a.tolist() for a in np.polynomial.legendre.leggauss(3))
_BOUND_NODES, _BOUND_WEIGHTS = np.polynomial.legendre.leggauss(64)


@dataclass(frozen=True)
class ForceField:
    """External force f(t, q) with its envelope.

    bound_F(t) >= |f(t, q)| for feasible q; sup_F is its sup norm, used by
    the local-horizon formulas.
    """

    f: Callable[[float, np.ndarray], np.ndarray]
    bound_F: Callable[[float], float] = lambda t: 0.0
    sup_F: float = 0.0

    def __post_init__(self):
        if not self.sup_F >= 0.0:
            raise InvalidConstantsError(f"sup_F must be >= 0, got {self.sup_F}")

    def __call__(self, t: float, q: np.ndarray) -> np.ndarray:
        return np.asarray(self.f(t, q), dtype=float)

    def step_average(self, t0: float, t1: float, q: np.ndarray) -> np.ndarray:
        """(1/h) integral of f(s, q) ds over [t0, t1], 3-point Gauss-Legendre."""
        mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        # sum() unrolled: the leading 0 + turns -0.0 into 0.0 as sum() does
        return 0.5 * (0 + _W0 * self(mid + half * _N0, q) + _W1 * self(mid + half * _N1, q)
                      + _W2 * self(mid + half * _N2, q))

    def integral_bound(self, t0: float, t1: float) -> float:
        """integral of bound_F over [t0, t1] by 64-point Gauss-Legendre quadrature."""
        mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        return float(half * sum(w * self.bound_F(mid + half * x)
                                for x, w in zip(_BOUND_NODES, _BOUND_WEIGHTS)))


ZERO_FORCE = ForceField(f=lambda t, q: np.zeros(np.shape(q)))


@dataclass(frozen=True)
class SchemeState:
    """One node of the recurrence: (q^n, u^n) at t^n, with u^n = (q^n - q^{n-1}) / h."""

    n: int
    t_n: float
    q_curr: np.ndarray
    u_curr: np.ndarray


@dataclass(frozen=True)
class StepOutcome:
    state: SchemeState
    increment: np.ndarray          # dk over the step, attributed to t^{n+1}
    multipliers: np.ndarray        # length p, nonzero only on active constraints
    multiplier_residual: float
    force_average: np.ndarray      # f^n, the force averaged over the step


@dataclass
class Trajectory:
    """Grid values plus the scheme's position interpolant.

    Grid times strictly increase.  positions are piecewise linear between
    them, and position(t) evaluates that interpolant on an array of times.
    velocities are piecewise constant, u(t) = u^{n+1} on [t^n, t^{n+1}), and
    velocities[0] is u0.
    """

    times: np.ndarray       # shape (N+1,)
    positions: np.ndarray   # shape (N+1, d)
    velocities: np.ndarray  # shape (N+1, d)
    partial_final_step: bool = False
    margin_ok: bool = True

    @property
    def nsteps(self) -> int:
        return len(self.times) - 1

    def position(self, t: np.ndarray) -> np.ndarray:
        """q_h at times t (m,) as (m, d); the first and last steps extend it
        linearly before t^0 and past t^N."""
        n = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, self.nsteps - 1)
        t0, t1 = self.times[n], self.times[n + 1]
        w = ((t - t0) / (t1 - t0))[:, None]
        return (1.0 - w) * self.positions[n] + w * self.positions[n + 1]


@dataclass
class ContactMeasure:
    """Per-step contact increments and their Kuhn-Tucker multipliers.

    increments[j] = u^j + h f^j - u^{j+1} belongs to N(C(t^{j+1}), q^{j+1});
    multipliers[j] are the nonnegative lambda with
    -increments[j] = sum_i lambda_i grad g_i(t^{j+1}, q^{j+1}).
    """

    increments: np.ndarray        # shape (N, d)
    multipliers: np.ndarray       # shape (N, p)
    residuals: np.ndarray         # shape (N,)
    force_averages: np.ndarray    # shape (N, d), the f^n used per step


@dataclass(frozen=True)
class MultiplierExtraction:
    values: np.ndarray
    active_ids: tuple[int, ...]
    residual: float
    in_cone: bool


def extract_multipliers(increment: np.ndarray, sys: ConstraintSystem, t: float,
                        q: np.ndarray) -> MultiplierExtraction:
    """Nonnegative lambda minimizing |sum lambda_i grad g_i + increment|.

    The residual exceeding 1e-8 (1 + |increment|) flags an increment outside
    the generated normal cone; that is diagnostic, not fatal.
    """
    increment = np.asarray(increment, dtype=float)
    q = np.asarray(q, dtype=float)
    tol_kkt = 1e-8 * (1.0 + float(np.linalg.norm(increment)))
    mask = _active_mask(sys.values(t, q), q)
    if not mask.any():
        res = float(np.linalg.norm(increment))
        return MultiplierExtraction(np.zeros(0), (), res, res <= tol_kkt)
    lam, res = nnls(sys.gradients(t, q)[mask].T, -increment)
    return MultiplierExtraction(lam, tuple(c.id for c, on in zip(sys.constraints, mask) if on),
                                float(res), float(res) <= tol_kkt)


def _check_inputs(sys: ConstraintSystem, q0, u0, h: float,
                  T: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The rules on a run's inputs, each a ValueError: h > 0, h < T < inf when
    a horizon T is given, q0 and u0 finite of length sys.dim, g_i(0, q0) > 0
    for every i.  Returns q0 and u0 as float arrays."""
    if not h > 0.0:
        raise ValueError(f"h must be > 0, got {h}")
    if T is not None and not h < T < math.inf:
        raise ValueError(f"need T > h and T finite, got T={T}, h={h}")
    q0, u0 = np.asarray(q0, dtype=float), np.asarray(u0, dtype=float)
    for name, v in (("q0", q0), ("u0", u0)):
        if v.shape != (sys.dim,):
            raise ValueError(f"{name} must have length {sys.dim}, got {v.size}")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite, got {v}")
    if sys.p:
        g0 = sys.values(0.0, q0)
        worst = int(np.argmin(g0))
        if g0[worst] <= 0.0:
            raise ValueError(f"initial position infeasible: g_{sys.constraints[worst].id}"
                             f"(0, q0) = {g0[worst]:.6g} <= 0")
    return q0, u0


def initialize(sys: ConstraintSystem, field: ForceField, q0: np.ndarray,
               u0: np.ndarray, h: float) -> SchemeState:
    """Build (q^0, q^1) = (q0, q0 + h u0 + h^2 f^0); q0 must be strictly interior."""
    return _initialize(sys, field, q0, u0, h)[0]


def _initialize(sys: ConstraintSystem, field: ForceField, q0: np.ndarray,
                u0: np.ndarray, h: float, T: float | None = None
                ) -> tuple[SchemeState, np.ndarray]:
    q0, u0 = _check_inputs(sys, q0, u0, h, T)
    f0 = field.step_average(0.0, h, q0)
    q1 = q0 + h * u0 + h * h * f0
    if sys.p:
        g1 = sys.values(h, q1)
        worst = int(np.argmin(g1))
        if g1[worst] < -1e-12 * (1.0 + np.linalg.norm(q1)):
            raise StepSizeTooLargeError(float(g1[worst]), sys.constraints[worst].id)
    return SchemeState(n=1, t_n=h, q_curr=q1, u_curr=(q1 - q0) / h), f0


def step(state: SchemeState, sys: ConstraintSystem, field: ForceField,
         h: float) -> StepOutcome:
    """Advance one step of size h: predict by free dynamics, correct by projection."""
    t_next = state.t_n + h
    f_avg = field.step_average(state.t_n, t_next, state.q_curr)
    predicted = state.q_curr + h * state.u_curr + h * h * f_avg
    proj = project_point(sys, t_next, predicted)
    if not proj.converged:
        raise SimulationAbort(state.n, state, "projection did not converge: " + proj.diagnostic)
    if not proj.certified:
        raise SimulationAbort(state.n, state, "left prox-regular tube (distance "
                              f"{proj.distance:.6g} >= eta {sys.eta:.6g})")
    q_next = proj.point
    u_next = (q_next - state.q_curr) / h
    increment = state.u_curr + h * f_avg - u_next
    if proj.iterations:
        # h * increment = predicted - q^{n+1} is the projection's proximal normal
        lam = proj.multipliers / h
        gap = increment + lam @ sys.gradients(t_next, q_next)
    else:  # a feasible prediction: zero multipliers, the whole increment is residual
        lam, gap = proj.multipliers, increment
    return StepOutcome(state=SchemeState(n=state.n + 1, t_n=t_next, q_curr=q_next, u_curr=u_next),
                       increment=increment, multipliers=lam,
                       multiplier_residual=math.sqrt(gap @ gap), force_average=f_avg)


def _grid(h: float, T: float) -> tuple[int, bool]:
    """Number of full steps and whether a shrunk final step is needed."""
    ratio = T / h
    n_round = round(ratio)
    if n_round >= 1 and abs(ratio - n_round) <= 1e-9 * max(1.0, ratio):
        return n_round, False
    n_full = int(np.floor(ratio))
    return n_full, True


def run(sys: ConstraintSystem, field: ForceField, q0: np.ndarray, u0: np.ndarray,
        h: float, T: float) -> tuple[Trajectory, ContactMeasure]:
    """Integrate from t = 0 to T; deterministic given its inputs.

    Inputs that break a rule of _check_inputs raise ValueError.  Step
    failures propagate as SimulationAbort carrying the step index and the
    last valid state.
    """
    state, f0 = _initialize(sys, field, q0, u0, h, T)
    n_full, partial = _grid(h, T)
    # row n of each array is written once; step 0 is free flight, with no contact
    N, d = n_full + partial, sys.dim
    times, positions, velocities = np.empty(N + 1), np.empty((N + 1, d)), np.empty((N + 1, d))
    increments, multipliers, residuals = np.zeros((N, d)), np.zeros((N, sys.p)), np.zeros(N)
    force_averages = np.empty((N, d))
    times[:2], force_averages[0] = (0.0, h), f0
    positions[:2], velocities[:2] = (q0, state.q_curr), (u0, state.u_curr)
    # a partial final step is longer than 1e-9 T, by _grid's rounding tolerance
    for n, h_n in enumerate([h] * (n_full - 1) + ([T - n_full * h] if partial else []), 1):
        out = step(state, sys, field, h_n)
        state = out.state
        times[n + 1], positions[n + 1], velocities[n + 1] = state.t_n, state.q_curr, state.u_curr
        increments[n], multipliers[n], residuals[n], force_averages[n] = (
            out.increment, out.multipliers, out.multiplier_residual, out.force_average)

    # min g / beta bounds the distance from q0 to the boundary of C(0) from below
    margin = sys.p == 0 or float(np.min(sys.values(0.0, q0))) / sys.beta > h * (
        float(np.linalg.norm(u0)) + field.integral_bound(0.0, T))
    traj = Trajectory(times=times, positions=positions, velocities=velocities,
                      partial_final_step=partial, margin_ok=bool(margin))
    return traj, ContactMeasure(increments=increments, multipliers=multipliers,
                                residuals=residuals, force_averages=force_averages)
