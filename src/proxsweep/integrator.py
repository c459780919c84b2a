"""Prediction-correction time stepping for the constrained second-order problem.

The state q obeys, in the sense of measures,

    du + dk = f(t, q) dt,   dk supported on contact, dk in N(C(t), q),

with inelastic impacts.  From (q^0, u^0) = (q0, u0) every step, the first
included, predicts by free flight and corrects by projection:

    q^{n+1} = P_{C(t^{n+1})} [ q^n + h u^n + h^2 f^n ],   u^{n+1} = (q^{n+1} - q^n) / h,

for n >= 0, where f^n is the time average of f(s, q^n) over the step
(3-point Gauss-Legendre; a constant force is averaged once, when its
ForceField is built, to the same bits).  For uniform h and n >= 1 the
predictor equals 2 q^n - q^{n-1} + h^2 f^n.  Velocities are piecewise
constant, positions piecewise linear.  Per step the contact increment

    dk^n = u^n + h f^n - u^{n+1}

is an exact proximal normal at q^{n+1}: h dk^n is the displacement the
projection removed, so its Kuhn-Tucker multipliers are the projection's own
divided by h.  A step aborts unless its projection converges closer than
eta, inside the prox-regular tube.  extract_multipliers, which run() does not
call, cross-checks them by nonnegative least squares on the active gradients.

run() carries only (q^n, u^n), as Python floats, through its loop and
appends each new row to flat lists.  A step is of one of three kinds, and
only the last calls step():

* flown: on a set with sys.axis_rows (affine, at most one nonzero
  coefficient per row) under a constant force, each step size's loop forms
  the prediction by step()'s own expressions, h^2 f^n hoisted per size.
  When it is finite and every row a_j x_j + (b + r t^{n+1}) is >= 0, the
  projection would return it unchanged with zero multipliers, so the row is
  step()'s outcome without the call: one nonzero coefficient leaves no
  summation order to disagree with numpy on.
* filled: on a still set (no callable constraint, every affine rate 0)
  under a constant force, step() does not depend on t, so a step that
  returns its input (q^n, u^n) returns it at every later step of the same
  size; those rows are filled at once.  One rest rule follows a flown and a
  computed step alike: a Python == pre-check, then the bytes decide, so
  -0.0 and 0.0 stay distinct.
* computed: every other step is one step() call, the one place that
  projects; its multipliers and residual are kept.

After the loop the lists are reshaped once, and every increment is derived
in one pass as u^n + h_n f^n - u^{n+1}, elementwise as step() forms it,
where f^n is the constant's stored average or step()'s value.  The residuals
of flown rows, and of rows filled after one, come from one np.vecdot,
bit-equal to step()'s 1-D dot.  The times are np.add.accumulate over the
step sizes, which adds in sequence like step()'s t^n + h.  The arrays are
those of a chain of step() calls, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidConstantsError, SimulationAbort
from .geometry import ConstraintSystem, _active_mask, nnls
from .projection import project_point

(_N0, _N1, _N2), (_W0, _W1, _W2) = (a.tolist() for a in np.polynomial.legendre.leggauss(3))
_BOUND_NODES, _BOUND_WEIGHTS = np.polynomial.legendre.leggauss(64)


@dataclass(frozen=True)
class ForceField:
    """External force f(t, q) with its envelope.

    f is a callable f(t, q), or a constant c: a 1-D array of length d.  A
    constant must be finite with bound_F(0) >= |c| and sup_F >= |c| (to
    roundoff); its step average is computed once, by step_average's own
    expression, so it is bit-equal to a callable's and no call is made.

    bound_F(t) >= |f(t, q)| for feasible q; sup_F is its sup norm, used by
    the local-horizon formulas.
    """

    f: Callable[[float, np.ndarray], np.ndarray] | np.ndarray
    bound_F: Callable[[float], float] = lambda t: 0.0
    sup_F: float = 0.0
    _average = None  # not a field: a constant's step average, set by __post_init__

    def __post_init__(self):
        if not self.sup_F >= 0.0:
            raise InvalidConstantsError(f"sup_F must be >= 0, got {self.sup_F}")
        if not callable(self.f):
            c, bound = np.asarray(self.f, dtype=float), self.bound_F(0.0)
            # to 1e-12 relative, as sup_F = g sqrt(n) can sit an ulp below |c|
            if not (c.ndim == 1 and np.all(np.isfinite(c))
                    and np.linalg.norm(c) <= min(bound, self.sup_F) * (1 + 1e-12)):
                raise InvalidConstantsError(
                    f"a constant force needs a 1-D array of finite entries and bound_F(0), "
                    f"sup_F >= |f|, got f = {c}, sup_F = {self.sup_F}, bound_F(0) = {bound}")
            object.__setattr__(self, "_average", 0.5 * (0 + _W0 * c + _W1 * c + _W2 * c))

    def __call__(self, t: float, q: np.ndarray) -> np.ndarray:
        if not callable(self.f):
            return np.array(self.f, dtype=float)
        return np.asarray(self.f(t, q), dtype=float)

    def step_average(self, t0: float, t1: float, q: np.ndarray) -> np.ndarray:
        """(1/h) integral of f(s, q) ds over [t0, t1], 3-point Gauss-Legendre."""
        if self._average is not None:  # a constant: its stored average
            return self._average.copy()
        mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        # sum() unrolled: the leading 0 + turns -0.0 into 0.0 as sum() does
        return 0.5 * (0 + _W0 * self(mid + half * _N0, q) + _W1 * self(mid + half * _N1, q)
                      + _W2 * self(mid + half * _N2, q))

    def integral_bound(self, t0: float, t1: float) -> float:
        """integral of bound_F over [t0, t1] by 64-point Gauss-Legendre quadrature."""
        mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        return float(half * sum(w * self.bound_F(mid + half * x)
                                for x, w in zip(_BOUND_NODES, _BOUND_WEIGHTS)))


@dataclass(frozen=True)
class SchemeState:
    """One node of the recurrence: (q^n, u^n) at t^n, with u^0 = u0 and
    u^n = (q^n - q^{n-1}) / h after."""

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


def _check_inputs(sys: ConstraintSystem, field: ForceField, q0, u0, h: float,
                  T: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The rules on a run's inputs, each a ValueError: h > 0, h < T < inf when
    a horizon T is given, q0 and u0 finite of length sys.dim, a constant force
    of length sys.dim, g_i(0, q0) >= 0 for every i.  Returns q0 and u0 as
    float arrays."""
    if not h > 0.0:
        raise ValueError(f"h must be > 0, got {h}")
    if T is not None and not h < T < math.inf:
        raise ValueError(f"need T > h and T finite, got T={T}, h={h}")
    q0, u0 = np.asarray(q0, dtype=float), np.asarray(u0, dtype=float)
    for name, v in (("q0", q0), ("u0", u0)):
        if v.shape != (sys.dim,):
            got = v.size if v.ndim == 1 else f"shape {v.shape}"
            raise ValueError(f"{name} must have length {sys.dim}, got {got}")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite, got {v}")
    if field._average is not None and field._average.size != sys.dim:
        raise ValueError(f"a constant force must have length {sys.dim}, "
                         f"got {field._average.size}")
    if sys.p:
        g0 = sys.values(0.0, q0)
        worst = int(np.argmin(g0))
        if g0[worst] < 0.0:
            raise ValueError(f"initial position infeasible: g_{sys.constraints[worst].id}"
                             f"(0, q0) = {g0[worst]:.6g} < 0")
    return q0, u0


def initialize(sys: ConstraintSystem, field: ForceField, q0: np.ndarray,
               u0: np.ndarray, h: float) -> SchemeState:
    """The state at t = h: step 0 from (q0, u0), projected like any other.

    q0 may lie on the boundary of C(0) (_check_inputs); a failed projection
    raises SimulationAbort at step 0."""
    q0, u0 = _check_inputs(sys, field, q0, u0, h)
    return step(SchemeState(n=0, t_n=0.0, q_curr=q0, u_curr=u0), sys, field, h).state


def step(state: SchemeState, sys: ConstraintSystem, field: ForceField,
         h: float) -> StepOutcome:
    """Advance one step of size h: predict by free dynamics, correct by projection."""
    t_next = state.t_n + h
    f_avg = field.step_average(state.t_n, t_next, state.q_curr)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite prediction aborts below
        predicted = state.q_curr + h * state.u_curr + h * h * f_avg
    proj = project_point(sys, t_next, predicted)
    if not (proj.converged and proj.distance < sys.eta):
        if not np.all(np.isfinite(predicted)):
            reason = f"prediction is not finite: {predicted} (f^n = {f_avg})"
        elif not proj.converged:
            reason = "projection did not converge: " + proj.diagnostic
        else:
            reason = f"left prox-regular tube (distance {proj.distance:.6g} >= eta {sys.eta:.6g})"
        raise SimulationAbort(state.n, state, reason)
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
    """Full steps of size h in [0, T] and whether a shrunk last step follows: none
    when T / h is within 1e-9 of an integer, so a partial step exceeds 1e-9 T."""
    ratio = T / h
    n_round = round(ratio)
    if n_round >= 1 and abs(ratio - n_round) <= 1e-9 * max(1.0, ratio):
        return n_round, False
    n_full = int(np.floor(ratio))
    return n_full, True


def run(sys: ConstraintSystem, field: ForceField, q0: np.ndarray, u0: np.ndarray,
        h: float, T: float) -> tuple[Trajectory, ContactMeasure]:
    """Integrate from t = 0 to T; deterministic given its inputs.

    Each step is flown, filled or computed (module docstring).  One loop per
    step size flies while sys.axis_rows is set, the force is a constant and
    the prediction is finite and feasible; any other step calls step().
    Once a step returns its input on a still set under a constant force, the
    rest of the steps of its size are filled.  The loop keeps (q^n, u^n) in
    flat lists; positions and velocities are reshaped from them, and the
    increments derived from them, after it.

    Inputs that break a rule of _check_inputs raise ValueError.  Step
    failures propagate as SimulationAbort carrying the step index and the
    last valid state.
    """
    q0, u0 = _check_inputs(sys, field, q0, u0, h, T)
    n_full, partial = _grid(h, T)
    N, d = n_full + partial, sys.dim
    sizes = [h] * n_full + ([T - n_full * h] if partial else [])
    times = np.add.accumulate([0.0] + sizes)  # in sequence, like step()'s t^n + h
    constant = not callable(field.f)
    rows, f = (sys.axis_rows, field._average.tolist()) if constant else (None, None)
    repeats = sys.still and constant
    ts, q, u, n = times.tolist(), q0.tolist(), u0.tolist(), 0
    Q, U, spans = q[:], u[:], []  # rows 0..n flattened; [first, stop, outcome] per computed row
    for h_n, stop in [(h, n_full), (sizes[-1], N)][:1 + partial]:
        c = None if rows is None else [h_n * h_n * fj for fj in f]  # step()'s h * h * f^n
        while n < stop:
            x = c and [qj + h_n * uj + cj for qj, uj, cj in zip(q, u, c)]  # None: no flight
            if x and all(map(math.isfinite, x)) and all(
                    a * x[j] + (b + r * ts[n + 1]) >= 0.0 for j, a, b, r in rows):
                v = [(xj - qj) / h_n for xj, qj in zip(x, q)]  # flown: step()'s outcome
            else:
                out = step(SchemeState(n, ts[n], np.array(q), np.array(u)), sys, field, h_n)
                x, v = out.state.q_curr.tolist(), out.state.u_curr.tolist()
                spans.append([n, n + 1, out])
            Q += x
            U += v
            n += 1
            if (repeats and n < stop and x == q and v == u
                    and np.array(x + v).tobytes() == np.array(q + u).tobytes()):
                # step n - 1 returned its input: so does every later step of size h_n
                Q += x * (stop - n)
                U += v * (stop - n)
                if spans and spans[-1][1] == n:
                    spans[-1][1] = stop
                n = stop
            q, u = x, v
    positions, velocities = np.reshape(Q, (N + 1, d)), np.reshape(U, (N + 1, d))
    force_averages = (np.broadcast_to(field._average, (N, d)).copy() if constant
                      else np.array([out.force_average for *_, out in spans]))
    # step()'s u^n + h f^n - u^{n+1}, elementwise, on every row
    increments = velocities[:-1] + np.array(sizes)[:, None] * force_averages - velocities[1:]
    multipliers, residuals = np.zeros((N, sys.p)), np.sqrt(np.vecdot(increments, increments))
    for first, stop, out in spans:
        multipliers[first:stop], residuals[first:stop] = out.multipliers, out.multiplier_residual

    return (Trajectory(times, positions, velocities),
            ContactMeasure(increments, multipliers, residuals, force_averages))
