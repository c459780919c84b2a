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
call, cross-checks them with one least-distance solve on the active gradients.

run() allocates positions and velocities (N + 1, d), and the per-step
force averages (N, d), multipliers (N, p) and residuals, before its loop,
and writes every row it makes into them in place.  Every array of two
dimensions is stored column by column, the increments too, so that the
diagnostics' reductions along the grid read memory in order.  A step is of
one of three kinds, and only the last calls step():

* flown: on a set with sys.axis_rows (affine, at most one nonzero
  coefficient per row) under a constant force, run() flies a block of at
  most _BLOCK rows.  Each row reads one coordinate, and the prediction
  q_j + h u_j + h^2 f_j and the velocity (x_j - q_j) / h are per
  coordinate, so each coordinate flies alone in a scalar loop of Python
  floats, by step()'s own expressions with h^2 f^n hoisted per size.  While
  its prediction is finite and every row a_j x_j + (b + r t^{n+1}) on it is
  >= 0, the projection would return it unchanged with zero multipliers, so
  the row is step()'s outcome without the call: one nonzero coefficient
  leaves no summation order to disagree with numpy on.  The block's flight
  ends at the first row where any coordinate's does.  A coordinate whose
  rows all have rate 0 sees no t, so a flown row that returns its input
  (q_j, u_j) bit for bit, signs of zero included, returns it on every later
  row: the rest of the block is filled with it by one slice, and the
  coordinate neither shortens the block nor leads the next.  _BLOCK is a
  fixed size, not a setting: it bounds the rows one coordinate flies past
  the end of another's flight, and how long flown rows stay Python floats.
* filled: on a still set (no callable constraint, every affine rate 0)
  under a constant force, step() does not depend on t, so a step that
  returns its input (q^n, u^n) returns it at every later step of the same
  size; those rows are filled at once, by slice assignment, with the
  multipliers and residual of the step that began the rest when step()
  computed it.  The rest rule is checked at the end of each block and after
  each computed step, on the last two rows, by their bytes, so -0.0 and 0.0
  stay distinct; a rest that begins inside a flown block is filled per
  coordinate to its end, bit for bit.
* computed: every other step is one step() call, the one place that
  projects; its multipliers and residual are written.

After the loop every increment is derived in one pass as
u^n + h_n f^n - u^{n+1}, elementwise as step() forms it, where f^n is the
constant's stored average or step()'s value.  A row no step() call made,
flown or filled after a flown row, takes its residual from one np.vecdot,
bit-equal to step()'s 1-D dot, selected by np.where.  The step sizes h_n
are one float array, h with a partial last step in its tail; the times are
np.add.accumulate over it, which adds in sequence like step()'s t^n + h, as
a flight does.  The arrays are those of a chain of step() calls, bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidConstantsError, SimulationAbort
from .geometry import ConstraintSystem, _active_gradients, least_distance
from .projection import project_point

(_N0, _N1, _N2), (_W0, _W1, _W2) = (a.tolist() for a in np.polynomial.legendre.leggauss(3))
_BOUND_NODES, _BOUND_WEIGHTS = np.polynomial.legendre.leggauss(64)
# rows flown per block: it bounds the rows flown in vain when one coordinate's
# flight ends before another's, and how long flown rows stay Python floats
_BLOCK = 512


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

    One kernel call by Moreau's decomposition: with G the active gradients
    and K = {w : G w >= 0}, min |x| s.t. G x >= -G increment has x =
    P_K(increment) - increment = G^T lambda, so lambda is the kernel's mu and
    the residual is |increment + x| = |P_K(increment)|; no active row gives
    lambda = () and |increment|.  The residual exceeding 1e-8 (1 + |increment|)
    flags an increment outside the generated normal cone; that is diagnostic,
    not fatal.
    """
    increment = np.asarray(increment, dtype=float)
    q = np.asarray(q, dtype=float)
    mask, rows = _active_gradients(sys, t, q)
    move, lam = least_distance(rows, -rows @ increment)
    res = float(np.linalg.norm(increment + move))
    return MultiplierExtraction(lam, tuple(c.id for c, on in zip(sys.constraints, mask) if on),
                                res, res <= 1e-8 * (1.0 + float(np.linalg.norm(increment))))


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


def _fly(X: np.ndarray, u: list, c: list, axes: list, t: float, h: float,
         lead: int) -> tuple[int, int]:
    """Fly up to len(X) - 1 steps of size h from (X[0], u) at time t.

    Writes into X[1:m + 1] the positions of the longest run of m predictions
    that are finite and meet every axis row, and returns m and the coordinate
    whose flight ended it (lead when none did); rows past m may be written
    too.  Each coordinate flies alone, by step()'s expressions with t^{n+1} =
    t^n + h, no farther than the shortest flight so far; lead, the coordinate
    that ended the last flight, flies first, so a flight that ends at once
    costs one row.  A coordinate whose rows all have rate 0 and whose row
    returns its input bit for bit is at rest: its later rows are filled by
    one slice, and its flight ends none.
    """
    m = len(X) - 1
    for j in sorted(range(len(u)), key=lambda j: j != lead):
        qj, uj, cj, xs, tj, rest = X[0, j].item(), u[j], c[j], [], t, False
        still = not any(r for _, _, r in axes[j])
        for _ in range(m):
            x, tj = qj + h * uj + cj, tj + h
            if math.isfinite(x):
                for a, b, r in axes[j]:
                    if not a * x + (b + r * tj) >= 0.0:
                        break
                else:
                    v = (x - qj) / h
                    # on rows of rate 0 a row that returns its input returns it on every later row
                    if rest := still and x == qj and (x.hex(), v.hex()) == (qj.hex(), uj.hex()):
                        break
                    qj, uj = x, v
                    xs.append(x)
                    continue
            break
        X[1:len(xs) + 1, j] = xs
        if rest:
            X[len(xs) + 1:m + 1, j] = qj
        elif len(xs) < m:
            m, lead = len(xs), j
    return m, lead


def run(sys: ConstraintSystem, field: ForceField, q0: np.ndarray, u0: np.ndarray,
        h: float, T: float) -> tuple[Trajectory, ContactMeasure]:
    """Integrate from t = 0 to T; deterministic given its inputs.

    The arrays returned equal those of a chain of step() calls from (q0, u0),
    bit for bit.  Each step is flown, filled or computed, by the rules of the
    module docstring.

    Inputs that break a rule of _check_inputs raise ValueError.  Step
    failures propagate as SimulationAbort carrying the step index and the
    last valid state.
    """
    q0, u0 = _check_inputs(sys, field, q0, u0, h, T)
    n_full, partial = _grid(h, T)
    N, d = n_full + partial, sys.dim
    last = T - n_full * h  # the size of a partial last step
    sizes = np.full(N, h, dtype=float)
    sizes[n_full:] = last
    # in sequence, like step()'s t^n + h, from t^1 = 0.0 + h = h
    times = np.concatenate(([0.0], np.add.accumulate(sizes)))
    constant = not callable(field.f)
    rows, f = (sys.axis_rows, field._average.tolist()) if constant else (None, None)
    repeats = sys.still and constant
    axes = None if rows is None else [[r[1:] for r in rows if r[0] == j] for j in range(d)]
    # step n writes row n + 1 of positions and velocities, row n of the rest
    positions, velocities = (np.full((N + 1, d), row, order="F") for row in (q0, u0))
    # under a callable force step() writes every row of force_averages
    force_averages = np.full((N, d), field._average if constant else np.nan, order="F")
    multipliers = np.zeros((N, sys.p), order="F")
    residuals, computed = np.zeros(N), np.zeros(N, dtype=bool)
    n, lead = 0, 0
    for h_n, stop in [(h, n_full), (last, N)][:1 + partial]:
        c = None if rows is None else [h_n * h_n * fj for fj in f]  # step()'s h * h * f^n
        while n < stop:
            k, m = min(_BLOCK, stop - n), 0
            if c:  # rows n + 1 .. n + m flown, with step()'s (x - q) / h
                m, lead = _fly(positions[n:n + k + 1], velocities[n].tolist(), c, axes,
                               times[n].item(), h_n, lead)
                velocities[n + 1:n + m + 1] = (positions[n + 1:n + m + 1] - positions[n:n + m]) / h_n
                n += m
            if m < k:  # the next prediction needs a projection
                out = step(SchemeState(n, times[n].item(), positions[n], velocities[n]),
                           sys, field, h_n)
                positions[n + 1], velocities[n + 1] = out.state.q_curr, out.state.u_curr
                force_averages[n], multipliers[n] = out.force_average, out.multipliers
                residuals[n], computed[n], n = out.multiplier_residual, True, n + 1
            if repeats and n < stop and all(a[n - 1].tobytes() == a[n].tobytes()
                                            for a in (positions, velocities)):
                # step n - 1 returned its input: so does every later step of size h_n,
                # with the same multipliers and residual when step() computed it
                positions[n + 1:stop + 1], velocities[n + 1:stop + 1] = positions[n], velocities[n]
                multipliers[n:stop], residuals[n:stop], computed[n:stop] = (
                    multipliers[n - 1], residuals[n - 1], computed[n - 1])
                n = stop
    # step()'s u^n + h f^n - u^{n+1}, elementwise, on every row
    increments = velocities[:-1] + sizes[:, None] * force_averages - velocities[1:]
    residuals = np.where(computed, residuals, np.sqrt(np.vecdot(increments, increments)))

    return (Trajectory(times, positions, velocities),
            ContactMeasure(increments, multipliers, residuals, force_averages))
