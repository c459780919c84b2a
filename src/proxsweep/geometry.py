"""Moving admissible sets defined by smooth inequality constraints.

The admissible set at time t is

    C(t) = { q in R^d : g_i(t, q) >= 0 for i = 1..p },

with each g_i twice differentiable near its zero set.  This module evaluates
the objects attached to C(t) that the time stepper and the diagnostics need:

* active constraints I_rho(t, q) = { i : g_i(t, q) <= rho },
* the polyhedron of admissible velocities
      V(t, q) = { u : dt g_i(t, q) + <grad g_i(t, q), u> >= 0, i active },
* "good direction" certificates (u, delta) with <u, -grad g_i> >= delta
  |grad g_i| for every active i (diagnostics.compute_constants derives the
  inward-cone constants kappa0 and nu_min from delta).

Every polyhedral optimum in the package goes through one least-distance
kernel, least_distance: min |x| s.t. G x >= h, x = 0 when no row is
violated, else one certified solve on the face of the violated rows (in
closed form when that face is one nonzero row), else a dual active-set loop
after Goldfarb & Idnani, started from that face when it holds its own rows
and from x = 0 otherwise.  The good direction is read off its solution for the
unit active normals, and projection.py builds the point and velocity
projections on it.

All operations are pure; a ConstraintSystem is shareable read-only across
threads.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstraintEvaluationError, InfeasibleConeError, InvalidConstantsError

# a good direction with delta at or below this counts as none
TOL_SINGULAR = 1.0e-6


def activity_tolerance(q: np.ndarray):
    """Numerical threshold deciding g_i(t, q) == 0, per row of q (m, d); the
    norm of each row is the 1-D np.linalg.norm bit for bit (axis=1 is not),
    whatever the layout of q.  np.vecdot sums a strided row of d >= 4 entries
    in another order than a contiguous one (rows of d <= 3 in the same), so
    only such rows are made contiguous first: a grid of d <= 3 is not
    copied."""
    if np.shape(q)[-1] > 3:
        q = np.ascontiguousarray(q)
    return 1e-8 * (1.0 + np.sqrt(np.vecdot(q, q)))


def _active_mask(values: np.ndarray, q: np.ndarray, rho: float = 0.0) -> np.ndarray:
    """values (p,) at q (d,), or (m, p) at the rows of q, <= max(rho,
    activity_tolerance(q)); the one activity rule behind active_set,
    _active_gradients (so extract_multipliers) and diagnose's grid mask, which
    finds the impact windows and is the CSV's active column.

    The tolerance is a floor, not a default for rho = 0 alone: a rho below it
    still counts every numerically active constraint, so the set only grows
    with rho.
    """
    threshold = np.fmax(rho, activity_tolerance(q))
    return np.asarray(values, dtype=float) <= threshold[..., None]


@dataclass(frozen=True)
class ConstraintFunction:
    """One scalar constraint g_i(t, q) >= 0 with its derivative evaluators.

    hessian_bound is a bound on |D^2_q g_i| near the zero set.
    """

    id: int
    value: Callable[[float, np.ndarray], float]
    gradient_q: Callable[[float, np.ndarray], np.ndarray]
    dt: Callable[[float, np.ndarray], float]
    hessian_bound: float = 0.0


def _value(c: ConstraintFunction, t: float, q: np.ndarray) -> float:
    """g_i(t, q), raising at a NaN value for a finite q: least_distance would
    drop its row and so treat it as satisfied.  A non-finite q is left to
    step()'s abort."""
    v = float(c.value(t, q))
    if math.isnan(v) and np.isfinite(q).all():
        raise ValueError(f"NaN at q = {q}")
    return v


# ConstraintSystem._fill's label -> the callable it evaluates, with the result converted
_EVALUATE = {
    "value": _value,
    "gradient": lambda c, t, q: np.asarray(c.gradient_q(t, q), dtype=float),
    "dt": lambda c, t, q: float(c.dt(t, q)),
}


@dataclass(frozen=True)
class _AffineConstraint(ConstraintFunction):
    row: tuple = ()  # (normal, offset, rate)


def affine_constraint(cid: int, normal, offset: float = 0.0,
                      rate: float = 0.0) -> ConstraintFunction:
    """g(t, q) = <normal, q> + (offset + rate t) >= 0, with M = 0.

    A ConstraintSystem evaluates all of its affine constraints as one block;
    the per-point callables compute the same sum.  A non-finite normal,
    offset or rate raises InvalidConstantsError.
    """
    a = np.array(normal, dtype=float)
    offset, rate = float(offset), float(rate)
    if not np.isfinite([*a, offset, rate]).all():
        raise InvalidConstantsError(f"constraint {cid}: normal, offset and rate must be "
                                    f"finite, got {a}, {offset}, {rate}")
    return _AffineConstraint(cid, lambda t, q: float(a @ q) + (offset + rate * t),
                             lambda t, q: a.copy(), lambda t, q: rate,
                             row=(tuple(a), offset, rate))


@dataclass(frozen=True)
class ConstraintSystem:
    """A moving admissible set with its regularity constants.

    alpha, beta bound the gradient norms near the boundary, hess_bound the
    spatial Hessians, kappa is the neighborhood width on which those bounds
    are asserted, lipschitz_c0 the Lipschitz constant of t -> C(t) in
    Hausdorff distance.  eta defaults to alpha / hess_bound (inf for a convex
    set, M = 0) and may be overridden per scenario.

    values(t, q) maps a point q (d,) to (p,), and points q (m, d) at a time t
    or at times t (m,) to (m, p) stored column by column, as run() stores its
    grid arrays, so that a reduction along the grid reads memory in order;
    gradients (p, d) and dts (p,) take a point.  Affine constraints are
    stacked once into rows of A, b, r and evaluated as A q + (b + r t), per
    point or as one matrix product; every other one is called point by
    point.  Derived: affine (no callable constraint), still (affine with
    every rate 0) and axis_rows: None unless the set is affine with at most
    one nonzero coefficient per row, else each row as (j, a_j, b, r), whose
    value a_j q_j + (b + r t) in floats has numpy's bits up to the sign of a
    zero.
    """

    dim: int
    constraints: tuple[ConstraintFunction, ...]
    alpha: float = 1.0
    beta: float = 1.0
    hess_bound: float = 0.0
    kappa: float = 0.5
    lipschitz_c0: float = 0.0
    eta: float | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidConstantsError(f"dim must be >= 1, got {self.dim}")
        if not self.alpha > 0.0:
            raise InvalidConstantsError(f"alpha must be > 0, got {self.alpha}")
        if not self.kappa > 0.0:
            raise InvalidConstantsError(f"kappa must be > 0, got {self.kappa}")
        if not self.hess_bound >= 0.0:
            raise InvalidConstantsError(f"hess_bound must be >= 0, got {self.hess_bound}")
        if not self.lipschitz_c0 >= 0.0:
            raise InvalidConstantsError(f"lipschitz_c0 must be >= 0, got {self.lipschitz_c0}")
        # beta divides compute_constants' start margin, eta is every projection's tube radius
        if not self.beta > 0.0:
            raise InvalidConstantsError(f"beta must be > 0, got {self.beta}")
        if self.eta is not None and not self.eta > 0.0:
            raise InvalidConstantsError(f"eta must be > 0, got {self.eta}")
        ids = [c.id for c in self.constraints]
        # ids name the bits of the CSV's active mask, bit id - 1
        if not all(isinstance(i, numbers.Integral) and i >= 1 for i in ids):
            raise InvalidConstantsError(f"constraint ids must be positive integers, got {ids}")
        if len(set(ids)) < len(ids):
            raise InvalidConstantsError(f"constraint ids must be distinct, got {ids}")
        A, b, r = np.zeros((self.p, self.dim)), np.zeros(self.p), np.zeros(self.p)
        pointwise = []
        for i, c in enumerate(self.constraints):
            if not isinstance(c, _AffineConstraint):
                pointwise.append((i, c))
            elif len(c.row[0]) != self.dim:
                raise InvalidConstantsError(f"constraint {c.id}: normal has length "
                                            f"{len(c.row[0])}, dim is {self.dim}")
            else:
                A[i], b[i], r[i] = c.row
        object.__setattr__(self, "_block", (A, b, r, bool(b.any() or r.any())))
        object.__setattr__(self, "_pointwise", tuple(pointwise))
        object.__setattr__(self, "affine", not pointwise)
        object.__setattr__(self, "still", not pointwise and not r.any())
        j = np.argmax(A != 0.0, axis=1)
        axis = not pointwise and bool((np.count_nonzero(A, axis=1) <= 1).all())
        rows = zip(j.tolist(), A[np.arange(self.p), j].tolist(), b.tolist(), r.tolist())
        object.__setattr__(self, "axis_rows", tuple(rows) if axis else None)
        if self.eta is None:  # inf for a convex set, M = 0
            eta = math.inf if self.hess_bound == 0.0 else self.alpha / self.hess_bound
            object.__setattr__(self, "eta", eta)

    @property
    def p(self) -> int:
        return len(self.constraints)

    def values(self, t: float | np.ndarray, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        A, b, r, shifted = self._block
        if q.ndim == 1:
            g = A.dot(q) + (b + r * t) if shifted else A.dot(q)
            return self._fill(g, "value", t, q)
        g = A.dot(q.T).T  # (m, p) stored column by column
        if shifted:
            g += b + np.multiply.outer(t, r)
        if self._pointwise:
            for s, x, row in zip(np.broadcast_to(t, len(q)), q, g):
                self._fill(row, "value", s, x)
        return g

    def gradients(self, t: float, q: np.ndarray) -> np.ndarray:
        return self._fill(self._block[0].copy(), "gradient", t, q)

    def dts(self, t: float, q: np.ndarray) -> np.ndarray:
        return self._fill(self._block[2].copy(), "dt", t, q)

    def _fill(self, out: np.ndarray, what: str, t: float, q: np.ndarray) -> np.ndarray:
        """out with entry i of every non-affine constraint set by its callable;
        a callable that raises, a NaN value, or a non-finite gradient or dt (one
        check per call; affine rows are finite) at a finite q surfaces as
        ConstraintEvaluationError(id, what)."""
        evaluate = _EVALUATE[what]
        for i, c in self._pointwise:
            try:
                out[i] = evaluate(c, t, q)
            except Exception as exc:  # noqa: BLE001 - rewrap with the offending id
                raise ConstraintEvaluationError(c.id, what, exc) from exc
        if (what != "value" and self._pointwise and not np.isfinite(out).all()
                and np.isfinite(q).all()):
            i = int(np.argmin(np.isfinite(out.reshape(self.p, -1)).all(axis=1)))
            raise ConstraintEvaluationError(self.constraints[i].id, what,
                                            ValueError(f"non-finite at q = {q}"))
        return out


@dataclass(frozen=True)
class VelocityPolyhedron:
    """Admissible velocities {u : offsets_i + <normals_i, u> >= 0}.

    normals_i = grad_q g_i(t, q) and offsets_i = dt g_i(t, q) over the active
    set; no rows means every velocity is admissible.
    """

    normals: np.ndarray  # shape (m, d)
    offsets: np.ndarray  # shape (m,)

    def residuals(self, u: np.ndarray) -> np.ndarray:
        return self.offsets + self.normals @ np.asarray(u, dtype=float)


@dataclass(frozen=True)
class AdmissibilityEstimate:
    """A pointwise good-direction certificate: <direction, -grad g_i> >=
    delta |grad g_i| for every active i."""

    delta: float
    direction: np.ndarray


def active_set(sys: ConstraintSystem, t: float, q: np.ndarray,
               rho: float = 0.0) -> tuple[int, ...]:
    """Sorted ids { i : g_i(t, q) <= rho }, rho floored at the activity tolerance."""
    q = np.asarray(q, dtype=float)
    mask = _active_mask(sys.values(t, q), q, rho)
    return tuple(sorted(c.id for c, on in zip(sys.constraints, mask) if on))


def _active_gradients(sys: ConstraintSystem, t: float, q: np.ndarray,
                      rho: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The activity mask at (t, q) and the active rows of the gradients."""
    mask = _active_mask(sys.values(t, q), q, rho)
    return mask, sys.gradients(t, q)[mask]


def velocity_polyhedron(sys: ConstraintSystem, t: float, q: np.ndarray) -> VelocityPolyhedron:
    """Half-space rows (grad g_i, dt g_i) over the exactly-active constraints."""
    q = np.asarray(q, dtype=float)
    mask, normals = _active_gradients(sys, t, q)
    return VelocityPolyhedron(normals, sys.dts(t, q)[mask])


def least_distance(rows: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-norm x with rows @ x >= rhs, and its multipliers mu >= 0.

    With no violated row (rhs <= 0) x = 0 and mu = 0 is the KKT point.
    Otherwise the violated rows F = {i : rhs_i > 0} are tried as the optimal
    face: (R R^T) y = rhs_F with R = rows[F] gives x = R^T y, and mu = y on
    F, 0 off it.  A face of one row r is solved in closed form, y = rhs_F /
    (r . r); a zero row (r . r = 0) is a singular Gram matrix and is left to
    the loop without a division.  The face solution is kept only under its
    KKT certificate, which makes x the unique optimum of the strictly convex
    QP: y > 0, |R x - rhs_F| <= 1e-12 rhs_F row by row, and rows x >= rhs
    off F.  The middle guard is needed since R R^T squares the condition
    number: on nearly opposed rows y > 0 can come with an x far off the face.

    Otherwise _dual_active_set decides, warm-started from the face when only
    the last condition failed, else from x = 0.
    """
    face = rhs > 0.0
    if not face.any():  # x = 0 is feasible
        return np.zeros(rows.shape[1]), np.zeros(len(rhs))
    R, start = rows[face], ()
    # a singular Gram matrix, or one whose entries overflow, is left to the loop
    with contextlib.suppress(np.linalg.LinAlgError), np.errstate(over="ignore", invalid="ignore"):
        # one row r: y = rhs / (r . r); solve() finds a zero row singular
        rr = R[0] @ R[0] if len(R) == 1 else 0.0
        y = rhs[face] / rr if rr > 0.0 else np.linalg.solve(R @ R.T, rhs[face])
        x = y @ R
        r = rows @ x - rhs
        if (y > 0.0).all() and (abs(r[face]) <= 1e-12 * rhs[face]).all():
            if (r[~face] >= 0.0).all():
                mu = np.zeros(len(rhs))
                mu[face] = y
                return x, mu
            start = np.flatnonzero(face), y, x
    return _dual_active_set(rows, rhs, *start)


def _dual_active_set(rows, rhs, face=(), y=0.0, x=0.0):
    """least_distance by the dual active-set method of Goldfarb & Idnani
    (1983, Math. Programming 27), from x = 0, this problem's unconstrained
    optimum, or from a face solution x = y @ rows[face] that holds its rows.

    Each row is scaled by its largest entry, so no |row|^2 underflows; a
    zero row is never violated when its rhs is <= 0, and cannot be added
    otherwise.  While a row off the active set A is violated by more than
    rounding, 1e-12 (max |rhs| + sum mu) in scaled units, the most violated
    one, n, is added: the step z = n - N^T r, with N^T r the part of n
    spanned by the rows N of A, moves x to n's plane unless an active
    multiplier first falls to 0 along -r, in which case that row is dropped
    and n tried again.  A row with z = 0 (|z| <= 1e-10 |(n, r)|) and no
    r_j > 0 can be neither added nor dropped, and the rows admit no x.  At
    the KKT point x is re-solved on A: built up step by step, it drifts off
    nearly opposed rows, by 2e-5 on the unit normals of (1, 0) and (-1, 3e-6).
    """
    scale = np.where(rows.any(axis=1), np.max(abs(rows), axis=1, initial=0.0), 1.0)
    G, b = rows / scale[:, None], rhs / scale
    A, x, mu = list(face), x + np.zeros(rows.shape[1]), np.zeros(len(rhs))
    mu[A] = y * scale[A]
    while True:
        s = np.minimum(G @ x - b + 1e-12 * (abs(b).max() + mu.sum()), 0.0)
        s[A] = 0.0
        if not s.any():
            return np.linalg.lstsq(G[A], b[A], rcond=None)[0], mu / scale
        p = int(np.argmin(s))
        n = G[p]
        while p not in A:  # add row p, dropping each row whose multiplier falls to 0 first
            r = np.linalg.lstsq(G[A].T, n, rcond=None)[0]
            z = n - r @ G[A]
            ratio = np.divide(mu[A], r, out=np.full(len(A), np.inf), where=r > 0.0)
            t = drop = ratio.min(initial=np.inf)
            if z @ z > 1e-20 * (n @ n + r @ r):  # n is not spanned by the active rows
                t = min(drop, (b[p] - n @ x) / (z @ z))
            elif drop == np.inf:
                raise InfeasibleConeError("the least-distance rows admit no point")
            x, mu[A], mu[p] = x + t * z, np.maximum(mu[A] - t * r, 0.0), mu[p] + t
            if t < drop:
                A.append(p)
            else:
                mu[A.pop(int(np.argmin(ratio)))] = 0.0


def good_direction(sys: ConstraintSystem, t: float, q: np.ndarray,
                   rho: float = 0.0) -> AdmissibilityEstimate | None:
    """Best uniform-angle certificate (u, delta) at (t, q), or None.

    Solves max delta s.t. <u, -n_i> >= delta |n_i| over the near-active
    gradients and Euclidean unit vectors u.  The optimum is u = -x*/|x*| with
    delta = 1/|x*|, where x* is the least-distance point of
    {x : <n_i/|n_i|, x> >= 1}.  delta is recomputed from the returned
    direction so the certificate is exact by construction.  None when an
    active gradient vanishes, or when no such x exists (0 is in the hull of
    the unit normals) or delta is below TOL_SINGULAR.
    """
    q = np.asarray(q, dtype=float)
    _, grads = _active_gradients(sys, t, q, rho)
    if not len(grads):
        direction = np.zeros(sys.dim)
        direction[0] = -1.0
        return AdmissibilityEstimate(delta=1.0, direction=direction)
    norms = np.linalg.norm(grads, axis=1)
    if np.any(norms <= 0.0):
        return None
    try:
        x, _ = least_distance(grads / norms[:, None], np.ones(len(norms)))
    except InfeasibleConeError:
        return None
    direction = -x / np.linalg.norm(x)
    delta = float(np.min((-grads @ direction) / norms))
    if delta <= TOL_SINGULAR:
        return None
    return AdmissibilityEstimate(delta=delta, direction=direction)

