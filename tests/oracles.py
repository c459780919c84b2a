"""Slow, independent oracles used only by the test suite.

Deliberately naive: exhaustive grids, exhaustive active-set enumeration,
closed-form kinematics and the hypomonotonicity inequality of a proximal
normal.  They exist to catch solver bugs, so they must not
share code paths with the library solvers.  intergrid_gap_scan is the one
exception: it checks which samples max_intergrid_gap projects, and projects
them with the library's project_point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np
from proxsweep import project_point


class OracleEmptyError(Exception):
    """No feasible grid point inside the supplied search box."""


class OracleInfeasibleError(Exception):
    """No KKT-consistent active subset: the polyhedron is empty."""


@dataclass(frozen=True)
class OracleResult:
    value: np.ndarray
    method: str          # grid | active-set-enumeration | analytic
    resolution: float


def _feasible(sys, t, points):
    """Feasibility of one point (d,), or of each row of points (m, d)."""
    return (sys.values(t, points) >= 0.0).all(axis=-1)


def _nearest_feasible(sys, t, x, points, best, best_dist):
    """(best, best_dist) updated by the first feasible row of points nearest x."""
    ok = points[_feasible(sys, t, points)]
    if len(ok):
        dists = np.sqrt(np.vecdot(ok - x, ok - x))  # np.linalg.norm of each row, bit for bit
        k = int(np.argmin(dists))
        if dists[k] < best_dist:
            return ok[k], float(dists[k])
    return best, best_dist


def _grid_points(lo, hi, counts):
    axes = [np.linspace(lo[i], hi[i], counts[i]) for i in range(len(lo))]
    return np.array(list(product(*axes)))


def grid_project(sys, t, x, resolution, box) -> OracleResult:
    """Nearest feasible point by exhaustive grid plus local refinement.

    dim <= 2 only; the error is at most ~2 * resolution once the refinement
    spacing drops below resolution / 2.
    """
    x = np.asarray(x, dtype=float)
    d = sys.dim
    if d > 2:
        raise ValueError("grid oracle supports dim <= 2")
    if _feasible(sys, t, x):
        return OracleResult(x.copy(), "grid", resolution)

    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    counts = [513] * d if d == 1 else [65] * d
    spacing = float(max((hi[i] - lo[i]) / (counts[i] - 1) for i in range(d)))

    best, best_dist = _nearest_feasible(sys, t, x, _grid_points(lo, hi, counts), None, math.inf)
    if best is None:
        raise OracleEmptyError(f"no feasible grid point in box {box}")

    while spacing > resolution / 2.0:
        w_lo = np.maximum(best - 2.5 * spacing, lo)
        w_hi = np.minimum(best + 2.5 * spacing, hi)
        best, best_dist = _nearest_feasible(sys, t, x, _grid_points(w_lo, w_hi, [11] * d),
                                            best, best_dist)
        spacing /= 2.0

    # ray polish: the projection is min over directions e of the first
    # boundary crossing along x + r e; bisection makes the radial part exact
    # and a shrinking angular sweep fixes the tangential drift that a plain
    # grid shows next to curved boundaries
    def crossing(e, r_hi):
        if not _feasible(sys, t, x + r_hi * e):
            return None
        a, b = 0.0, r_hi
        for _ in range(80):
            mid = 0.5 * (a + b)
            if _feasible(sys, t, x + mid * e):
                b = mid
            else:
                a = mid
        return x + b * e

    if d == 1:
        for e in (np.array([1.0]), np.array([-1.0])):
            p = crossing(e, best_dist * (1.0 + 1e-9) + resolution)
            if p is not None and np.linalg.norm(p - x) < best_dist:
                best, best_dist = p, float(np.linalg.norm(p - x))
    else:
        ang = math.atan2(best[1] - x[1], best[0] - x[0])
        span = 0.2
        while span > resolution / (4.0 * max(best_dist, resolution)):
            for a in ang + np.linspace(-span, span, 9):
                e = np.array([math.cos(a), math.sin(a)])
                p = crossing(e, best_dist * (1.0 + 1e-9) + resolution)
                if p is not None:
                    dist = float(np.linalg.norm(p - x))
                    if dist < best_dist:
                        best, best_dist = p, dist
                        ang = a
            span *= 0.35
    return OracleResult(best, "grid", resolution)


def enumerate_qp(poly, u) -> OracleResult:
    """Projection onto {b + N w >= 0} by trying every active subset.

    For each subset solve the equality-constrained least squares, keep the
    candidates that are primal feasible with nonnegative duals, and return
    the closest one (unique by convexity).  Each check is to 1e-9 (1 + |u| +
    max|offset|) (1 + |w|), relative to the candidate w too, so that an
    optimum far out is not rejected for its own roundoff.
    """
    u = np.asarray(u, dtype=float)
    m, d = poly.normals.shape
    if m > 12:
        raise ValueError("enumeration oracle supports <= 12 rows")
    scale = 1.0 + float(np.linalg.norm(u)) + (float(np.max(np.abs(poly.offsets))) if m else 0.0)

    best, best_dist = None, math.inf
    for size in range(0, m + 1):
        for subset in combinations(range(m), size):
            if size == 0:
                w = u.copy()
            else:
                a = poly.normals[list(subset)]
                rhs = -(poly.offsets[list(subset)] + a @ u)
                lam, *_ = np.linalg.lstsq(a @ a.T, rhs, rcond=None)
                w = u + a.T @ lam
            tol = 1e-9 * scale * (1.0 + float(np.linalg.norm(w)))
            if size:
                # subset must actually be achieved and dual feasible
                if np.max(np.abs(poly.offsets[list(subset)] + a @ w)) > tol:
                    continue
                if np.min(lam) < -tol:
                    continue
            if m and np.min(poly.offsets + poly.normals @ w) < -tol:
                continue
            dist = float(np.linalg.norm(w - u))
            if dist < best_dist:
                best, best_dist = w, dist
    if best is None:
        raise OracleInfeasibleError("no KKT-consistent subset")
    return OracleResult(best, "active-set-enumeration", 0.0)


def membership(poly, u, tol: float = 1e-12) -> bool:
    """u in the velocity polyhedron {b + N w >= 0}, each row up to tol."""
    return bool(np.min(poly.offsets + poly.normals @ np.asarray(u, dtype=float),
                       initial=math.inf) >= -tol)


def intergrid_gap_scan(traj, sys) -> float:
    """max of dist(q_h(t), C(t)) over the quarter points of every step, inf
    where the projection does not converge: the inter-grid gap with no step
    skipped, on any set."""
    w = np.array([0.25, 0.5, 0.75])[:, None]
    grid = np.column_stack([traj.times, traj.positions])
    samples = ((1.0 - w) * grid[:-1, None] + w * grid[1:, None]).reshape(-1, grid.shape[1])
    gap = 0.0
    for t, q in zip(samples[:, 0], samples[:, 1:]):
        if (sys.values(t, q) < 0.0).any():
            p = project_point(sys, t, q)
            gap = max(gap, p.distance if p.converged else math.inf)
    return gap


def hypomonotonicity_residual(sys, t, x, y, v) -> float:
    """<v, y-x> - |v| |x-y|^2 / (2 eta); nonpositive iff the inequality holds.

    x is a boundary point, y any point of C(t) and v a proximal normal at x.
    """
    x, y, v = (np.asarray(a, dtype=float) for a in (x, y, v))
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return 0.0
    diff = y - x
    return float(v @ diff) - nv * float(diff @ diff) / (2.0 * sys.eta)


def analytic_reference(name: str, params: dict, t: float):
    """Closed-form (q, u) for the named 1-D motions.

    floor-bounce: fall under gravity from q0 > 0, inelastic rest on q = 0.
    piston-pursuit: wall q >= v_w * t catches a free particle (u0 < v_w).
    free: unconstrained linear motion.  resting-contact: parked at q = 0.
    """
    if name == "free":
        q0, u0 = params["q0"], params.get("u0", 0.0)
        return q0 + u0 * t, u0
    if name == "floor-bounce":
        q0 = params["q0"]
        g = params.get("g_grav", 10.0)
        u0 = params.get("u0", 0.0)
        t_star = (u0 + math.sqrt(u0 * u0 + 2.0 * g * q0)) / g
        if t < t_star:
            return q0 + u0 * t - 0.5 * g * t * t, u0 - g * t
        return 0.0, 0.0
    if name == "piston-pursuit":
        q0 = params["q0"]
        v_w = params.get("v_w", 1.0)
        u0 = params.get("u0", 0.0)
        if u0 >= v_w:
            return q0 + u0 * t, u0
        t_star = q0 / (v_w - u0)
        if t < t_star:
            return q0 + u0 * t, u0
        return v_w * t, v_w
    if name == "resting-contact":
        return 0.0, 0.0
    raise KeyError(f"unknown reference {name!r}")
