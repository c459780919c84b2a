"""Euclidean projections onto the admissible set and onto velocity polyhedra.

Both reduce to the least-distance kernel of geometry.least_distance, which
projects onto {z : b + N z >= 0} by a certified face solve, else by a dual
active-set loop.

Velocity projection is one kernel call.  Point projection handles the
possibly nonconvex set C(t) by linearise-and-project: starting from y = x,
x is projected onto {z : g_i(t, y) + <grad g_i(t, y), z - y> >= 0} and y is
moved to the result until it stops moving.  An affine set is its own
linearisation at every y, so there the first projection is the nearest point
with its exact certificate and is returned after one solve.  The result is
the unique nearest point whenever dist(x, C(t)) < eta; farther out it is a
local solution, which integrator.step refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleConeError
from .geometry import ConstraintSystem, VelocityPolyhedron, least_distance

MAX_ITER = 50


@dataclass(frozen=True)
class ProjectionResult:
    """Projected point with its KKT certificate.

    multipliers has one nonnegative entry per row of the set projected on (the
    constraints of the system, in order, or the rows of the velocity
    polyhedron), with (x - point) + sum lam_i n_i ~ 0 for the row normals n_i
    at the point, and lam_i > 0 only on rows that hold with equality; all
    zero when x is already inside.
    """

    point: np.ndarray
    multipliers: np.ndarray
    distance: float
    converged: bool
    iterations: int
    diagnostic: str = ""


def project_point(sys: ConstraintSystem, t: float, x: np.ndarray) -> ProjectionResult:
    """Nearest point of C(t) to x, with Kuhn-Tucker certificate.

    Feasible x is returned unchanged, converged only when finite, and affine
    constraints alone take one solve.  Otherwise the iteration stops once it
    moves less than 1e-12 (1 + |x|); an infeasible linearisation or MAX_ITER
    projections without that leave converged False.
    """
    x = np.asarray(x, dtype=float)
    g = sys.values(t, x)
    if (g >= 0.0).all():  # a non-finite x may read as feasible: not converged
        return ProjectionResult(point=x.copy(), multipliers=np.zeros(sys.p), distance=0.0,
                                converged=bool(np.isfinite(x).all()), iterations=0)

    tol = 1e-12 * (1.0 + math.sqrt(x @ x))
    y, mu = x, np.zeros(sys.p)
    converged, diag = False, ""
    for iters in range(1, MAX_ITER + 1):
        grads = sys.gradients(t, y)
        try:
            move, mu = least_distance(grads, grads @ (y - x) - g)
        except InfeasibleConeError:
            diag = "linearised constraints infeasible"
            break
        y, y_prev = x + move, y
        converged = sys.affine or math.sqrt((y - y_prev) @ (y - y_prev)) < tol
        if converged:
            break
        g = sys.values(t, y)
    else:
        diag = f"no convergence in {MAX_ITER} projections"

    return ProjectionResult(point=y, multipliers=mu, distance=math.sqrt((x - y) @ (x - y)),
                            converged=converged, iterations=iters, diagnostic=diag)


def project_velocity(poly: VelocityPolyhedron, u: np.ndarray) -> ProjectionResult:
    """Euclidean projection of u onto the velocity polyhedron: one kernel call.

    The kernel decides whether u is in V, where it moves u by 0 with zero
    multipliers; otherwise u_projected = u + sum_i lam_i n_i, lam_i >= 0,
    one multiplier per row.
    iterations is 1, the kernel call.  An empty polyhedron raises
    InfeasibleConeError.
    """
    u = np.asarray(u, dtype=float)
    move, mu = least_distance(poly.normals, -poly.residuals(u))
    return ProjectionResult(point=u + move, multipliers=mu,
                            distance=float(np.linalg.norm(move)), converged=True,
                            iterations=1)
