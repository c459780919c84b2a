"""N rigid discs dropping onto a floor, built only from the public constraint API.

The unknown is q = (x_1, y_1, ..., x_N, y_N).  Disc i stays above the floor,
y_i >= r, and every pair stays apart, |q_i - q_j| >= 2r, so there are
p = N + N(N-1)/2 constraints.  The pair constraints make the set nonconvex
(prox-regular with eta = 1/2 at r = 1/2).  Two staggered rows start at rest
and fall under gravity; the seed only jitters each disc horizontally.
"""

from __future__ import annotations

import math

import numpy as np

from proxsweep import ConstraintFunction, ConstraintSystem, ForceField

RADIUS = 0.5
GRAVITY = 10.0
JITTER = 0.005          # horizontal jitter half-width, set per disc by the seed
SPACING = 1.2           # horizontal distance between neighbours in a row
ROW_HEIGHTS = (0.8, 1.9)


def _floor(cid: int, i: int, d: int) -> ConstraintFunction:
    normal = np.zeros(d)
    normal[2 * i + 1] = 1.0
    return ConstraintFunction(id=cid,
                              value=lambda t, q: float(q[2 * i + 1]) - RADIUS,
                              gradient_q=lambda t, q: normal.copy(),
                              dt=lambda t, q: 0.0)


def _pair(cid: int, i: int, j: int, d: int) -> ConstraintFunction:
    def value(t, q):
        gap = q[2 * i:2 * i + 2] - q[2 * j:2 * j + 2]
        return float(math.sqrt(gap @ gap)) - 2.0 * RADIUS

    def gradient(t, q):
        gap = q[2 * i:2 * i + 2] - q[2 * j:2 * j + 2]
        unit = gap / math.sqrt(gap @ gap)
        out = np.zeros(d)
        out[2 * i:2 * i + 2] = unit
        out[2 * j:2 * j + 2] = -unit
        return out

    # |D^2 g| = 2 / |q_i - q_j| = 2 on contact
    return ConstraintFunction(id=cid, value=value, gradient_q=gradient,
                              dt=lambda t, q: 0.0, hessian_bound=2.0)


def disc_system(n: int) -> ConstraintSystem:
    d = 2 * n
    cons = [_floor(i + 1, i, d) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cons.append(_pair(len(cons) + 1, i, j, d))
    # floor gradients have norm 1, pair gradients sqrt(2)
    return ConstraintSystem(dim=d, constraints=tuple(cons), alpha=1.0,
                            beta=math.sqrt(2.0), hess_bound=2.0, kappa=0.1)


def disc_force(n: int) -> ForceField:
    pull = np.zeros(2 * n)
    pull[1::2] = -GRAVITY
    size = GRAVITY * math.sqrt(n)
    return ForceField(f=lambda t, q: pull.copy(), bound_F=lambda t: size, sup_F=size)


def disc_inputs(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two staggered rows at rest: the lower half-row on the floor side."""
    rng = np.random.default_rng(seed)
    lower = n - n // 2
    q0 = np.zeros(2 * n)
    for k in range(n):
        row = 0 if k < lower else 1
        col = k if row == 0 else k - lower
        q0[2 * k] = SPACING * (col + 0.5 * row) + rng.uniform(-JITTER, JITTER)
        q0[2 * k + 1] = ROW_HEIGHTS[row]
    return q0, np.zeros(2 * n)


def disc_probe(q0: np.ndarray) -> tuple[float, np.ndarray]:
    """Boundary point for the good-direction certificate: lower row on the floor."""
    n = q0.size // 2
    q = q0.copy()
    q[1:2 * (n - n // 2):2] = RADIUS
    return 0.0, q
