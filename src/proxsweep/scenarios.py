"""Built-in analytic scenarios: constraint sets, forces, defaults, references.

Floor, wedge, piston and free are one picture: a particle under a constant
force -g above axis walls q_i >= c_i + v_i t, where c_i = -inf is no wall.
Each states its walls once, as (g, c, v) with q0, u0 and T, and _walls
derives from them its rows, its force, its Lipschitz constant c0, the
boundary probe for the good-direction certificate and the analytic
reference.  The pocket, a curved wall over a floor, passes its constants
(beta, eta) and its probe by hand.  Every reference is one closed form,
times (m,) -> positions (m, d): per coordinate, free flight until the
coordinate meets its (possibly moving) wall, then the wall's motion.  It is
None when overridden initial data fall outside its validity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import ConfigError
from .geometry import ConstraintFunction, ConstraintSystem, affine_constraint
from .integrator import ForceField

GRAVITY = 10.0


@dataclass(frozen=True)
class Scenario:
    name: str
    system: ConstraintSystem
    force: ForceField
    q0: np.ndarray
    u0: np.ndarray
    T: float
    probe: tuple[float, np.ndarray]     # boundary point for certificates
    # analytic(q0, u0) -> (times (m,) -> positions (m, d)), or None outside its validity
    analytic: Callable

    @property
    def dim(self) -> int:
        return self.system.dim

    def reference(self, q0=None, u0=None):
        q0 = self.q0 if q0 is None else np.asarray(q0, dtype=float)
        u0 = self.u0 if u0 is None else np.asarray(u0, dtype=float)
        return self.analytic(q0, u0)


def _falling(g) -> ForceField:
    """The constant force -g, of norm |g|; 0.0 - g keeps a zero entry +0.0."""
    size = float(np.linalg.norm(g))
    return ForceField(f=0.0 - np.array(g, dtype=float), bound_F=lambda t: size, sup_F=size)


def _wall_reference(g, c, v):
    """Closed-form positions, coordinate by coordinate, for the impact law on one wall.

    Coordinate i flies freely, q0_i + u0_i t - g_i t^2 / 2 with g_i >= 0, until
    it meets its wall c_i + v_i t at t*_i, then moves with the wall: on a
    single half-space u+ = P_V(u-) keeps the wall's speed.  c_i = -inf is no
    wall.  build(q0, u0) returns times (m,) -> positions (m, d), or None
    unless q0 has length d and lies on or above every wall.
    """
    # columns (d, 1), met by the times as a row (1, m): numpy then runs along the times
    g, c, v = (np.array(x, dtype=float)[:, None] for x in (g, c, v))

    def build(q0, u0):
        if q0.shape != (len(c),) or np.any(q0[:, None] < c):
            return None
        q0, u0 = q0[:, None], u0[:, None]
        rel, gap = u0 - v, q0 - c
        # t*: the positive root of g t^2 / 2 - rel t - gap = 0; for g = 0 the
        # linear root when the particle closes on the wall, else never
        with np.errstate(all="ignore"):
            hit = np.where(g > 0.0, (rel + np.sqrt(rel * rel + 2.0 * g * gap)) / g,
                           np.where(rel < 0.0, gap / (v - u0), math.inf))

        def ref(t):
            t = np.asarray(t, dtype=float)[None, :]
            return np.where(t < hit, q0 + u0 * t - 0.5 * g * t * t, c + v * t).T

        return ref

    return build


def _walls(name, g, c, v, q0, u0, T) -> Scenario:
    """The particle under -g above the axis walls q_i >= c_i + v_i t.

    Row k = 1, 2, ... is q_i - c_i - v_i t >= 0 for the k-th finite c_i, in
    coordinate order (0.0 - x keeps a wall at 0 with +0.0 offset and rate).
    C(t) is a product of half-lines, so its Hausdorff distance from C(s) is
    at most |v| |t - s| with v over the walls (equal for one moving wall):
    that |v| is c0.  The probe is the walls at t = 0, q0 where no wall is.
    """
    c, v, q0, u0 = (np.array(x, dtype=float) for x in (c, v, q0, u0))
    wall = np.isfinite(c)
    rows = tuple(affine_constraint(k, np.eye(len(c))[i], 0.0 - c[i], 0.0 - v[i])
                 for k, i in enumerate(np.flatnonzero(wall), 1))
    sys = ConstraintSystem(len(c), rows, lipschitz_c0=float(np.linalg.norm(v[wall])))
    return Scenario(name=name, system=sys, force=_falling(g), q0=q0, u0=u0, T=T,
                    probe=(0.0, np.where(wall, c, q0)), analytic=_wall_reference(g, c, v))


def _make_pocket() -> Scenario:
    # exterior of the unit disc: eta = 1, its radius; |grad| = 2 on the wall
    wall = ConstraintFunction(
        id=1,
        value=lambda t, q: float(q @ q) - 1.0,
        gradient_q=lambda t, q: 2.0 * np.asarray(q, dtype=float),
        dt=lambda t, q: 0.0,
    )
    # floor scaled so its gradient norm matches the wall's, beta = 2
    floor = affine_constraint(2, [0.0, 2.0])
    sys = ConstraintSystem(dim=2, constraints=(wall, floor), beta=2.0, eta=1.0)
    # a vertical drop onto the pole, whose tangent y = 1 is the wall; the closed
    # form needs q0 on the symmetry axis (x0 = u0x = 0)
    drop = _wall_reference([0.0, GRAVITY], [-math.inf, 1.0], [0.0, 0.0])
    # drop height 1.25 above the pole: impact at t = 0.5 (see floor)
    return Scenario(name="pocket", system=sys, force=_falling([0.0, GRAVITY]),
                    q0=np.array([0.0, 2.25]), u0=np.array([0.0, 0.0]), T=1.0,
                    probe=(0.0, np.array([0.0, 1.0])),
                    analytic=lambda q0, u0: drop(q0, u0) if q0[0] == 0.0 == u0[0] else None)


# name -> builder, in the CLI's help order; each call builds a fresh Scenario
BUILDERS = {
    # q0 = 1.25 puts the analytic impact at t = 0.5, well sampled by the
    # standard h sweep; q0 = 1 lands it at sqrt(0.2) where the coarsest grid
    # undersamples the impact speed by a full 10%
    "floor": partial(_walls, "floor", g=[GRAVITY], c=[0.0], v=[0.0], q0=[1.25], u0=[0.0], T=2.0),
    "wedge": partial(_walls, "wedge", g=[0.0, 0.0], c=[0.0, 0.0], v=[0.0, 0.0],
                     q0=[1.0, 1.0], u0=[-2.0, -3.0], T=1.0),
    # the wall q = t moves at speed 1, so c0 = 1
    "piston": partial(_walls, "piston", g=[0.0], c=[0.0], v=[1.0], q0=[1.0], u0=[-0.5], T=2.0),
    "pocket": _make_pocket,
    "free": partial(_walls, "free", g=[0.0], c=[-math.inf], v=[0.0], q0=[1.0], u0=[-1.0], T=2.0),
}


def lookup(name: str) -> Scenario:
    """The named built-in scenario, built alone."""
    if name not in BUILDERS:
        raise ConfigError(f"unknown scenario {name!r}; available: {sorted(BUILDERS)}")
    return BUILDERS[name]()
