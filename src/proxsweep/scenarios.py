"""Built-in analytic scenarios: constraint sets, forces, defaults, references.

Every scenario passes ConstraintSystem the read constants (beta, eta, c0)
that differ from its defaults, and supplies a boundary probe point for the
good-direction certificate and an analytic reference, times (m,) -> positions
(m, d).  Each reference is one closed form fed with data: per coordinate, free
flight until the coordinate meets its (possibly moving) wall, then the wall's
motion.  The builder returns None when overridden initial data fall outside
its validity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _gravity_force(dim: int) -> ForceField:
    pull = np.zeros(dim)
    pull[-1] = -GRAVITY
    return ForceField(f=pull, bound_F=lambda t: GRAVITY, sup_F=GRAVITY)


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


def _make_floor() -> Scenario:
    sys = ConstraintSystem(dim=1, constraints=(affine_constraint(1, [1.0]),))
    # q0 = 1.25 puts the analytic impact at t = 0.5, well sampled by the
    # standard h sweep; q0 = 1 lands it at sqrt(0.2) where the coarsest grid
    # undersamples the impact speed by a full 10%
    return Scenario(name="floor", system=sys, force=_gravity_force(1),
                    q0=np.array([1.25]), u0=np.array([0.0]), T=2.0,
                    probe=(0.0, np.array([0.0])),
                    analytic=_wall_reference([GRAVITY], [0.0], [0.0]))


def _make_wedge() -> Scenario:
    sys = ConstraintSystem(dim=2,
                           constraints=(affine_constraint(1, [1.0, 0.0]),
                                        affine_constraint(2, [0.0, 1.0])))
    return Scenario(name="wedge", system=sys, force=ForceField(f=np.zeros(2)),
                    q0=np.array([1.0, 1.0]), u0=np.array([-2.0, -3.0]), T=1.0,
                    probe=(0.0, np.array([0.0, 0.0])),
                    analytic=_wall_reference([0.0, 0.0], [0.0, 0.0], [0.0, 0.0]))


def _make_piston() -> Scenario:
    # the wall q = t moves at speed 1, so c0 = 1
    sys = ConstraintSystem(dim=1, constraints=(affine_constraint(1, [1.0], rate=-1.0),),
                           lipschitz_c0=1.0)
    return Scenario(name="piston", system=sys, force=ForceField(f=np.zeros(1)),
                    q0=np.array([1.0]), u0=np.array([-0.5]), T=2.0,
                    probe=(0.0, np.array([0.0])),
                    analytic=_wall_reference([0.0], [0.0], [1.0]))


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
    return Scenario(name="pocket", system=sys, force=_gravity_force(2),
                    q0=np.array([0.0, 2.25]), u0=np.array([0.0, 0.0]), T=1.0,
                    probe=(0.0, np.array([0.0, 1.0])),
                    analytic=lambda q0, u0: drop(q0, u0) if q0[0] == 0.0 == u0[0] else None)


def _make_free() -> Scenario:
    sys = ConstraintSystem(dim=1, constraints=())
    return Scenario(name="free", system=sys, force=ForceField(f=np.zeros(1)),
                    q0=np.array([1.0]), u0=np.array([-1.0]), T=2.0,
                    probe=(0.0, np.array([1.0])),
                    analytic=_wall_reference([0.0], [-math.inf], [0.0]))


# name -> builder, in the CLI's help order; each call builds a fresh Scenario
BUILDERS = {"floor": _make_floor, "wedge": _make_wedge, "piston": _make_piston,
            "pocket": _make_pocket, "free": _make_free}


def registry() -> dict[str, Scenario]:
    """All built-in scenarios keyed by name."""
    return {name: build() for name, build in BUILDERS.items()}


def lookup(name: str) -> Scenario:
    """The named built-in scenario, built alone."""
    if name not in BUILDERS:
        raise ConfigError(f"unknown scenario {name!r}; available: {sorted(BUILDERS)}")
    return BUILDERS[name]()
