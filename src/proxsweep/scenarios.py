"""Built-in analytic scenarios: constraint sets, forces, defaults, references.

Every scenario supplies its regularity constants (alpha, beta, M, kappa, c0,
eta) together with a boundary probe point for the good-direction certificate
and, where the motion has a closed form, an analytic reference t -> (q, u)
valid for the scenario's defaults (the builder returns None when overridden
initial data fall outside its validity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .geometry import ConstraintFunction, ConstraintSystem, affine_constraint
from .integrator import ForceField, ZERO_FORCE

GRAVITY = 10.0


@dataclass(frozen=True)
class Scenario:
    name: str
    dim: int
    system: ConstraintSystem
    force: ForceField
    q0: np.ndarray
    u0: np.ndarray
    h: float
    T: float
    probe: tuple[float, np.ndarray]     # boundary point for certificates
    # analytic(q0, u0) -> (t -> (q, u)) or None outside its validity
    analytic: Callable | None = None

    def reference(self, q0=None, u0=None):
        if self.analytic is None:
            return None
        q0 = self.q0 if q0 is None else np.asarray(q0, dtype=float)
        u0 = self.u0 if u0 is None else np.asarray(u0, dtype=float)
        return self.analytic(q0, u0)


def _gravity_force(g: float, dim: int) -> ForceField:
    pull = np.zeros(dim)
    pull[-1] = -g
    return ForceField(f=lambda t, q: pull.copy(), bound_F=lambda t: g, sup_F=g)


def _floor_reference(g: float):
    """Fall under gravity onto q = 0 with inelastic rest; any q0 > 0, any u0."""

    def build(q0, u0):
        if q0.size != 1:
            return None
        p0, v0 = float(q0[0]), float(u0[0])
        if p0 <= 0.0:
            return None
        disc = v0 * v0 + 2.0 * g * p0
        t_star = (v0 + math.sqrt(disc)) / g

        def ref(t):
            if t < t_star:
                return (np.array([p0 + v0 * t - 0.5 * g * t * t]),
                        np.array([v0 - g * t]))
            return np.zeros(1), np.zeros(1)

        return ref

    return build


def _piston_reference(v_w: float):
    """Wall q >= v_w t catching a free particle; valid while u0 < v_w."""

    def build(q0, u0):
        if q0.size != 1:
            return None
        p0, v0 = float(q0[0]), float(u0[0])
        if p0 <= 0.0:
            return None
        if v0 >= v_w:
            def ref(t):
                return np.array([p0 + v0 * t]), np.array([v0])
            return ref
        t_star = p0 / (v_w - v0)

        def ref(t):
            if t < t_star:
                return np.array([p0 + v0 * t]), np.array([v0])
            return np.array([v_w * t]), np.array([v_w])

        return ref

    return build


def _free_reference():
    def build(q0, u0):
        def ref(t):
            return q0 + t * u0, u0.copy()
        return ref
    return build


def _wedge_reference():
    """Force-free corner capture: each coordinate stops at its wall."""

    def build(q0, u0):
        if np.any(q0 <= 0.0):
            return None
        stops = [(-q0[i] / u0[i]) if u0[i] < 0.0 else math.inf for i in range(q0.size)]

        def ref(t):
            q = np.empty_like(q0)
            u = np.empty_like(u0)
            for i in range(q0.size):
                if t < stops[i]:
                    q[i] = q0[i] + u0[i] * t
                    u[i] = u0[i]
                else:
                    q[i], u[i] = 0.0, 0.0
            return q, u

        return ref

    return build


def _pocket_reference(g: float):
    """Vertical drop onto the top of the unit disc; needs q0 on the +y axis."""

    def build(q0, u0):
        if q0.size != 2 or q0[0] != 0.0 or u0[0] != 0.0 or q0[1] <= 1.0:
            return None
        p0, v0 = float(q0[1]), float(u0[1])
        disc = v0 * v0 + 2.0 * g * (p0 - 1.0)
        if disc < 0.0:
            return None
        t_star = (v0 + math.sqrt(disc)) / g

        def ref(t):
            if t < t_star:
                return (np.array([0.0, p0 + v0 * t - 0.5 * g * t * t]),
                        np.array([0.0, v0 - g * t]))
            return np.array([0.0, 1.0]), np.zeros(2)

        return ref

    return build


def _make_floor() -> Scenario:
    sys = ConstraintSystem(dim=1, constraints=(affine_constraint(1, [1.0]),),
                           alpha=1.0, beta=1.0, hess_bound=0.0, kappa=0.5,
                           lipschitz_c0=0.0)
    # q0 = 1.25 puts the analytic impact at t = 0.5, well sampled by the
    # standard h sweep; q0 = 1 lands it at sqrt(0.2) where the coarsest grid
    # undersamples the impact speed by a full 10%
    return Scenario(name="floor", dim=1, system=sys,
                    force=_gravity_force(GRAVITY, 1),
                    q0=np.array([1.25]), u0=np.array([0.0]), h=0.01, T=2.0,
                    probe=(0.0, np.array([0.0])),
                    analytic=_floor_reference(GRAVITY))


def _make_wedge() -> Scenario:
    sys = ConstraintSystem(dim=2,
                           constraints=(affine_constraint(1, [1.0, 0.0]),
                                        affine_constraint(2, [0.0, 1.0])),
                           alpha=1.0, beta=1.0, hess_bound=0.0, kappa=0.5,
                           lipschitz_c0=0.0)
    return Scenario(name="wedge", dim=2, system=sys, force=ZERO_FORCE,
                    q0=np.array([1.0, 1.0]), u0=np.array([-2.0, -3.0]), h=0.01, T=1.0,
                    probe=(0.0, np.array([0.0, 0.0])),
                    analytic=_wedge_reference())


def _make_piston(v_w: float = 1.0) -> Scenario:
    sys = ConstraintSystem(dim=1, constraints=(affine_constraint(1, [1.0], rate=-v_w),),
                           alpha=1.0, beta=1.0, hess_bound=0.0, kappa=0.5,
                           lipschitz_c0=abs(v_w))
    return Scenario(name="piston", dim=1, system=sys, force=ZERO_FORCE,
                    q0=np.array([1.0]), u0=np.array([-0.5]), h=0.01, T=2.0,
                    probe=(0.0, np.array([0.0])),
                    analytic=_piston_reference(v_w))


def _make_pocket() -> Scenario:
    # exterior of the unit disc; |grad| = 2 on the wall, Hessian = 2 I
    wall = ConstraintFunction(
        id=1,
        value=lambda t, q: float(q @ q) - 1.0,
        gradient_q=lambda t, q: 2.0 * np.asarray(q, dtype=float),
        dt=lambda t, q: 0.0,
        hessian_bound=2.0,
    )
    # floor scaled so its gradient norm matches alpha = 2
    floor = affine_constraint(2, [0.0, 2.0])
    sys = ConstraintSystem(dim=2, constraints=(wall, floor), alpha=2.0, beta=2.0,
                           hess_bound=2.0, kappa=0.1, lipschitz_c0=0.0)
    # drop height 1.25 above the pole: impact at t = 0.5 (see floor)
    return Scenario(name="pocket", dim=2, system=sys,
                    force=_gravity_force(GRAVITY, 2),
                    q0=np.array([0.0, 2.25]), u0=np.array([0.0, 0.0]), h=0.01, T=1.0,
                    probe=(0.0, np.array([0.0, 1.0])),
                    analytic=_pocket_reference(GRAVITY))


def _make_free() -> Scenario:
    sys = ConstraintSystem(dim=1, constraints=(), alpha=1.0, beta=1.0,
                           hess_bound=0.0, kappa=0.5, lipschitz_c0=0.0)
    return Scenario(name="free", dim=1, system=sys, force=ZERO_FORCE,
                    q0=np.array([1.0]), u0=np.array([-1.0]), h=0.01, T=2.0,
                    probe=(0.0, np.array([1.0])),
                    analytic=_free_reference())


def registry() -> dict[str, Scenario]:
    """All built-in scenarios keyed by name."""
    scenarios = [_make_floor(), _make_wedge(), _make_piston(), _make_pocket(),
                 _make_free()]
    return {s.name: s for s in scenarios}


def lookup(name: str) -> Scenario:
    reg = registry()
    if name not in reg:
        raise ConfigError(f"unknown scenario {name!r}; available: {sorted(reg)}")
    return reg[name]
