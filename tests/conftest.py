import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from proxsweep import ConstraintFunction, ConstraintSystem, ForceField, good_direction, registry

H_SWEEP = [0.04, 0.02, 0.01, 0.005]


def run_child(code: str, *args: str, timeout: float = 300) -> subprocess.CompletedProcess:
    """python -c code args in a fresh interpreter that imports proxsweep from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


@pytest.fixture(scope="session")
def scenarios():
    return registry()


def zero_force(d: int) -> ForceField:
    """No external force on a point of R^d."""
    return ForceField(f=np.zeros(d))


def half_space_1d() -> ConstraintSystem:
    """g(q) = q >= 0 on the line."""
    con = ConstraintFunction(id=1,
                             value=lambda t, q: float(q[0]),
                             gradient_q=lambda t, q: np.array([1.0]),
                             dt=lambda t, q: 0.0)
    return ConstraintSystem(dim=1, constraints=(con,))


def floor_2d() -> ConstraintSystem:
    """g(q) = q2 >= 0 in the plane."""
    con = ConstraintFunction(id=1,
                             value=lambda t, q: float(q[1]),
                             gradient_q=lambda t, q: np.array([0.0, 1.0]),
                             dt=lambda t, q: 0.0)
    return ConstraintSystem(dim=2, constraints=(con,))


def disc_complement(eta=None) -> ConstraintSystem:
    """g(q) = |q|^2 - 1 >= 0: the exterior of the unit disc."""
    con = ConstraintFunction(id=1,
                             value=lambda t, q: float(q @ q) - 1.0,
                             gradient_q=lambda t, q: 2.0 * np.asarray(q, dtype=float),
                             dt=lambda t, q: 0.0,
                             hessian_bound=2.0)
    return ConstraintSystem(dim=2, constraints=(con,), alpha=2.0, beta=2.0,
                            hess_bound=2.0, eta=eta)


def reverse_triangle_constant(sys, t, q) -> float:
    """gamma with sum lam_i |n_i| <= gamma |sum lam_i n_i| over the active
    normals: 1 / delta of the good direction, inf where there is none."""
    est = good_direction(sys, t, q)
    return math.inf if est is None else 1.0 / est.delta


def antipodal_pair() -> ConstraintSystem:
    """g1 = q1, g2 = -q1: opposing gradients at the origin."""
    c1 = ConstraintFunction(id=1, value=lambda t, q: float(q[0]),
                            gradient_q=lambda t, q: np.array([1.0, 0.0]),
                            dt=lambda t, q: 0.0)
    c2 = ConstraintFunction(id=2, value=lambda t, q: -float(q[0]),
                            gradient_q=lambda t, q: np.array([-1.0, 0.0]),
                            dt=lambda t, q: 0.0)
    return ConstraintSystem(dim=2, constraints=(c1, c2))


# --- samplers for the registry scenarios (used by property suites) ---------

def sample_boundary(name: str, rng: np.random.Generator):
    """A time and a boundary point of C(t) for the named scenario."""
    if name == "floor":
        return 0.0, np.array([0.0])
    if name == "wedge":
        branch = rng.integers(3)
        a = float(rng.uniform(0.0, 2.0))
        if branch == 0:
            return 0.0, np.array([0.0, a])
        if branch == 1:
            return 0.0, np.array([a, 0.0])
        return 0.0, np.array([0.0, 0.0])
    if name == "piston":
        t = float(rng.uniform(0.0, 1.5))
        return t, np.array([t])
    if name == "pocket":
        if rng.uniform() < 0.7:
            theta = float(rng.uniform(0.0, math.pi))
            return 0.0, np.array([math.cos(theta), math.sin(theta)])
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        return 0.0, np.array([sign * (1.0 + rng.uniform(0.0, 2.0)), 0.0])
    raise KeyError(name)


def sample_feasible(name: str, rng: np.random.Generator, t: float) -> np.ndarray:
    """A point of C(t) for the named scenario."""
    if name == "floor":
        return np.array([rng.uniform(0.0, 3.0)])
    if name == "wedge":
        return rng.uniform(0.0, 3.0, size=2)
    if name == "piston":
        return np.array([t + rng.uniform(0.0, 3.0)])
    if name == "pocket":
        while True:
            y = np.array([rng.uniform(-3.0, 3.0), rng.uniform(0.0, 3.0)])
            if y @ y >= 1.0:
                return y
    raise KeyError(name)


def sample_normal(sys: ConstraintSystem, t: float, x: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """A random element of the proximal normal cone at a boundary point."""
    from proxsweep import velocity_polyhedron

    gens = -velocity_polyhedron(sys, t, x).normals
    if gens.shape[0] == 0:
        return np.zeros(sys.dim)
    weights = rng.uniform(0.0, 2.0, size=gens.shape[0])
    return weights @ gens
