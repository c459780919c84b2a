"""Exception types shared across the package."""

from __future__ import annotations


class ProxsweepError(Exception):
    """Base class for all package errors."""


class ConstraintEvaluationError(ProxsweepError):
    """A constraint's value, gradient or dt failed to evaluate; __cause__ holds why."""

    def __init__(self, constraint_id: int, what: str, cause: Exception | None = None):
        self.constraint_id = constraint_id
        self.what = what
        super().__init__(f"constraint {constraint_id}: failed to evaluate {what}" +
                         (f" ({cause!r})" if cause is not None else ""))


class InvalidConstantsError(ProxsweepError):
    """Regularity constants outside their admissible range (e.g. alpha <= 0)."""


class InfeasibleConeError(ProxsweepError):
    """A least-distance program has no feasible point, e.g. an empty
    admissible-velocity polyhedron."""


class SimulationAbort(ProxsweepError):
    """A time step failed, step 0 from (q0, u0) included; carries the step
    index and the last valid state."""

    def __init__(self, step_index: int, state, reason: str):
        self.step_index = step_index
        self.state = state
        self.reason = reason
        super().__init__(f"step {step_index}: {reason}")


class ConfigError(ProxsweepError):
    """Invalid run configuration (unknown scenario, bad flag values, ...)."""
