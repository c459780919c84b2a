"""Simulator for second-order dynamics constrained to moving prox-regular sets.

A point mass driven by an external force must stay inside a moving admissible
set C(t) cut out by smooth inequality constraints; contact acts through the
proximal normal cone and impacts are inelastic (the post-impact velocity is
the projection of the pre-impact velocity onto the admissible-velocity
polyhedron).  Time stepping is prediction-correction: free flight predicted,
then projected back onto C(t).
"""

from .diagnostics import (ConstantsRecord, DiagnosticsReport, ImpactEvent,
                          compute_constants, convergence_study, diagnose,
                          interpolant_sup_error, max_feasibility_gap, max_intergrid_gap,
                          momentum_residual, velocity_bound_ok, verify_impact_law)
from .errors import (ConfigError, ConstraintEvaluationError, InfeasibleConeError,
                     InvalidConstantsError, ProxsweepError, SimulationAbort)
from .geometry import (AdmissibilityEstimate, ConstraintFunction, ConstraintSystem,
                       VelocityPolyhedron, active_set, affine_constraint, good_direction,
                       velocity_polyhedron)
from .integrator import (ContactMeasure, ForceField, MultiplierExtraction, SchemeState,
                         StepOutcome, Trajectory, extract_multipliers, initialize, run, step)
from .projection import ProjectionResult, project_point, project_velocity
from .scenarios import GRAVITY, Scenario, lookup

__all__ = [
    "AdmissibilityEstimate", "ConfigError", "ConstantsRecord",
    "ConstraintEvaluationError", "ConstraintFunction", "ConstraintSystem",
    "ContactMeasure", "DiagnosticsReport", "ForceField", "GRAVITY",
    "ImpactEvent", "InfeasibleConeError", "InvalidConstantsError",
    "MultiplierExtraction", "ProjectionResult", "ProxsweepError", "Scenario",
    "SchemeState", "SimulationAbort", "StepOutcome",
    "Trajectory", "VelocityPolyhedron", "active_set",
    "affine_constraint", "compute_constants", "convergence_study",
    "diagnose", "extract_multipliers", "good_direction", "initialize",
    "interpolant_sup_error", "lookup", "max_feasibility_gap", "max_intergrid_gap",
    "momentum_residual", "project_point", "project_velocity", "run",
    "step", "velocity_bound_ok", "velocity_polyhedron", "verify_impact_law",
]

__version__ = "0.1.0"
