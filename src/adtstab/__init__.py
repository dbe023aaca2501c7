"""Stability toolkit for linear impulsive systems on averaged dwell-time schedules.

The package certifies asymptotic stability through a discounted jump
Lyapunov inequality whose conservatism term comes from a nested-commutator
series, and simulates the original, comparison and parabolic-mode dynamics
exactly (one matrix exponential per segment).
"""

from .certify import (
    CertificateProblem,
    CertificateReport,
    evaluate_certificate,
    inequality_lhs,
    monodromy,
    search_p0,
)
from .commutators import (
    CommutatorSequence,
    SeriesTerm,
    commutator_series,
    commutator_series_stack,
    correction_bound,
    correction_terms,
    lift_bound,
    nested_commutators,
)
from .errors import ConvergenceError, InputError
from .linalg import (
    check_spd,
    expm,
    is_hurwitz,
    is_schur,
    min_eigenvalue_sym,
    spectral_norm,
    spectral_radius,
)
from .schedules import (
    ADT,
    ADT_PLUS,
    ImpulseSchedule,
    ValidationReport,
    schedule_from_doc,
    schedule_to_doc,
)
from .schedules import generate as generate_schedule
from .schedules import validate as validate_schedule
from .simulate import (
    ParabolicModel,
    Trajectory,
    l2_norm,
    matching_residual,
    mode_csv,
    mode_generator,
    simulate_comparison,
    simulate_ode,
    simulate_parabolic,
    trajectory_to_csv,
)
from .systems import ComparisonJump, ImpulsiveSystem, comparison_jump, lifted_initial

__version__ = "0.1.0"

__all__ = [
    "ADT",
    "ADT_PLUS",
    "CertificateProblem",
    "CertificateReport",
    "CommutatorSequence",
    "ComparisonJump",
    "ConvergenceError",
    "ImpulseSchedule",
    "ImpulsiveSystem",
    "InputError",
    "ParabolicModel",
    "SeriesTerm",
    "Trajectory",
    "ValidationReport",
    "check_spd",
    "commutator_series",
    "commutator_series_stack",
    "comparison_jump",
    "correction_bound",
    "correction_terms",
    "evaluate_certificate",
    "expm",
    "generate_schedule",
    "inequality_lhs",
    "is_hurwitz",
    "is_schur",
    "l2_norm",
    "lift_bound",
    "lifted_initial",
    "matching_residual",
    "min_eigenvalue_sym",
    "mode_csv",
    "mode_generator",
    "monodromy",
    "nested_commutators",
    "schedule_from_doc",
    "schedule_to_doc",
    "search_p0",
    "simulate_comparison",
    "simulate_ode",
    "simulate_parabolic",
    "spectral_norm",
    "spectral_radius",
    "trajectory_to_csv",
    "validate_schedule",
]
