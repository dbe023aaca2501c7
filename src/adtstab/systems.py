"""Impulsive linear systems and their dwell-normalized comparison form.

The original dynamics flow with generator A and jump with B at schedule
instants tau_k.  The comparison form trades the jittered instants for the
uniform grid k*theta: by B e^(sA) = e^(sA) S(s) the comparison jump at a
shift s is S(s) itself, and the lifted initial state is S(s_1) after a flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .commutators import commutator_series
from .errors import ConvergenceError, InputError
from .linalg import as_pair, as_vector, expm
from .schedules import ADT, VARIANTS, _lowest_deviation, check_window

__all__ = [
    "ImpulsiveSystem",
    "ComparisonJump",
    "comparison_jump",
    "lifted_initial",
]


@dataclass(frozen=True)
class ImpulsiveSystem:
    """Flow generator A and jump operator B of matching dimension."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A, B = as_pair(self.A, self.B)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class ComparisonJump:
    """Comparison jump J = S(s) at one grid instant and its correction G = J - B."""

    J: np.ndarray
    G: np.ndarray
    variant: str


def _deviation_span(chi_next: float, chi_max: float, variant: str) -> float:
    if variant not in VARIANTS:
        raise InputError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if not np.isfinite(chi_next) or not np.isfinite(chi_max) or chi_max < 0.0:
        raise InputError("chi_next and chi_max must be finite with chi_max >= 0")
    lo = _lowest_deviation(chi_max, variant)
    if not lo <= chi_next <= chi_max:
        raise InputError(
            f"chi_next = {chi_next:.6g} outside [{lo:.6g}, {chi_max:.6g}] for {variant}"
        )
    # series argument: worst-case left shift plus the upcoming deviation
    return chi_next - lo


def comparison_jump(
    system: ImpulsiveSystem,
    chi_next: float,
    chi_max: float,
    variant: str = ADT,
) -> ComparisonJump:
    """Comparison jump J = S(s) = sum_{m>=0} s^m/m! {B, A^m} with s set by the
    variant (s = chi_max + chi_next for "adt", s = chi_next for "adt_plus")."""
    J = commutator_series(system.A, system.B, _deviation_span(chi_next, chi_max, variant))
    return ComparisonJump(J=J, G=J - system.B, variant=variant)


def lifted_initial(
    system: ImpulsiveSystem,
    x0,
    chi_1: float,
    chi_max: float,
    theta: float,
    variant: str = ADT,
) -> np.ndarray:
    """Initial state of the comparison system.

    For "adt" this is sum_m (chi_1 + chi_max)^m/m! {B, A^m} e^((theta - chi_max) A) x0;
    the "adt_plus" form replaces the series argument by chi_1 and the flow
    time by theta.
    """
    check_window(theta, chi_max)
    x0 = as_vector(x0, system.n)
    S = commutator_series(system.A, system.B, _deviation_span(chi_1, chi_max, variant))
    return _lift(S, expm(system.A, theta + _lowest_deviation(chi_max, variant)), x0)


def _lift(S: np.ndarray, flow: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """S @ (flow @ x0) for the summed S = S(s_1); a lifted state that leaves
    float64 raises ConvergenceError, without a RuntimeWarning."""
    with np.errstate(over="ignore", invalid="ignore"):
        z0 = S @ (flow @ x0)
    if not np.all(np.isfinite(z0)):
        raise ConvergenceError("lifted initial state overflowed")
    return z0
