"""Impulsive linear systems and their dwell-normalized comparison form.

The original dynamics flow with generator A and jump with B at schedule
instants tau_k.  The comparison form trades the jittered instants for the
uniform grid k*theta by augmenting each jump with a commutator series
correction, and lifts the initial state accordingly.
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
    """Jump operator J = B + G of the comparison system at one grid instant."""

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
    """Comparison jump J = B + sum_{m>=1} s^m/m! {B, A^m} with s set by the
    variant (s = chi_max + chi_next for "adt", s = chi_next for "adt_plus")."""
    s = _deviation_span(chi_next, chi_max, variant)
    G = commutator_series(system.A, system.B, s, start=1)
    return ComparisonJump(J=system.B + G, G=G, variant=variant)


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
    s = _deviation_span(chi_1, chi_max, variant)
    return _lift(system, x0, s, expm(system.A, theta + _lowest_deviation(chi_max, variant)))


def _lift(system: ImpulsiveSystem, x0: np.ndarray, s: float, flow: np.ndarray) -> np.ndarray:
    """S(s) @ (flow @ x0) with S(s) = sum_m s^m/m! {B, A^m}; a lifted state
    that leaves float64 raises ConvergenceError, without a RuntimeWarning."""
    S = commutator_series(system.A, system.B, s, start=0)
    with np.errstate(over="ignore", invalid="ignore"):
        z0 = S @ (flow @ x0)
    if not np.all(np.isfinite(z0)):
        raise ConvergenceError("lifted initial state overflowed")
    return z0
