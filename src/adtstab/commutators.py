"""Nested commutators of a jump operator with a flow generator.

A bounded operator B can be moved across the flow e^(tA) at the cost of a
factorially convergent operator series,

    B e^(tA) = e^(tA) * sum_{m>=0} t^m/m! {B, A^m},

where {B, A^0} = B and {B, A^(m+1)} = {B, A^m} A - A {B, A^m}.  This module
computes the commutator sequence, the truncated series, and the scalar
bounds built from it.  All series share one stopping rule (three consecutive
terms below REL_TOL times the running sum, hard cap at TERM_CAP terms) so
that quantities derived from the same data truncate consistently.  Overflow
anywhere in a series raises ConvergenceError, without a RuntimeWarning.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ConvergenceError, InputError
from .linalg import as_pair, expm
from .schedules import check_window

TERM_CAP = 200
REL_TOL = 1e-12
_QUIET_NEEDED = 3

__all__ = [
    "TERM_CAP",
    "REL_TOL",
    "CommutatorSequence",
    "SeriesTerm",
    "nested_commutators",
    "commutator_series",
    "hadamard_series",
    "correction_terms",
    "correction_bound",
    "lift_bound",
]


def _norm2(M: np.ndarray) -> float:
    if not np.all(np.isfinite(M)):
        return float("inf")
    return float(np.linalg.norm(M, 2))


@dataclass(frozen=True)
class CommutatorSequence:
    """Terms {B, A^m} for m = 0..m_max with their operator 2-norms."""

    A: np.ndarray
    B: np.ndarray
    terms: tuple[np.ndarray, ...]
    norms: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class SeriesTerm:
    """One order of a scalar bound series."""

    m: int
    commutator_norm: float
    contribution: float


def _commutators(A: np.ndarray, B: np.ndarray):
    """Yield {B, A^0}, {B, A^1}, ... by the defining recurrence.

    Terms may overflow to inf or NaN; each consumer walks the series under
    one np.errstate and checks the norms it reads.
    """
    term = B
    while True:
        yield term
        term = term @ A - A @ term


def _weighted(A: np.ndarray, B: np.ndarray, s: float, start: int = 0):
    """Yield (m, s^m/m!, {B, A^m}) for m = start..TERM_CAP."""
    coeff = 1.0
    for m, term in zip(range(TERM_CAP + 1), _commutators(A, B)):
        if m >= start:
            yield m, coeff, term
        coeff *= s / (m + 1)


def _truncated_sum(terms, label: str):
    """Sum scalar or matrix terms until _QUIET_NEEDED consecutive ones are at
    most REL_TOL times the running sum (matrices compared by 2-norm).

    Returns the sum and the number of terms used.
    """
    total = None
    magnitude = float("inf")
    quiet = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for used, value in enumerate(terms, 1):
            size = _norm2 if isinstance(value, np.ndarray) else abs
            magnitude = size(value)
            if not np.isfinite(magnitude):
                raise ConvergenceError(f"{label}: series term overflowed")
            total = value if total is None else total + value
            if magnitude <= REL_TOL * size(total):
                quiet += 1
                if quiet >= _QUIET_NEEDED:
                    return total, used
            else:
                quiet = 0
    raise ConvergenceError(
        f"{label}: no convergence within {TERM_CAP} terms "
        f"(last term magnitude {magnitude:.3e})"
    )


def nested_commutators(A, B, m_max: int) -> CommutatorSequence:
    """Compute {B, A^m} for m = 0..m_max by the defining recurrence."""
    A, B = as_pair(A, B)
    if m_max < 0:
        raise InputError("m_max must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        terms = tuple(islice(_commutators(A, B), int(m_max) + 1))
        norms = tuple(_norm2(T) for T in terms)
    for m, v in enumerate(norms):
        if not np.isfinite(v):
            raise ConvergenceError(f"commutator of order {m} overflowed")
    return CommutatorSequence(A=A, B=B, terms=terms, norms=norms)


def commutator_series(A, B, s: float, start: int = 0) -> np.ndarray:
    """Truncated sum of s^m/m! * {B, A^m} over m >= start."""
    A, B = as_pair(A, B)
    if not np.isfinite(s):
        raise InputError("series argument must be finite")
    if start not in (0, 1):
        raise InputError("start must be 0 or 1")
    terms = (coeff * T for _m, coeff, T in _weighted(A, B, float(s), start))
    return _truncated_sum(terms, "commutator series")[0]


def hadamard_series(A, B, t: float) -> np.ndarray:
    """Truncated operator S(t) satisfying B e^(tA) = e^(tA) S(t)."""
    if not np.isfinite(t) or t < 0.0:
        raise InputError("t must be finite and >= 0")
    return commutator_series(A, B, t, start=0)


def correction_terms(A, B, chi_max: float) -> list[SeriesTerm]:
    """Per-order pieces of the uniform jump-correction bound.

    Order m contributes (2 chi_max)^m/m! * ||{B, A^m}||.  Two consecutive
    dwell deviations differ by at most 2 chi_max, so the total bounds the
    norm of every admissible comparison-jump correction.
    """
    A, B = as_pair(A, B)
    if not np.isfinite(chi_max) or chi_max < 0.0:
        raise InputError("chi_max must be finite and >= 0")
    rows: list[SeriesTerm] = []

    def contributions():
        for m, coeff, T in _weighted(A, B, 2.0 * float(chi_max), start=1):
            nrm = _norm2(T)
            rows.append(SeriesTerm(m=m, commutator_norm=nrm, contribution=coeff * nrm))
            yield rows[-1].contribution

    _truncated_sum(contributions(), "correction bound")
    return rows


def correction_bound(A, B, chi_max: float) -> float:
    """Uniform norm bound omega for the comparison-jump correction."""
    return float(sum(t.contribution for t in correction_terms(A, B, chi_max)))


def lift_bound(A, B, theta: float, chi_max: float) -> float:
    """Amplification bound mapping an initial state to its comparison lift.

    Sums (2 chi_max)^m/m! * ||{B, A^m} e^((theta - chi_max) A)|| from m = 0.
    """
    A, B = as_pair(A, B)
    check_window(theta, chi_max)
    E = expm(A, theta - chi_max)
    terms = (coeff * _norm2(T @ E) for _m, coeff, T in _weighted(A, B, 2.0 * float(chi_max)))
    return float(_truncated_sum(terms, "lift bound")[0])
