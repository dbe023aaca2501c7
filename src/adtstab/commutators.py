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

Every series reads one walk of {B, A^m} (_walk), the only code that forms
the commutators, their coefficients s^m/m! and, NORM_CHUNK orders per call
of linalg._norms2 (the one 2-norm kernel), their 2-norms.  The scalar bounds
(the jump correction omega and the lift amplification) are one loop,
_bound, over a walk of their own: it sums |s^m/m!| ||{B, A^m}||, or
|s^m/m!| ||{B, A^m} E|| for the lift's flow E, whose norms over the chunks
a certificate's omega read come from one _norms2 call; the certificate
(certify.CertificateProblem) sums both.  The walk is remembered per system:
the terms {B, A^m} and their norms depend on A and B alone, so each is
formed once per (A, B) in a 16-slot memo (_system) and read by every later
walk, whatever its s.

Every matrix series is S(s) itself, summed from order 0 (the comparison
jump at a shift s_k is S(s_k)), for a whole stack of arguments s_1..s_k
from one walk (commutator_series_stack); each s_i stops by its own count of
quiet terms, so its sum has the bits a series for s_i alone would have.  A
sum's 2-norm is taken only where its Frobenius norm leaves the quiet test
open.  commutator_series is a stack of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain, count, islice

import numpy as np

from .errors import ConvergenceError, InputError
from .linalg import _bit_keyed, _norms2, _spectral_radius, as_pair
from .schedules import _INDEX_MAX, _whole

TERM_CAP = 200
REL_TOL = 1e-12
NORM_CHUNK = 8
_QUIET_NEEDED = 3
# Margin and range of ||M||_F / sqrt(n) <= ||M||_2 <= ||M||_F (Golub & Van Loan,
# Matrix Computations, 2.3) in the stacked quiet test.  sigma_1 from LAPACK and a
# sum of n^2 squares each err by at most about n^2 eps, 1.4e-14 at n = 8, the
# workloads' largest (past it the margin grows as n^2).  For ||M||_F in
# (2^-400, inf) no square overflowed and underflow cost at most 2^-260 of it.
_BRACKET_DELTA, _BRACKET_FLOOR = 1e-12, 2.0**-400

__all__ = [
    "TERM_CAP",
    "REL_TOL",
    "CommutatorSequence",
    "SeriesTerm",
    "nested_commutators",
    "commutator_series",
    "commutator_series_stack",
    "correction_terms",
    "correction_bound",
]


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


class _System:
    """What one (A, B) contributes to every walk and certificate point.

    chunks maps a chunk's first order to (terms, norms): the read-only
    (NORM_CHUNK, n, n) stack of {B, A^m} from that order on and its 2-norms.
    The spectral abscissa max Re eig(A), the spectral radius rho(B) and the
    identity's bits with the norms ||B I||, ||B^T I||, ||I|| that
    CertificateProblem.lhs reads for P0 = I are taken on first read.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray):
        self.A, self.B = A, B
        self.chunks: dict[int, tuple[np.ndarray, list[float]]] = {}

    @functools.cached_property
    def a_abscissa(self) -> float:
        return float(np.max(np.linalg.eigvals(self.A).real))

    @functools.cached_property
    def b_radius(self) -> float:
        return _spectral_radius(self.B)

    @functools.cached_property
    def eye(self) -> tuple[bytes, np.ndarray]:
        I = np.eye(len(self.A))
        norms = _norms2(np.stack([self.B @ I, self.B.T @ I, I]))
        norms.setflags(write=False)
        return I.tobytes(), norms


@_bit_keyed(maxsize=16, arrays=2)
def _system(A: np.ndarray, B: np.ndarray) -> _System:
    """The remembered record of the system with the coerced A and B.

    A slot stores the chunks that begin at order TERM_CAP or below, at most
    TERM_CAP // NORM_CHUNK + 1 = 26 chunks of NORM_CHUNK n-by-n terms:
    106 KB at n = 8, so 16 slots hold under 2 MB.
    """
    return _System(A, B)


def _chunk(system: _System, prev) -> tuple[np.ndarray, list[float]]:
    """The NORM_CHUNK terms after prev = {B, A^(first - 1)} (from B itself
    for prev None), read-only, and their 2-norms from one _norms2 call."""
    A = system.A
    terms = np.empty((NORM_CHUNK, *A.shape))
    for j in range(NORM_CHUNK):
        terms[j] = prev = system.B if prev is None else prev @ A - A @ prev
    terms.setflags(write=False)
    return terms, _norms2(terms).tolist()


def _chunks(system: _System):
    """Yield (terms, norms) for chunk k = 0, 1, ... of NORM_CHUNK orders,
    read from system, or formed from the last term of chunk k - 1 and stored
    there (up to order TERM_CAP)."""
    terms = None
    for first in count(0, NORM_CHUNK):
        chunk = system.chunks.get(first)
        if chunk is None:
            chunk = _chunk(system, None if terms is None else terms[-1])
            if first <= TERM_CAP:
                chunk = system.chunks.setdefault(first, chunk)
        terms = chunk[0]
        yield chunk


def _flowed(chunks, E: np.ndarray, lead: int):
    """The chunks with the norms ||{B, A^m} E||: those of the first lead
    chunks from one product and one _norms2 call, then a chunk's per call."""
    head = np.concatenate([terms for terms, _stored in islice(chunks, lead)])
    yield head, _norms2(head @ E).tolist()
    for terms, _stored in chunks:
        yield terms, _norms2(terms @ E).tolist()


def _walk(A: np.ndarray, B: np.ndarray, s, E=None, lead: int = 1):
    """Yield (m, s^m/m!, {B, A^m}, norm) for m = 0, 1, ..., where norm is
    ||{B, A^m} E|| given E and ||{B, A^m}|| otherwise; s is a number (with
    Python float coefficients) or a 1-D stack.

    The walk never ends; each consumer reads the orders it needs, under one
    np.errstate, and checks the norms it reads (inf for a term that
    overflowed).  The walk is remembered per system: chunk k of NORM_CHUNK
    terms and their norms is read from _system(A, B), or formed from the last
    term of chunk k - 1 under the consumer's np.errstate and stored there
    (up to order TERM_CAP), with the bits a fresh walk would give.  Two walks
    that form the same chunk keep the first copy stored.  The coefficients
    and, given E, the norms ||{B, A^m} E|| are taken per walk, those of the
    first lead chunks (the ones a caller knows it reads) in one call.
    """
    system = _system(A, B)
    coeff = np.ones_like(s) if isinstance(s, np.ndarray) else 1.0
    chunks = _chunks(system) if E is None else _flowed(_chunks(system), E, lead)
    for m, (T, norm) in enumerate(chain.from_iterable(zip(*chunk) for chunk in chunks)):
        yield m, coeff, T, norm
        coeff = coeff * (s / (m + 1))


def _bound(walk, label: str, first: int = 0) -> tuple[list[tuple], float]:
    """Sum the terms |s^m/m!| norm of a walk at a number s from order first,
    until _QUIET_NEEDED consecutive ones are at most REL_TOL times the running
    sum; a term or a sum that leaves float64 raises ConvergenceError.  Returns
    the rows (m, norm, s^m/m! norm) read and the sum."""
    rows = []
    total = None
    magnitude = float("inf")
    quiet = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for m, coeff, _T, norm in islice(walk, first, TERM_CAP + 1):
            value = coeff * norm
            rows.append((m, norm, value))
            magnitude = abs(value)
            if not np.isfinite(magnitude):
                raise ConvergenceError(f"{label}: series term overflowed")
            total = value if total is None else total + value
            if magnitude <= REL_TOL * abs(total):
                quiet += 1
                if quiet >= _QUIET_NEEDED:
                    if not np.isfinite(total):  # finite terms can still overflow the sum
                        raise ConvergenceError(f"{label}: running sum overflowed")
                    return rows, total
            else:
                quiet = 0
    raise ConvergenceError(
        f"{label}: no convergence within {TERM_CAP} terms "
        f"(last term magnitude {magnitude:.3e})"
    )


def nested_commutators(A, B, m_max: int) -> CommutatorSequence:
    """Compute {B, A^m} for m = 0..m_max by the defining recurrence."""
    A, B = as_pair(A, B)
    m_max = _whole(m_max, "m_max", 0, _INDEX_MAX - 1)  # m_max + 1 terms, an index-range count
    terms, norms = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        # s = 0: the coefficients go unread
        for m, _coeff, T, norm in islice(_walk(A, B, 0.0), m_max + 1):
            if not np.isfinite(norm):
                raise ConvergenceError(f"commutator of order {m} overflowed")
            terms.append(T)
            norms.append(norm)
    return CommutatorSequence(A=A, B=B, terms=tuple(terms), norms=tuple(norms))


def commutator_series_stack(A, B, s) -> tuple[np.ndarray, np.ndarray]:
    """Truncated sums S(s_i) = sum_{m>=0} s_i^m/m! * {B, A^m} for a 1-D stack s.

    One walk of {B, A^m} serves the whole stack.  Each s_i keeps its own
    running sum, whose first term is B, and its own count of quiet
    terms (|s_i^m/m!| ||{B, A^m}|| at most REL_TOL times the 2-norm of its
    sum), and retires when the count reaches _QUIET_NEEDED.  The Frobenius
    norm of a sum settles most tests with the 2-norm's answer; the rest take
    an SVD.  A sum that overflows raises ConvergenceError.  Returns the sums,
    shape (k, n, n), and the number of terms each s_i used.
    """
    A, B = as_pair(A, B)
    s = np.asarray(s, dtype=float)
    if s.ndim != 1:
        raise InputError("series arguments must form a 1-D stack")
    if not np.all(np.isfinite(s)):
        raise InputError("series argument must be finite")
    sums = np.empty((s.size,) + B.shape)
    used = np.zeros(s.size, dtype=int)
    live = np.arange(s.size)  # index of each s still summing
    quiet = np.zeros(s.size, dtype=int)
    total = magnitude = None
    delta = _BRACKET_DELTA * max(1.0, B.size / 64)
    low, high = REL_TOL * (1.0 - delta) / np.sqrt(B.shape[0]), REL_TOL * (1.0 + delta)
    with np.errstate(over="ignore", invalid="ignore"):
        for m, coeff, T, norm in islice(_walk(A, B, s), TERM_CAP + 1):
            coeff = coeff[live]
            magnitude = np.abs(coeff) * norm
            if not np.all(np.isfinite(magnitude)):
                raise ConvergenceError("commutator series: series term overflowed")
            value = coeff[:, None, None] * T
            total = value if total is None else total + value
            frob = np.sqrt(np.einsum("kij,kij->k", total, total))
            small = magnitude <= low * frob
            in_range = (frob > _BRACKET_FLOOR) & (frob < np.inf)
            undecided = ~in_range | (small != (magnitude <= high * frob))
            if undecided.any():
                norms = _norms2(total[undecided])
                if not np.all(np.isfinite(norms)):
                    raise ConvergenceError("commutator series: running sum overflowed")
                small[undecided] = magnitude[undecided] <= REL_TOL * norms
            quiet = np.where(small, quiet + 1, 0)
            done = quiet >= _QUIET_NEEDED
            if done.any():
                sums[live[done]] = total[done]
                used[live[done]] = m + 1
                keep = ~done
                live, quiet = live[keep], quiet[keep]
                total, magnitude = total[keep], magnitude[keep]
            if not live.size:
                return sums, used
    raise ConvergenceError(
        f"commutator series: no convergence within {TERM_CAP} terms "
        f"(last term magnitude {magnitude[0]:.3e})"
    )


def commutator_series(A, B, s: float) -> np.ndarray:
    """Truncated sum S(s) = sum_{m>=0} s^m/m! * {B, A^m}."""
    return commutator_series_stack(A, B, [s])[0][0]


def _correction(A, B, chi_max: float) -> tuple[list[SeriesTerm], float]:
    """correction_terms and their total, correction_bound."""
    A, B = as_pair(A, B)
    if not np.isfinite(chi_max) or chi_max < 0.0:
        raise InputError("chi_max must be finite and >= 0")
    rows, omega = _bound(_walk(A, B, 2.0 * float(chi_max)), "correction bound", 1)
    return [SeriesTerm(*row) for row in rows], omega


def correction_terms(A, B, chi_max: float) -> list[SeriesTerm]:
    """Per-order pieces of the uniform jump-correction bound.

    Order m contributes (2 chi_max)^m/m! * ||{B, A^m}||.  Two consecutive
    dwell deviations differ by at most 2 chi_max, so the total bounds the
    norm of every admissible comparison-jump correction.
    """
    return _correction(A, B, chi_max)[0]


def correction_bound(A, B, chi_max: float) -> float:
    """Uniform norm bound omega for the comparison-jump correction."""
    return float(_correction(A, B, chi_max)[1])

