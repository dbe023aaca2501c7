"""Jump Lyapunov certificates for impulsive flows on jittered schedules.

The one-period map of the nominal grid dynamics is Phi = B e^(theta A).
Stability on every admissible schedule follows when a symmetric positive
definite P0 satisfies the discounted jump inequality

    d * Phi^T P0 Phi + d * (2 w max(|B P0|, |B^T P0|) + w^2 |P0|) e^(theta A^T) e^(theta A)  <  P0,

with discount d = exp(-2 pi^2 mu^2 theta / ell^2) and w the uniform
correction bound from the commutator series.  The max over the two mixed
norms is deliberately conservative; reports carry a norm_convention field
saying so.  A companion spectral condition requires the radius of Phi to
stay below exp(pi^2 mu^2 theta / ell^2); it is decided in log space,
log rho(Phi) < pi^2 mu^2 theta / ell^2, so a strongly diffusive point whose
threshold leaves float64 still gets a finite report.

search_p0 and evaluate_certificate share the problem of the previous call
at the same point (a one-slot linalg._bit_keyed memo), so a search then an
evaluation forms omega and e^(theta A) once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .commutators import NORM_CHUNK, REL_TOL, _bound, _System, _system, _walk
from .errors import ConvergenceError, InputError
from .linalg import (
    _bit_keyed,
    _diffusive_rate,
    _norms2,
    _spectral_radius,
    as_pair,
    check_positive,
    check_spd,
    expm,
)
from .schedules import _values, check_window

NORM_CONVENTION = "max(|B P0|, |B^T P0|)"

__all__ = [
    "CertificateProblem",
    "CertificateReport",
    "monodromy",
    "evaluate_certificate",
    "search_p0",
]


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate evaluation plus its diagnostics."""

    certified: bool
    spectral_radius: float
    log_threshold: float
    omega: float
    margin: float
    phi: np.ndarray
    p0: np.ndarray
    shifted_a_hurwitz: bool
    b_schur: bool
    lift_amplification: float
    inputs: dict

    def to_doc(self) -> dict:
        """JSON-compatible document; matrices flattened row-major."""
        return {
            "certified": bool(self.certified),
            "spectral_radius": float(self.spectral_radius),
            "log_threshold": float(self.log_threshold),
            "omega": float(self.omega),
            "margin": float(self.margin),
            "n": int(self.phi.shape[0]),
            "phi": [float(v) for v in self.phi.ravel()],
            "p0": [float(v) for v in self.p0.ravel()],
            "diagnostics": {
                "shifted_a_hurwitz": bool(self.shifted_a_hurwitz),
                "b_schur": bool(self.b_schur),
                "lift_amplification": float(self.lift_amplification),
            },
            "norm_convention": NORM_CONVENTION,
            "inputs": dict(self.inputs),
        }


def _jump_after_flow(B: np.ndarray, E: np.ndarray, theta: float) -> np.ndarray:
    """Phi = B E; a product that overflows float64 raises ConvergenceError."""
    with np.errstate(over="ignore", invalid="ignore"):
        phi = B @ E
    if not np.all(np.isfinite(phi)):
        raise ConvergenceError(f"monodromy B e^(theta A) overflowed at theta = {theta:g}")
    return phi


def monodromy(A, B, theta: float) -> np.ndarray:
    """One-period transition of the nominal grid dynamics: B e^(theta A)."""
    A, B = as_pair(A, B)
    check_positive(theta=theta)
    return _jump_after_flow(B, expm(A, theta), theta)


@dataclass(frozen=True)
class CertificateProblem:
    """The jump inequality at one parameter point.

    Everything that does not depend on P0 is formed once on construction:
    E = e^(theta A) and Phi = B E (both read-only), the diffusive rate
    pi^2 mu^2 / ell^2, the discount and omega, a _bound over a walk of
    {B, A^m}, whose terms the per-system memo forms once.  E and the lift's
    flow e^((theta - chi_max) A) come from one expm call; the lift
    amplification, a _bound over a walk of its own, is summed in evaluate,
    which alone reads it, taking the norms ||{B, A^m} E|| of the chunks
    omega read in one call.  theta, chi_max, mu and ell are read by
    schedules._number, so a bool, a string, a container or None raises
    InputError naming it.  A rate times theta that leaves float64 raises
    ConvergenceError.

    The margins of the P0s that search tries (the identity, then the Stein
    P0) are remembered by their bits, and evaluate reads them back, so a
    search then an evaluate forms each P0's margin once.  The system's own
    record (commutators._system) gives rho(B), the spectral abscissa of A
    and, for P0 = I, the norms ||B I||, ||B^T I|| and ||I||.
    """

    A: np.ndarray
    B: np.ndarray
    theta: float
    chi_max: float
    mu: float
    ell: float
    omega: float = field(init=False)
    E: np.ndarray = field(init=False, repr=False)
    phi: np.ndarray = field(init=False, repr=False)
    rate: float = field(init=False, repr=False)
    discount: float = field(init=False, repr=False)
    _lift_flow: np.ndarray = field(init=False, repr=False)
    _lead: int = field(init=False, repr=False)
    _record: _System = field(init=False, repr=False)
    _margins: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        A, B = as_pair(self.A, self.B)
        # floats whatever real type came in, as the memo keys them
        for name, value in zip(_POINT, _point(self.theta, self.chi_max, self.mu, self.ell)):
            object.__setattr__(self, name, value)
        check_positive(theta=self.theta, mu=self.mu, ell=self.ell)
        check_window(self.theta, self.chi_max)
        E, lift_flow = expm(A, (self.theta, self.theta - self.chi_max))
        rate = _diffusive_rate(self.mu, self.ell)
        if not np.isfinite(rate * self.theta):
            raise ConvergenceError(
                f"diffusive rate times theta overflowed at mu = {self.mu:g}, ell = {self.ell:g}"
            )
        phi = _jump_after_flow(B, E, self.theta)
        rows, omega = _bound(_walk(A, B, 2.0 * self.chi_max), "correction bound", 1)
        lead = rows[-1][0] // NORM_CHUNK + 1  # the chunks omega read
        E.setflags(write=False)
        phi.setflags(write=False)
        for name, value in (
            ("A", A), ("B", B), ("omega", omega), ("E", E), ("phi", phi),
            ("rate", rate), ("discount", math.exp(-2.0 * rate * self.theta)),
            ("_lift_flow", lift_flow), ("_lead", lead),
            ("_record", _system(A, B)),
        ):
            object.__setattr__(self, name, value)

    def lhs(self, P0: np.ndarray) -> np.ndarray:
        """Left side of the discounted jump inequality for a validated P0.

        A P0 with the identity's bits takes its norms from the system's
        record.  A left side that overflows float64 raises ConvergenceError.
        """
        # a numpy scalar squares to inf where a Python float's ** would raise
        d, w = self.discount, np.float64(self.omega)
        eye, eye_norms = self._record.eye
        with np.errstate(over="ignore", invalid="ignore"):
            # an overflowing B P0 has norm inf and so fails the check below
            if P0.tobytes() == eye:
                bp, btp, p = eye_norms
            else:
                bp, btp, p = _norms2(np.stack([self.B @ P0, self.B.T @ P0, P0]))
            scale = 2.0 * w * max(bp, btp) + w**2 * p
            out = d * (self.phi.T @ P0 @ self.phi) + d * scale * (self.E.T @ self.E)
        if not np.all(np.isfinite(out)):
            raise ConvergenceError(f"jump inequality overflowed at omega = {w:g}")
        return out

    def margin(self, P0: np.ndarray) -> float:
        """Smallest eigenvalue of P0 minus the left side, symmetrized.

        The inequality compares quadratic forms, so only the symmetric part
        enters; Phi^T P0 Phi is symmetric only up to rounding, which for a
        large Stein P0 exceeds any fixed tolerance relative to the margin.
        """
        S = P0 - self.lhs(P0)
        return float(np.linalg.eigvalsh(0.5 * S + 0.5 * S.T)[0])  # halves first, as in search

    def search(self) -> np.ndarray | None:
        """P0 with positive margin: the identity, else the Stein solution, or None.

        The Stein P0 solves P = d Phi^T P Phi + (E^T E + id) / ||E^T E + id||
        (positive definite iff rho(sqrt(d) Phi) < 1), symmetrized and scaled to
        unit 2-norm.  It solves (I - a (x) a) vec P = vec Q with a = sqrt(d) Phi^T,
        scipy's direct method, and refuses when that system's 1-norm condition
        number exceeds 2^53 (inf if singular); it costs n^4 memory and n^6 time.
        """
        n = self.A.shape[0]
        if self._tried(np.eye(n)) > 0.0:
            return np.eye(n)
        Q = self.E.T @ self.E + np.eye(n)
        a = math.sqrt(self.discount) * self.phi.T
        M = np.eye(n * n) - (a[:, None, :, None] * a[None, :, None, :]).reshape(n * n, n * n)
        if not np.linalg.cond(M, 1) <= 2.0**53:
            return None
        P = np.linalg.solve(M, (Q / _norms2(Q[None])[0]).ravel()).reshape(n, n)
        if not np.all(np.isfinite(P)):
            return None
        P = 0.5 * P + 0.5 * P.T  # halves first: a sum near the float64 limit overflows
        P = P / _norms2(P[None])[0]
        # P is exactly symmetric here, so eigvalsh reads it without a symmetry check
        return P if np.linalg.eigvalsh(P)[0] > 0.0 and self._tried(P) > 0.0 else None

    def _tried(self, P0: np.ndarray) -> float:
        """margin(P0) of a P0 that search tries, remembered by its bits for evaluate."""
        margin = self._margins[P0.tobytes()] = self.margin(P0)
        return margin

    def evaluate(self, p0=None) -> CertificateReport:
        """Certificate verdict and diagnostics for P0 (identity by default).

        certified is true iff the log spectral radius of the monodromy
        stays below log_threshold = pi^2 mu^2 theta / ell^2 (a zero radius
        counts as below) and the jump inequality holds with positive margin.
        """
        A, B, theta, chi_max = self.A, self.B, self.theta, self.chi_max
        lift = _bound(_walk(A, B, 2.0 * chi_max, self._lift_flow, self._lead), "lift bound")[1]
        p0 = np.eye(A.shape[0]) if p0 is None else check_spd(p0)
        if p0.shape != A.shape:
            raise InputError(f"P0 must have the shape of A, {A.shape}, got {p0.shape}")
        log_threshold = self.rate * theta
        radius = _spectral_radius(self.phi)
        below = radius == 0.0 or math.log(radius) < log_threshold
        margin = self._margins.get(p0.tobytes())
        if margin is None:
            margin = self.margin(p0)

        return CertificateReport(
            certified=bool(below and margin > 0.0),
            spectral_radius=radius,
            log_threshold=log_threshold,
            omega=self.omega,
            margin=margin,
            phi=self.phi,
            p0=p0,
            # A - rate id is Hurwitz iff every eigenvalue of A lies left of
            # rate; forming A - rate id could overflow
            shifted_a_hurwitz=self._record.a_abscissa < self.rate,
            b_schur=self._record.b_radius < 1.0,
            lift_amplification=lift,
            inputs={
                "n": int(A.shape[0]),
                "a": [float(v) for v in A.ravel()],
                "b": [float(v) for v in B.ravel()],
                "theta": float(theta),
                "chi_max": float(chi_max),
                "mu": float(self.mu),
                "ell": float(self.ell),
                "rel_tol": REL_TOL,
            },
        )


_POINT = ("theta", "chi_max", "mu", "ell")


def _point(*values) -> tuple:
    """theta, chi_max, mu and ell, each read by schedules._number as a float,
    so a bool, a string, a container or None raises InputError naming it."""
    if type(values[0]) is type(values[1]) is type(values[2]) is type(values[3]) is float:
        return values  # each reads as itself; the full read would cost a stability_map cell ~2%
    return tuple(_values(dict(zip(_POINT, values)), "certificate", *_POINT))


_memo = _bit_keyed(maxsize=1, arrays=2)(CertificateProblem)


def _problem(A, B, theta, chi_max, mu, ell) -> CertificateProblem:
    """The problem at one point, shared by consecutive calls at the same
    point: the scalars are read and A and B coerced before the one-slot memo
    keys them."""
    point = _point(theta, chi_max, mu, ell)
    return _memo(np.asarray(A, dtype=float), np.asarray(B, dtype=float), *point)


def evaluate_certificate(
    A,
    B,
    theta: float,
    chi_max: float,
    mu: float,
    ell: float,
    p0=None,
) -> CertificateReport:
    """Evaluate the certificate at one parameter point (see CertificateProblem.evaluate)."""
    return _problem(A, B, theta, chi_max, mu, ell).evaluate(p0)


def search_p0(
    A,
    B,
    theta: float,
    chi_max: float,
    mu: float,
    ell: float,
    budget: int = 32,
    seed: int = 0,
) -> np.ndarray | None:
    """CertificateProblem.search at one point; budget and seed are accepted
    for existing callers and have no effect."""
    return _problem(A, B, theta, chi_max, mu, ell).search()
