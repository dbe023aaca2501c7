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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, LinAlgWarning, solve_discrete_lyapunov

from .commutators import REL_TOL, correction_bound, lift_bound
from .errors import ConvergenceError, InputError
from .linalg import (
    as_pair,
    check_positive,
    check_spd,
    expm,
    is_hurwitz,
    is_schur,
    min_eigenvalue_sym,
    spectral_norm,
    spectral_radius,
)
from .schedules import check_window

NORM_CONVENTION = "max(|B P0|, |B^T P0|)"

__all__ = [
    "CertificateProblem",
    "CertificateReport",
    "monodromy",
    "inequality_lhs",
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
    E = e^(theta A), Phi = B E, the diffusive rate pi^2 mu^2 / ell^2, the
    discount and omega.  omega defaults to the correction bound at chi_max;
    an explicit value poses the inequality for that omega instead.  A rate
    times theta that leaves float64 raises ConvergenceError.
    """

    A: np.ndarray
    B: np.ndarray
    theta: float
    chi_max: float
    mu: float
    ell: float
    omega: float | None = None
    E: np.ndarray = field(init=False, repr=False)
    phi: np.ndarray = field(init=False, repr=False)
    rate: float = field(init=False, repr=False)
    discount: float = field(init=False, repr=False)

    def __post_init__(self):
        A, B = as_pair(self.A, self.B)
        check_positive(theta=self.theta, mu=self.mu, ell=self.ell)
        check_window(self.theta, self.chi_max)
        if self.omega is None:
            omega = correction_bound(A, B, self.chi_max)
        elif np.isfinite(self.omega) and self.omega >= 0.0:
            omega = self.omega
        else:
            raise InputError("omega must be finite and >= 0")
        E = expm(A, self.theta)
        # a numpy scalar squares to inf where a Python float's ** would raise
        with np.errstate(over="ignore"):
            rate = float(np.float64(math.pi * self.mu / self.ell) ** 2)
        if not np.isfinite(rate * self.theta):
            raise ConvergenceError(
                f"diffusive rate times theta overflowed at mu = {self.mu:g}, ell = {self.ell:g}"
            )
        for name, value in (
            ("A", A), ("B", B), ("omega", omega), ("E", E),
            ("phi", _jump_after_flow(B, E, self.theta)),
            ("rate", rate), ("discount", math.exp(-2.0 * rate * self.theta)),
        ):
            object.__setattr__(self, name, value)

    def lhs(self, P0: np.ndarray) -> np.ndarray:
        """Left side of the discounted jump inequality for a validated P0.

        A left side that overflows float64 raises ConvergenceError.
        """
        # a numpy scalar squares to inf where a Python float's ** would raise
        d, w = self.discount, np.float64(self.omega)
        with np.errstate(over="ignore", invalid="ignore"):
            mixed = max(spectral_norm(self.B @ P0), spectral_norm(self.B.T @ P0))
            scale = 2.0 * w * mixed + w**2 * spectral_norm(P0)
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
        return float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])

    def search(self) -> np.ndarray | None:
        """P0 with positive margin: the identity, else the Stein solution, or None.

        The Stein P0 solves P = d Phi^T P Phi + (E^T E + id) / ||E^T E + id||
        (positive definite iff rho(sqrt(d) Phi) < 1), symmetrized and scaled to
        unit 2-norm.  A solve that scipy flags as ill-conditioned or singular fails.
        """
        n = self.A.shape[0]
        if self.margin(np.eye(n)) > 0.0:
            return np.eye(n)
        Q = self.E.T @ self.E + np.eye(n)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", LinAlgWarning)
                P = solve_discrete_lyapunov(
                    math.sqrt(self.discount) * self.phi.T, Q / spectral_norm(Q)
                )
        except (LinAlgWarning, LinAlgError):
            return None
        if not np.all(np.isfinite(P)):
            return None
        P = 0.5 * P + 0.5 * P.T  # halves first: a sum near the float64 limit overflows
        P = P / spectral_norm(P)
        return P if min_eigenvalue_sym(P) > 0.0 and self.margin(P) > 0.0 else None

    def evaluate(self, p0=None) -> CertificateReport:
        """Certificate verdict and diagnostics for P0 (identity by default).

        certified is true iff the log spectral radius of the monodromy
        stays below log_threshold = pi^2 mu^2 theta / ell^2 (a zero radius
        counts as below) and the jump inequality holds with positive margin.
        """
        A, B, theta, chi_max = self.A, self.B, self.theta, self.chi_max
        p0 = np.eye(A.shape[0]) if p0 is None else check_spd(p0)
        log_threshold = self.rate * theta
        radius = spectral_radius(self.phi)
        below = radius == 0.0 or math.log(radius) < log_threshold
        margin = self.margin(p0)

        return CertificateReport(
            certified=bool(below and margin > 0.0),
            spectral_radius=radius,
            log_threshold=log_threshold,
            omega=self.omega,
            margin=margin,
            phi=self.phi,
            p0=p0,
            shifted_a_hurwitz=is_hurwitz(A - self.rate * np.eye(A.shape[0])),
            b_schur=is_schur(B),
            lift_amplification=lift_bound(A, B, theta, chi_max),
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


def inequality_lhs(
    P0, A, B, theta: float, mu: float, ell: float, omega: float
) -> np.ndarray:
    """Left side of the discounted jump inequality for a given omega."""
    # chi_max enters the inequality only through omega, which is given here
    return CertificateProblem(A, B, theta, 0.0, mu, ell, omega=omega).lhs(check_spd(P0))


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
    return CertificateProblem(A, B, theta, chi_max, mu, ell).evaluate(p0)


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
    return CertificateProblem(A, B, theta, chi_max, mu, ell).search()
