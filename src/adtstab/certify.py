"""Jump Lyapunov certificates for impulsive flows on jittered schedules.

The one-period map of the nominal grid dynamics is Phi = B e^(theta A).
Stability on every admissible schedule follows when a symmetric positive
definite P0 satisfies the discounted jump inequality

    d * Phi^T P0 Phi + d * (2 w max(|B P0|, |B^T P0|) + w^2 |P0|) e^(theta A^T) e^(theta A)  <  P0,

with discount d = exp(-2 pi^2 mu^2 theta / ell^2) and w the uniform
correction bound from the commutator series.  The max over the two mixed
norms is deliberately conservative; reports carry a norm_convention field
saying so.  A companion spectral condition requires the radius of Phi to
stay below exp(pi^2 mu^2 theta / ell^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .commutators import PROBE_DEPTH, REL_TOL, convergence_margin, correction_bound, lift_bound
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
SUP_GRID_POINTS = 1000

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
    threshold: float
    omega: float
    margin: float
    phi: np.ndarray
    p0: np.ndarray
    shifted_a_hurwitz: bool
    b_schur: bool
    semigroup_sup: float
    lift_amplification: float
    convergence_proxy: float
    inputs: dict

    def to_doc(self) -> dict:
        """JSON-compatible document; matrices flattened row-major."""
        return {
            "certified": bool(self.certified),
            "spectral_radius": float(self.spectral_radius),
            "threshold": float(self.threshold),
            "omega": float(self.omega),
            "margin": float(self.margin),
            "n": int(self.phi.shape[0]),
            "phi": [float(v) for v in self.phi.ravel()],
            "p0": [float(v) for v in self.p0.ravel()],
            "diagnostics": {
                "shifted_a_hurwitz": bool(self.shifted_a_hurwitz),
                "b_schur": bool(self.b_schur),
                "semigroup_sup": float(self.semigroup_sup),
                "lift_amplification": float(self.lift_amplification),
                "convergence_proxy": float(self.convergence_proxy),
            },
            "norm_convention": NORM_CONVENTION,
            "inputs": dict(self.inputs),
        }


def monodromy(A, B, theta: float) -> np.ndarray:
    """One-period transition of the nominal grid dynamics: B e^(theta A)."""
    A, B = as_pair(A, B)
    check_positive(theta=theta)
    return B @ expm(A, theta)


@dataclass(frozen=True)
class CertificateProblem:
    """The jump inequality at one parameter point.

    Everything that does not depend on P0 is formed once on construction:
    E = e^(theta A), Phi = B E, the diffusive rate pi^2 mu^2 / ell^2, the
    discount and omega.  omega defaults to the correction bound at chi_max;
    an explicit value poses the inequality for that omega instead.
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
        rate = (math.pi * self.mu / self.ell) ** 2
        for name, value in (
            ("A", A), ("B", B), ("omega", omega), ("E", E), ("phi", B @ E),
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
        """Smallest eigenvalue of P0 minus the left side."""
        return min_eigenvalue_sym(P0 - self.lhs(P0))

    def search(self, budget: int, seed: int) -> np.ndarray | None:
        """Seeded random search for a P0 with positive inequality margin.

        Trial zero is the identity; the rest are L^T L + 1e-6 id with L drawn
        entrywise uniform on [-1, 1], each normalized to unit spectral norm.
        Returns the first feasible candidate by index, or None.
        """
        if budget < 1:
            raise InputError("budget must be >= 1")
        n = self.A.shape[0]
        rng = np.random.default_rng(seed)
        for trial in range(int(budget)):
            if trial == 0:
                cand = np.eye(n)
            else:
                L = rng.uniform(-1.0, 1.0, size=(n, n))
                cand = L.T @ L + 1e-6 * np.eye(n)
                cand = cand / spectral_norm(cand)
            if self.margin(cand) > 0.0:
                return cand
        return None

    def evaluate(self, p0=None) -> CertificateReport:
        """Certificate verdict and diagnostics for P0 (identity by default).

        certified is true iff the spectral radius of the monodromy stays
        below exp(pi^2 mu^2 theta / ell^2) and the jump inequality holds
        with positive margin.
        """
        A, B, theta, chi_max = self.A, self.B, self.theta, self.chi_max
        p0 = np.eye(A.shape[0]) if p0 is None else check_spd(p0)
        threshold = math.exp(self.rate * theta)
        radius = spectral_radius(self.phi)
        margin = self.margin(p0)

        shifted = A - self.rate * np.eye(A.shape[0])
        grid = np.linspace(0.0, theta + 2.0 * chi_max, SUP_GRID_POINTS)
        flows = expm(grid[:, None, None] * shifted)
        semigroup_sup = np.max(np.linalg.norm(flows, 2, axis=(1, 2)))

        return CertificateReport(
            certified=bool(radius < threshold and margin > 0.0),
            spectral_radius=radius,
            threshold=threshold,
            omega=self.omega,
            margin=margin,
            phi=self.phi,
            p0=p0,
            shifted_a_hurwitz=is_hurwitz(shifted),
            b_schur=is_schur(B),
            semigroup_sup=float(semigroup_sup),
            lift_amplification=lift_bound(A, B, theta, chi_max),
            convergence_proxy=convergence_margin(A, B, theta, chi_max),
            inputs={
                "n": int(A.shape[0]),
                "a": [float(v) for v in A.ravel()],
                "b": [float(v) for v in B.ravel()],
                "theta": float(theta),
                "chi_max": float(chi_max),
                "mu": float(self.mu),
                "ell": float(self.ell),
                "rel_tol": REL_TOL,
                "m_probe": PROBE_DEPTH,
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
    """Seeded random search for a P0 (see CertificateProblem.search)."""
    return CertificateProblem(A, B, theta, chi_max, mu, ell).search(budget, seed)
