"""Correctness oracles that share no code with adtstab.

Each check recomputes a result from its definition with numpy/scipy and
raises OracleError when the program's output disagrees.  They run outside
the timed region.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

RESIDUAL_TOL = 1e-8
OMEGA_DEPTH = 100
OMEGA_RTOL = 1e-9
MARGIN_RTOL = 1e-8
STATE_RTOL = 1e-9


class OracleError(AssertionError):
    """An output disagrees with its independent recomputation."""


def _norm2(M) -> float:
    return float(sla.svdvals(M)[0])


def omega(A, B, chi_max: float) -> float:
    """sum_{m=1..OMEGA_DEPTH} (2 chi_max)^m / m! * ||{B, A^m}||, fixed depth."""
    s = 2.0 * chi_max
    C = np.array(B, dtype=float)
    total = 0.0
    last = 0.0
    for m in range(1, OMEGA_DEPTH + 1):
        C = C @ A - A @ C
        last = math.exp(m * math.log(s) - math.lgamma(m + 1)) * _norm2(C) if s > 0 else 0.0
        total += last
    if not math.isfinite(total) or last > 1e-17 * max(total, 1e-300):
        raise OracleError(f"omega oracle not converged at depth {OMEGA_DEPTH}")
    return total


def certificate(A, B, theta, chi_max, mu, ell, p0, certified, margin, radius, omega_value):
    """Recheck a certificate verdict from its definition.

    Recomputes omega, the monodromy's spectral radius and the margin of the
    discounted jump inequality for the P0 the program used.  A certified
    verdict must hold in the recomputation; an uncertified one must not be
    certified there with room to spare.
    """
    A, B, P = (np.asarray(M, dtype=float) for M in (A, B, p0))
    if float(sla.eigvalsh(0.5 * (P + P.T))[0]) <= 0.0:
        raise OracleError("P0 is not positive definite")
    w = omega(A, B, chi_max)
    if abs(w - omega_value) > OMEGA_RTOL * (1.0 + w):
        raise OracleError(f"omega {omega_value!r} != oracle {w!r}")
    E = sla.expm(theta * A)
    phi = B @ E
    rho = float(np.max(np.abs(sla.eigvals(phi))))
    rate = (math.pi * mu / ell) ** 2
    threshold = math.exp(rate * theta)
    d = math.exp(-2.0 * rate * theta)
    mixed = max(_norm2(B @ P), _norm2(B.T @ P))
    lhs = d * (phi.T @ P @ phi) + d * (2.0 * w * mixed + w * w * _norm2(P)) * (E.T @ E)
    gap = P - lhs
    m = float(sla.eigvalsh(0.5 * (gap + gap.T))[0])
    tol = MARGIN_RTOL * (1.0 + _norm2(P) + _norm2(lhs))
    if abs(m - margin) > tol:
        raise OracleError(f"margin {margin!r} != oracle {m!r}")
    if abs(rho - radius) > 1e-9 * (1.0 + rho):
        raise OracleError(f"spectral radius {radius!r} != oracle {rho!r}")
    if certified and not (rho < threshold and m > 0.0):
        raise OracleError(f"certified, but oracle radius {rho:.6g} / margin {m:.6g} refute it")
    if not certified and rho < threshold - tol and m > tol:
        raise OracleError(f"not certified, but oracle margin {m:.6g} certifies")


def schedule(chis, tau0, theta, chi_max, variant, count):
    """Admissibility of a schedule drawn by the program."""
    chis = np.asarray(chis, dtype=float)
    if len(chis) != count:
        raise OracleError(f"schedule has {len(chis)} instants, asked for {count}")
    if chis[0] != 0.0:
        raise OracleError(f"chi_0 = {chis[0]!r}")
    lo = -chi_max if variant == "adt" else 0.0
    if np.any(chis < lo) or np.any(chis > chi_max):
        raise OracleError("deviation outside its window")
    taus = tau0 + theta * np.arange(len(chis)) + chis
    if np.any(np.diff(taus) <= 0.0):
        raise OracleError("instants not strictly increasing")
    return taus


def residual(value: float) -> None:
    if not (math.isfinite(value) and value <= RESIDUAL_TOL):
        raise OracleError(f"matching residual {value!r} above {RESIDUAL_TOL:g}")


def parabolic_post_jumps(A, B, rates, init_modes, taus, t_end, jump_times, jump_states):
    """Post-jump mode states against direct propagation, one expm per segment.

    jump_states[k, i] is the program's state of mode index i after the k-th
    jump; rates[i] is that mode's diffusive shift and init_modes[i] its
    initial coefficients.
    """
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    expected_times = [t for t in taus[1:] if t <= t_end]
    if len(expected_times) != len(jump_times) or not np.array_equal(expected_times, jump_times):
        raise OracleError("post-jump rows do not sit at the schedule's instants")
    eye = np.eye(A.shape[0])
    for i, rate in enumerate(rates):
        x = np.asarray(init_modes[i], dtype=float)
        prev = taus[0]
        for k, tau in enumerate(expected_times):
            x = B @ (sla.expm((A - rate * eye) * (tau - prev)) @ x)
            prev = tau
            err = float(np.linalg.norm(jump_states[k, i] - x))
            if err > STATE_RTOL * float(np.linalg.norm(x)):
                raise OracleError(
                    f"mode {i + 1} after jump {k + 1}: error {err:.3e} vs norm "
                    f"{np.linalg.norm(x):.3e}"
                )
