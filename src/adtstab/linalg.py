"""Dense real matrix kernels used by the rest of the toolkit.

Everything operates on square float64 arrays and is a pure function.
Eigenvalue, singular value and exponential work is delegated to LAPACK via
numpy/scipy; the operator 2-norm is the norm convention throughout.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm as _scipy_expm

from .errors import ConvergenceError, InputError

SYMMETRY_RTOL = 1e-12

__all__ = [
    "as_square_matrix",
    "as_pair",
    "as_vector",
    "check_positive",
    "check_spd",
    "expm",
    "is_hurwitz",
    "is_schur",
    "min_eigenvalue_sym",
    "spectral_norm",
    "spectral_radius",
]


def as_square_matrix(M, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce to a float64 n-by-n array, rejecting non-finite entries.

    With stack true a (k, n, n) stack of such matrices is accepted as well.
    """
    out = np.asarray(M, dtype=float)
    ndims = (2, 3) if stack else (2,)
    if out.ndim not in ndims or out.shape[-1] != out.shape[-2] or out.shape[-1] < 1:
        raise InputError(f"{name} must be square with n >= 1, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise InputError(f"{name} has non-finite entries")
    return out


def as_pair(A, B) -> tuple[np.ndarray, np.ndarray]:
    """Coerce a flow generator A and jump operator B of matching dimension."""
    A = as_square_matrix(A, "A")
    B = as_square_matrix(B, "B")
    if A.shape != B.shape:
        raise InputError(f"A and B must share a dimension, got {A.shape} and {B.shape}")
    return A, B


def check_positive(**values: float) -> None:
    """Reject any named scalar that is not finite and > 0."""
    for name, v in values.items():
        if not (np.isfinite(v) and v > 0.0):
            raise InputError(f"{name} must be finite and > 0")


def as_vector(x, n: int, name: str = "x0") -> np.ndarray:
    """Coerce to a finite float64 vector of length n."""
    out = np.asarray(x, dtype=float).reshape(-1)
    if out.shape != (n,):
        raise InputError(f"{name} must have length {n}, got shape {np.shape(x)}")
    if not np.all(np.isfinite(out)):
        raise InputError(f"{name} has non-finite entries")
    return out


def expm(M, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^(tM); for a (k, n, n) stack M, the stack of them.

    One stacked call returns the same bits as k separate ones.  A result
    that overflows raises ConvergenceError instead of returning inf or NaN.
    """
    M = as_square_matrix(M, stack=True)
    if not np.isfinite(t):
        raise InputError("t must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _scipy_expm(t * M)
    if not np.all(np.isfinite(out)):
        where = ""
        if out.ndim == 3:
            bad = np.flatnonzero(~np.all(np.isfinite(out), axis=(1, 2)))
            where = f" for stack entries {bad[0]}..{bad[-1]} of {len(out)}"
        raise ConvergenceError(f"matrix exponential overflowed at t = {t:g}{where}")
    return out


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus."""
    M = as_square_matrix(M)
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def spectral_norm(M) -> float:
    """Largest singular value (operator 2-norm)."""
    M = as_square_matrix(M)
    return float(np.linalg.norm(M, 2))


def _symmetric_min_eigenvalue(S: np.ndarray, name: str) -> float:
    scale = float(np.max(np.abs(S)))
    if float(np.max(np.abs(S - S.T))) > SYMMETRY_RTOL * scale:
        raise InputError(f"{name} is not symmetric within tolerance")
    return float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])


def min_eigenvalue_sym(S) -> float:
    """Smallest eigenvalue of the symmetrized (S + S^T)/2.

    S must be symmetric up to SYMMETRY_RTOL relative to its largest entry.
    """
    return _symmetric_min_eigenvalue(as_square_matrix(S, "S"), "matrix")


def is_hurwitz(M) -> bool:
    """True iff every eigenvalue has negative real part."""
    M = as_square_matrix(M)
    return bool(np.max(np.real(np.linalg.eigvals(M))) < 0.0)


def is_schur(M) -> bool:
    """True iff the spectral radius is below one."""
    return spectral_radius(M) < 1.0


def check_spd(P, name: str = "P0") -> np.ndarray:
    """Validate a symmetric positive definite matrix and return it."""
    P = as_square_matrix(P, name)
    if _symmetric_min_eigenvalue(P, name) <= 0.0:
        raise InputError(f"{name} is not positive definite")
    return P
