"""Dense real matrix kernels used by the rest of the toolkit.

Every function is pure and takes square float64 arrays (expm also a 1-D
array of times, all for one matrix).  Eigenvalue, singular value and exponential
work goes to LAPACK via numpy/scipy; the operator 2-norm is the norm throughout.
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


def as_square_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a float64 n-by-n array, rejecting non-finite entries."""
    out = np.asarray(M, dtype=float)
    if out.ndim != 2 or out.shape[0] != out.shape[1] or out.shape[0] < 1:
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


def _norms2(stack: np.ndarray) -> np.ndarray:
    """Operator 2-norms of a (k, n, n) stack; inf for a matrix with a
    non-finite entry.

    The 2-norm is the largest singular value, which LAPACK returns first,
    so this has the bits of np.linalg.norm(M, 2) without its overhead.  A
    batched call has the bits of one call per matrix.
    """
    finite = np.all(np.isfinite(stack), axis=(1, 2))
    if finite.all():
        return np.linalg.svd(stack, compute_uv=False)[:, 0]
    norms = np.full(len(stack), np.inf)
    norms[finite] = np.linalg.svd(stack[finite], compute_uv=False)[:, 0]
    return norms


def expm(M, t: float | np.ndarray = 1.0) -> np.ndarray:
    """Matrix exponential e^(tM); for a 1-D array of times, the stack of e^(t_i M).

    Each slice has the bits of a call for its time alone.  A product t M or
    a result that overflows raises ConvergenceError naming the first such t.
    """
    M = as_square_matrix(M)
    t = np.asarray(t, dtype=float)
    if t.ndim > 1 or not np.all(np.isfinite(t)):
        raise InputError(f"t must be finite, one time or a 1-D array of times, got shape {t.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _scipy_expm(np.multiply.outer(t, M))
    finite = np.all(np.isfinite(out), axis=(-2, -1)).reshape(-1)
    if not finite.all():
        first = t.reshape(-1)[np.argmin(finite)]
        raise ConvergenceError(f"matrix exponential overflowed at t = {first:g}")
    return out


def _spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus."""
    return _spectral_radius(as_square_matrix(M))


def spectral_norm(M) -> float:
    """Largest singular value (operator 2-norm), from _norms2."""
    return float(_norms2(as_square_matrix(M)[None])[0])


def _symmetric_min_eigenvalue(S: np.ndarray, name: str) -> float:
    scale = float(np.max(np.abs(S)))
    if float(np.max(np.abs(S - S.T))) > SYMMETRY_RTOL * scale:
        raise InputError(f"{name} is not symmetric within tolerance")
    # halves first: a sum near the float64 limit overflows
    return float(np.linalg.eigvalsh(0.5 * S + 0.5 * S.T)[0])


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
