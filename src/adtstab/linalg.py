"""Dense real matrix kernels used by the rest of the toolkit.

Every function is pure and takes square float64 arrays (expm also a 1-D
array of times, all for one matrix).  Eigenvalue, singular value and solve
work goes to LAPACK via numpy; the operator 2-norm is the norm throughout.
The matrix exponential is a stacked scaling and squaring on a degree-13
Pade approximant, built on powers of A shared by every time in the stack.
_bit_keyed is the one rule by which the package remembers a result: by the
bits of its arguments.
"""

from __future__ import annotations

import functools
import inspect
import math
import struct

import numpy as np

from .errors import ConvergenceError, InputError

SYMMETRY_RTOL = 1e-12

# Pade-13 coefficients b_q and theta_13 (Higham, SIAM J. Matrix Anal. Appl.
# 26(4), 2005).  A slice's weights b_q c^q / b_0 come from one running
# product of c b_q / b_(q-1).  Row p of _PADE_IDX picks the weights of the
# shared power N^6, N^4 or N^2 in U's outer and inner sum, then V's; the
# inner sums add the q = 1 and q = 0 weights times the identity.
_PADE_B = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
])
_PADE_RATIO = _PADE_B[1:] / _PADE_B[:-1]
_PADE_IDX = np.array([[13, 7, 12, 6], [11, 5, 10, 4], [9, 3, 8, 2]])
THETA_13 = 5.371920351148152

__all__ = [
    "as_square_matrix",
    "as_pair",
    "as_vector",
    "check_positive",
    "check_spd",
    "expm",
]


def _bit_keyed(maxsize: int, arrays: int):
    """Remember f(*arrays, *scalars) in an lru_cache of maxsize slots, keyed
    on the bytes and shape of each of its first `arrays` (1 or 2) arguments,
    float64 ndarrays, and on the float64 bits of the rest, packed in one
    struct.pack.

    An in-place edit of an array, or a -0.0 against a 0.0, takes a new slot.
    f receives read-only views of the key's own bytes, so no caller array is
    shared, and the scalars as floats.  The wrapper has the cache's
    cache_clear and cache_info.
    """

    def decorate(f):
        scalars = struct.Struct(f"{len(inspect.signature(f).parameters) - arrays}d")
        pack = scalars.pack

        @functools.lru_cache(maxsize=maxsize)
        def remembered(*key):
            views = [np.frombuffer(key[i]).reshape(key[i + 1]) for i in range(0, 2 * arrays, 2)]
            return f(*views, *scalars.unpack(key[-1]))

        # one key expression per arity: a loop over the arrays costs a memo
        # hit about twice as much
        if arrays == 1:
            def call(M, *args):
                return remembered(M.tobytes(), M.shape, pack(*args))
        else:
            def call(A, B, *args):
                return remembered(A.tobytes(), A.shape, B.tobytes(), B.shape, pack(*args))

        functools.update_wrapper(call, f, updated=())
        call.cache_clear, call.cache_info = remembered.cache_clear, remembered.cache_info
        return call

    return decorate


def as_square_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a float64 n-by-n array, rejecting non-finite entries."""
    out = np.asarray(M, dtype=float)
    if out.ndim != 2 or out.shape[0] != out.shape[1] or out.shape[0] < 1:
        raise InputError(f"{name} must be square with n >= 1, got shape {out.shape}")
    if not np.isfinite(out).all():
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


def _diffusive_rate(mu: float, ell: float, j: int = 1) -> float:
    """Diffusive shift mu^2 (j pi / ell)^2 of sine mode j in float64, inf where it
    overflows; C pow squares, as numpy's scalar ** does, without np.errstate's cost."""
    try:
        return (float(mu) * j * math.pi / float(ell)) ** 2
    except OverflowError:
        return math.inf


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


@_bit_keyed(maxsize=16, arrays=1)
def _powers(M: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float]:
    """What expm reads of the coerced M: its scale max |M_ij|, N = M / scale
    (M itself for a zero M), the read-only stack N^6, N^4, N^2 and the
    squaring rate max(||N^4||_1^(1/4), ||N^6||_1^(1/6)) / theta_13 (at least
    2^-64); 16 slots of four n-by-n matrices.
    """
    scale = float(np.abs(M).max())
    N = M / scale if scale else M
    P = np.empty((3, *M.shape))  # N^6, N^4, N^2
    np.matmul(N, N, out=P[2])
    np.matmul(P[2], P[2], out=P[1])
    np.matmul(P[1], P[2], out=P[0])
    d6, d4 = np.abs(P[:2]).sum(axis=1).max(axis=1).tolist()
    N.setflags(write=False)
    P.setflags(write=False)
    return scale, N, P, max(max(d4**0.25, d6 ** (1 / 6)) / THETA_13, 2.0**-64)


def expm(M, t: float | np.ndarray = 1.0) -> np.ndarray:
    """Matrix exponential e^(tM); for a 1-D array of times, the stack of e^(t_i M).

    Scaling and squaring on the degree-13 Pade approximant, with every
    slice built from the powers N^2, N^4, N^6 of N = M / max |M_ij|, which
    _powers forms once per matrix and remembers in a 16-slot memo.  Slice i
    is squared s_i >= 0 times, the binary exponent of
    |t_i| max |M_ij| max(||N^4||_1^(1/4), ||N^6||_1^(1/6)) / theta_13
    (the bound of Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31(3),
    2009), or more where needed to keep its scaled time below 2^64.  Every
    per-slice step is elementwise or one LAPACK/BLAS call per slice, so a
    slice has the bits of a call for its time alone, whatever the other
    times of its stack.  A product t M or a result that leaves float64
    raises ConvergenceError naming the first such t.
    """
    M = as_square_matrix(M)
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise InputError(f"t must be finite, one time or a 1-D array of times, got shape {t.shape}")
    ts, n = t.reshape(-1), len(M)
    scale, N, P, rate = _powers(M)
    tmax = float(np.abs(ts).max(initial=0.0)) * scale  # nan for a nan time
    if not tmax < np.inf:
        _refuse(M, t, scale)
    # slice i is squared s_i times, so that its scaled time c = t scale / 2^s
    # has |c| max(d4, d6) < theta_13 and |c| < 2^64; frexp gives the exponents
    c, squarings = ts * scale, math.frexp(tmax * rate)[1]
    if squarings > 0:
        s = np.maximum(np.frexp(c * rate)[1], 0)
        c = np.ldexp(c, -s)
    w = np.ones((len(ts), 14))  # b_q c^q
    np.multiply.outer(c, _PADE_RATIO, out=w[:, 1:])
    np.multiply.accumulate(w, axis=1, out=w)
    # elementwise, in a fixed order: a BLAS product here could change a
    # slice's last bits with the number of slices
    W, P2 = w[:, _PADE_IDX, None], P.reshape(3, 1, n * n)
    G = W[:, 0] * P2[0]
    G += W[:, 1] * P2[1]
    G += W[:, 2] * P2[2]
    G[:, 1::2, :: n + 1] += w[:, 1::-1, None]
    G = G.reshape(-1, 4, n, n)
    Y = P[0] @ G[:, ::2] + G[:, 1::2]  # N^6 times the outer sums, plus the inner
    U = N @ Y[:, 0]
    X = np.linalg.solve(Y[:, 1] - U, Y[:, 1] + U)
    if squarings > 0:
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(squarings):
                X = np.where((s > j)[:, None, None], X @ X, X)
    if not np.isfinite(X).all():
        first = np.argmin(np.isfinite(X).all(axis=(1, 2)))
        raise ConvergenceError(f"matrix exponential overflowed at t = {ts[first]:g}")
    return X.reshape(t.shape + (n, n))


def _refuse(M, t, scale):
    """Raise for a time that is not finite, else name the first t whose
    t M or e^(tM) leaves float64."""
    if not np.isfinite(t).all():
        raise InputError(f"t must be finite, one time or a 1-D array of times, got shape {t.shape}")
    ts = t.reshape(-1)
    with np.errstate(over="ignore"):
        first = int(np.argmin(np.abs(ts) * scale < np.inf))
    expm(M, ts[:first])  # raises for an earlier result that overflows
    raise ConvergenceError(f"matrix exponential overflowed at t = {ts[first]:g}")


def _spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def check_spd(P, name: str = "P0") -> np.ndarray:
    """Validate a symmetric positive definite matrix and return it.

    P must be symmetric up to SYMMETRY_RTOL relative to its largest entry,
    and the smallest eigenvalue of (P + P^T)/2 must be positive.
    """
    P = as_square_matrix(P, name)
    if float(np.max(np.abs(P - P.T))) > SYMMETRY_RTOL * float(np.max(np.abs(P))):
        raise InputError(f"{name} is not symmetric within tolerance")
    # halves first: a sum near the float64 limit overflows
    if np.linalg.eigvalsh(0.5 * P + 0.5 * P.T)[0] <= 0.0:
        raise InputError(f"{name} is not positive definite")
    return P
