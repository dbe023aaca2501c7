import numpy as np
import pytest
import scipy.linalg

from adtstab import ConvergenceError, InputError
from adtstab.linalg import (
    check_spd,
    expm,
    is_hurwitz,
    is_schur,
    min_eigenvalue_sym,
    spectral_norm,
    spectral_radius,
)


def test_expm_zero_matrix_is_identity():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))


def test_expm_zero_time_is_identity():
    rng = np.random.default_rng(0)
    M = rng.uniform(-2, 2, (4, 4))
    assert np.allclose(expm(M, 0.0), np.eye(4), atol=1e-15)


def test_expm_diagonal():
    M = np.diag([1.0, -2.0, 0.5])
    assert np.allclose(expm(M, 2.0), np.diag(np.exp([2.0, -4.0, 1.0])), rtol=1e-14)


def test_expm_matches_eigendecomposition():
    # symmetric inputs admit an exact spectral-form exponential
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        S = rng.uniform(-2, 2, (n, n))
        S = 0.5 * (S + S.T)
        t = float(rng.uniform(0, 2))
        lam, Q = np.linalg.eigh(S)
        oracle = Q @ np.diag(np.exp(t * lam)) @ Q.T
        err = np.linalg.norm(expm(S, t) - oracle, 2) / np.linalg.norm(oracle, 2)
        assert err <= 1e-12


def test_expm_reference_trace(ref):
    # closed-form eigenvalues of the benchmark drift: (-1.8 +- sqrt(17.68)) / 2
    lam1 = (-1.8 + np.sqrt(17.68)) / 2
    lam2 = (-1.8 - np.sqrt(17.68)) / 2
    tr = float(np.trace(expm(ref.A, 1.0)))
    assert tr == pytest.approx(np.exp(lam1) + np.exp(lam2), rel=1e-13)


def test_expm_semigroup_property():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        M = rng.uniform(-2, 2, (n, n))
        s, t = (float(v) for v in rng.uniform(0, 2, 2))
        left = expm(M, s) @ expm(M, t)
        right = expm(M, s + t)
        gap = np.linalg.norm(left - right, 2)
        assert gap <= 1e-10 * (1 + np.linalg.norm(right, 2))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_expm_stack_equals_per_matrix_scipy(n):
    # one stacked call must return the bits of separate scipy calls, also
    # for t = 0 and for the diagonal and triangular slices scipy special-cases
    rng = np.random.default_rng(n)
    M = rng.uniform(-2.0, 2.0, (n, n))
    ts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, 12))])
    stack = np.concatenate(
        [ts[:, None, None] * M, [np.diag(np.diag(M)), np.triu(M), np.tril(M)]]
    )
    out = expm(stack)
    assert out.shape == (len(stack), n, n)
    assert np.array_equal(out, [scipy.linalg.expm(S) for S in stack])
    assert np.array_equal(expm(stack, 0.5), [scipy.linalg.expm(0.5 * S) for S in stack])


def test_expm_overflow_raises_convergence_error():
    A = np.diag([300.0, -3.0])
    assert np.isfinite(expm(A, 1.0)).all()
    with pytest.raises(ConvergenceError, match=r"overflowed at t = 3$"):
        expm(A, 3.0)
    grid = np.linspace(0.0, 3.0, 10)
    with pytest.raises(ConvergenceError, match=r"stack entries 8\.\.9 of 10"):
        expm(grid[:, None, None] * A)


def test_expm_stack_shape_checks():
    with pytest.raises(InputError):
        expm(np.zeros((3, 2, 3)))
    with pytest.raises(InputError):
        expm(np.zeros((2, 2, 2, 2)))
    with pytest.raises(InputError):
        expm(np.array([np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]]))
    with pytest.raises(InputError):
        spectral_norm(np.zeros((3, 2, 2)))


def test_spectral_radius_jordan_block():
    assert spectral_radius(np.array([[0.5, 1.0], [0.0, 0.5]])) == pytest.approx(0.5, rel=1e-12)


def test_spectral_radius_rotation():
    a = 0.7
    R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    assert spectral_radius(R) == pytest.approx(1.0, rel=1e-12)


def test_spectral_radius_bounded_by_norm():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        M = rng.uniform(-3, 3, (n, n))
        assert spectral_radius(M) <= spectral_norm(M) * (1 + 1e-12)


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([1.0, -4.0, 2.0])) == pytest.approx(4.0, rel=1e-14)


def test_spectral_norm_transpose_invariant():
    rng = np.random.default_rng(17)
    M = rng.uniform(-2, 2, (5, 5))
    assert spectral_norm(M) == pytest.approx(spectral_norm(M.T), rel=1e-13)


def test_spectral_norm_reference_commutator(ref):
    C = ref.B @ ref.A - ref.A @ ref.B
    assert np.allclose(C, [[0.02, -0.55], [-0.29, -0.02]], atol=1e-15)
    # 2x2 closed form via the Gram matrix eigenvalues
    G = C.T @ C
    half = 0.5 * np.trace(G)
    disc = np.sqrt(half**2 - np.linalg.det(G))
    assert spectral_norm(C) == pytest.approx(np.sqrt(half + disc), rel=1e-13)
    assert spectral_norm(C) == pytest.approx(0.5505, abs=5e-5)


def test_min_eigenvalue_diagonal():
    assert min_eigenvalue_sym(np.diag([3.0, -1.0, 2.0])) == pytest.approx(-1.0, rel=1e-14)


def test_min_eigenvalue_reference_gram(ref):
    G = ref.B.T @ ref.B
    assert np.allclose(G, [[0.05, -0.13], [-0.13, 2.26]], atol=1e-15)
    half = 0.5 * np.trace(G)
    disc = np.sqrt(half**2 - np.linalg.det(G))
    assert min_eigenvalue_sym(G) == pytest.approx(half - disc, rel=1e-12)
    assert min_eigenvalue_sym(G) == pytest.approx(0.0424, abs=5e-5)


def test_min_eigenvalue_rejects_asymmetric():
    with pytest.raises(InputError):
        min_eigenvalue_sym(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_positive_definite_iff_cholesky_succeeds():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.uniform(-2, 2, n)
        lam += np.where(lam >= 0, 0.05, -0.05)  # keep eigenvalues off the boundary
        S = (Q * lam) @ Q.T
        S = 0.5 * (S + S.T)
        try:
            np.linalg.cholesky(S)
            chol_ok = True
        except np.linalg.LinAlgError:
            chol_ok = False
        assert (min_eigenvalue_sym(S) > 0) == chol_ok


def test_hurwitz_cases(ref):
    assert is_hurwitz(np.diag([-1.0, -0.5]))
    assert not is_hurwitz(np.diag([-1.0, 0.0]))
    assert not is_hurwitz(ref.A)
    assert not is_hurwitz(ref.A - np.eye(2))
    assert is_hurwitz(ref.A - 1.3 * np.eye(2))


def test_schur_cases(ref):
    assert is_schur(0.5 * np.eye(2))
    assert not is_schur(np.eye(2))
    assert not is_schur(ref.B)
    # characteristic polynomial x^2 - 1.7 x + 0.31 gives the radius exactly
    closed = (1.7 + np.sqrt(1.7**2 - 4 * 0.31)) / 2
    assert spectral_radius(ref.B) == pytest.approx(closed, rel=1e-12)
    assert spectral_radius(ref.B) == pytest.approx(1.492, abs=5e-4)


def test_rejects_bad_shapes_and_values():
    with pytest.raises(InputError):
        spectral_norm(np.zeros((2, 3)))
    with pytest.raises(InputError):
        spectral_radius(np.zeros((0, 0)))
    with pytest.raises(InputError):
        expm(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(InputError):
        expm(np.eye(2), float("nan"))


def test_check_spd():
    assert np.array_equal(check_spd(np.eye(3)), np.eye(3))
    with pytest.raises(InputError):
        check_spd(np.diag([1.0, 0.0]))
    with pytest.raises(InputError):
        check_spd(np.diag([1.0, -2.0]))
    with pytest.raises(InputError):
        check_spd(np.array([[1.0, 0.2], [0.0, 1.0]]))
