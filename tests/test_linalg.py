import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as hs

from adtstab import ConvergenceError, InputError, evaluate_certificate, linalg
from adtstab.linalg import _norms2, _spectral_radius, check_spd, expm


def _norm2(M):
    return float(_norms2(np.asarray(M, dtype=float)[None])[0])


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


# Relative 1-norm gap of expm to scipy.linalg.expm on the inputs of
# test_expm_stack_equals_per_matrix_scipy; the largest measured is 1.9e-13
# (n = 4, upper triangular).  Against a 50-digit mpmath reference the same
# slices are within 1.1e-14 and scipy's within 1.9e-13, so the gap is mostly
# scipy's error.
SCIPY_RTOL = 5e-13


@pytest.mark.parametrize("n", [2, 4, 8])
def test_expm_stack_equals_per_matrix_scipy(n):
    # e^(t_i A) from one call on a 1-D array of times has the bits of a call
    # per time, also for t = 0 and for diagonal and triangular A, and is
    # within SCIPY_RTOL of scipy on t_i A
    rng = np.random.default_rng(n)
    M = rng.uniform(-2.0, 2.0, (n, n))
    ts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, 12))])
    for A in (M, np.diag(np.diag(M)), np.triu(M), np.tril(M)):
        out = expm(A, ts)
        assert out.shape == (len(ts), n, n)
        for i, t in enumerate(ts):
            assert np.array_equal(out[i], expm(A, t))
            oracle = scipy.linalg.expm(t * A)
            assert np.linalg.norm(out[i] - oracle, 1) <= SCIPY_RTOL * np.linalg.norm(oracle, 1)


def test_expm_diagonal_generator_closed_form():
    # e^(t diag(d)) = diag(e^(t d)); largest measured entry error 5.9e-14
    d = np.array([1.0, -2.0, 0.5, -7.0, 0.0])
    ts = np.linspace(-3.0, 5.0, 161)
    out = expm(np.diag(d), ts)
    exact = np.exp(np.multiply.outer(ts, d))
    assert np.all(np.abs(np.diagonal(out, axis1=1, axis2=2) - exact) <= 2e-13 * exact)
    assert np.all(out[:, ~np.eye(5, dtype=bool)] == 0.0)


@pytest.mark.parametrize("w", [1.0, 3.0, 40.0])
def test_expm_rotation_generator_closed_form(w):
    # e^(t [[0, -w], [w, 0]]) is the rotation by w t; largest measured error
    # 2.4e-16 (1 + |w t|)
    ts = np.linspace(-20.0, 20.0, 801)
    c, s = np.cos(w * ts), np.sin(w * ts)
    exact = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
    err = np.abs(expm(np.array([[0.0, -w], [w, 0.0]]), ts) - exact)
    assert np.all(err <= 1e-15 * (1.0 + np.abs(w * ts))[:, None, None])


def test_expm_non_normal_triangular_closed_form():
    # A = [[-1, 50], [0, -2]]: e^(tA) = [[e^-t, 50 (e^-t - e^-2t)], [0, e^-2t]]
    # up to t = 200; largest measured entry error 2.1e-13 relative
    ts = np.linspace(0.0, 200.0, 2001)
    a, b = np.exp(-ts), np.exp(-2.0 * ts)
    exact = np.stack([a, 50.0 * (a - b), 0.0 * ts, b], axis=1).reshape(-1, 2, 2)
    out = expm(np.array([[-1.0, 50.0], [0.0, -2.0]]), ts)
    assert np.all(np.abs(out - exact) <= 1e-12 * np.abs(exact))


def test_expm_symmetric_stack_matches_eigh():
    # S = Q diag(lam) Q^T gives e^(tS) = Q diag(e^(t lam)) Q^T; largest
    # measured 2-norm error 3.0e-14 relative
    rng = np.random.default_rng(3)
    ts = np.linspace(-2.0, 2.0, 41)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        S = rng.uniform(-2.0, 2.0, (n, n))
        S = S + S.T
        lam, Q = np.linalg.eigh(S)
        for t, X in zip(ts, expm(S, ts)):
            oracle = (Q * np.exp(t * lam)) @ Q.T
            assert np.linalg.norm(X - oracle, 2) <= 1e-13 * np.linalg.norm(oracle, 2)


@settings(max_examples=60, deadline=None)
@given(
    hs.sampled_from([1, 2, 3, 4, 8]),
    hs.integers(0, 2**32 - 1),
    hs.lists(hs.floats(-8.0, 8.0), min_size=1, max_size=300),
    hs.data(),
)
def test_expm_slice_bits_do_not_depend_on_its_stack(n, seed, ts, data):
    # slice i of any stack that contains t_i, whatever the order, the
    # neighbours or the length, has the bits of the call for t_i alone
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1.0, 1.0, (n, n))
    ts = np.array(ts)
    i = data.draw(hs.integers(0, len(ts) - 1))
    alone = expm(M, ts[i])
    assert np.array_equal(expm(M, ts)[i], alone)
    assert np.array_equal(expm(M, ts[i:i + 1])[0], alone)
    order = rng.permutation(len(ts))
    assert np.array_equal(expm(M, ts[order])[np.argmax(order == i)], alone)
    assert np.array_equal(expm(M, np.append(ts[::-1], ts[i]))[-1], alone)


@pytest.mark.parametrize("t", [1.0, -3.5, 1e3, 1e20])
def test_expm_nilpotent_generator_is_exact(t):
    # N^2 = 0, so e^(tA) = I + tA: the Pade step is exact, and so is every
    # squaring that the 2^64 cap on the scaled time asks for (t = 1e20)
    A = np.array([[0.0, 3.0], [0.0, 0.0]])
    assert np.array_equal(expm(A, t), np.eye(2) + t * A)
    A3 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(expm(A3, [0.0, t])[1], np.eye(3) + t * A3)


def test_expm_nilpotent_near_the_float64_limit():
    # I + A is finite although ||A|| ~ 1e308: the scaled time stays below
    # 2^64 and each squaring of [[1, x], [0, 1]] doubles x exactly
    A = np.array([[0.0, 1e308], [0.0, 0.0]])
    assert np.array_equal(expm(A, 1.0), np.eye(2) + A)
    with pytest.raises(ConvergenceError, match=r"overflowed at t = 1e\+300$"):
        expm(np.array([[0.0, 1e10], [0.0, 0.0]]), [1.0, 1e300])


def test_expm_overflow_raises_convergence_error():
    A = np.diag([300.0, -3.0])
    assert np.isfinite(expm(A, 1.0)).all()
    with pytest.raises(ConvergenceError, match=r"overflowed at t = 3$"):
        expm(A, 3.0)
    # e^(300 t) leaves float64 past t ~ 2.37: the first such time is named
    grid = np.linspace(0.0, 3.0, 10)
    with pytest.raises(ConvergenceError, match=r"overflowed at t = 2\.66667$"):
        expm(A, grid)
    # t A itself leaves float64
    with pytest.raises(ConvergenceError, match=r"overflowed at t = 2$"):
        expm(np.array([[0.0, 1e308], [0.0, 0.0]]), 2.0)


def test_expm_stack_shape_checks():
    with pytest.raises(InputError, match="must be square"):
        expm(np.zeros((3, 2, 2)), [0.5, 1.0, 2.0])
    with pytest.raises(InputError, match=r"1-D array of times, got shape \(2, 2\)"):
        expm(np.eye(2), np.ones((2, 2)))
    with pytest.raises(InputError, match="^t must be finite"):
        expm(np.eye(2), [0.5, np.inf])
    with pytest.raises(InputError):
        check_spd(np.zeros((3, 2, 2)))


def test_expm_memo_sees_an_in_place_edit_of_m(ref):
    # the powers are remembered by M's bits, so an edit between two calls
    # gives the result of a fresh call
    M = ref.A.copy()
    before = expm(M, [0.5, 1.0])
    M[0, 1] += 0.5
    after = expm(M, [0.5, 1.0])
    linalg._powers.cache_clear()
    assert after.tobytes() == expm(M.copy(), [0.5, 1.0]).tobytes()
    assert not np.array_equal(after, before)


def test_expm_memo_holds_at_most_16_matrices():
    rng = np.random.default_rng(7)
    for _ in range(20):
        expm(rng.uniform(-1, 1, (3, 3)), 0.5)
    assert linalg._powers.cache_info().currsize == 16


def test_spectral_radius_jordan_block():
    assert _spectral_radius(np.array([[0.5, 1.0], [0.0, 0.5]])) == pytest.approx(0.5, rel=1e-12)


def test_spectral_radius_rotation():
    a = 0.7
    R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    assert _spectral_radius(R) == pytest.approx(1.0, rel=1e-12)


def test_spectral_radius_bounded_by_norm():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        M = rng.uniform(-3, 3, (n, n))
        assert _spectral_radius(M) <= _norm2(M) * (1 + 1e-12)


def test_spectral_norm_diagonal():
    assert _norm2(np.diag([1.0, -4.0, 2.0])) == pytest.approx(4.0, rel=1e-14)


def test_spectral_norm_transpose_invariant():
    rng = np.random.default_rng(17)
    M = rng.uniform(-2, 2, (5, 5))
    assert _norm2(M) == pytest.approx(_norm2(M.T), rel=1e-13)


def test_spectral_norm_reference_commutator(ref):
    C = ref.B @ ref.A - ref.A @ ref.B
    assert np.allclose(C, [[0.02, -0.55], [-0.29, -0.02]], atol=1e-15)
    # 2x2 closed form via the Gram matrix eigenvalues
    G = C.T @ C
    half = 0.5 * np.trace(G)
    disc = np.sqrt(half**2 - np.linalg.det(G))
    assert _norm2(C) == pytest.approx(np.sqrt(half + disc), rel=1e-13)
    assert _norm2(C) == pytest.approx(0.5505, abs=5e-5)


def test_min_eigenvalue_diagonal():
    # check_spd decides on the smallest eigenvalue of the symmetric part
    with pytest.raises(InputError, match="^S is not positive definite$"):
        check_spd(np.diag([3.0, -1.0, 2.0]), "S")
    assert np.array_equal(check_spd(np.diag([3.0, 1e-300, 2.0])), np.diag([3.0, 1e-300, 2.0]))


def test_min_eigenvalue_reference_gram(ref):
    G = ref.B.T @ ref.B
    assert np.allclose(G, [[0.05, -0.13], [-0.13, 2.26]], atol=1e-15)
    half = 0.5 * np.trace(G)
    disc = np.sqrt(half**2 - np.linalg.det(G))
    low = half - disc
    assert low == pytest.approx(0.0424, abs=5e-5)
    # G - c id is positive definite iff c is below G's smallest eigenvalue
    check_spd(G - 0.999 * low * np.eye(2))
    with pytest.raises(InputError, match="not positive definite"):
        check_spd(G - 1.001 * low * np.eye(2))


def test_min_eigenvalue_rejects_asymmetric():
    with pytest.raises(InputError, match="^P0 is not symmetric within tolerance$"):
        check_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))


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
        try:
            check_spd(S)
            spd = True
        except InputError:
            spd = False
        assert spd == chol_ok


def _shifted_a_hurwitz(A, B, mu):
    """The report's shifted_a_hurwitz: A - mu^2 pi^2 / ell^2 id Hurwitz, at ell = pi."""
    return evaluate_certificate(A, B, 1.0, 0.0, mu, np.pi).shifted_a_hurwitz


def test_hurwitz_cases(ref):
    # at mu = 1 and ell = pi the shift is exactly 1
    assert _shifted_a_hurwitz(np.diag([-1.0, -0.5]), ref.B, 1e-3)
    assert not _shifted_a_hurwitz(np.diag([-1.0, 1.0]), ref.B, 1.0)
    assert not _shifted_a_hurwitz(ref.A, ref.B, 1e-3)
    assert not _shifted_a_hurwitz(ref.A, ref.B, 1.0)
    assert _shifted_a_hurwitz(ref.A, ref.B, np.sqrt(1.3))


def test_schur_cases(ref):
    def b_schur(B):
        return evaluate_certificate(ref.A, B, 1.0, 0.0, 1.0, np.pi).b_schur

    assert b_schur(0.5 * np.eye(2))
    assert not b_schur(np.eye(2))
    assert not b_schur(ref.B)
    # characteristic polynomial x^2 - 1.7 x + 0.31 gives the radius exactly
    closed = (1.7 + np.sqrt(1.7**2 - 4 * 0.31)) / 2
    assert _spectral_radius(ref.B) == pytest.approx(closed, rel=1e-12)
    assert _spectral_radius(ref.B) == pytest.approx(1.492, abs=5e-4)


def test_rejects_bad_shapes_and_values():
    with pytest.raises(InputError):
        check_spd(np.zeros((2, 3)))
    with pytest.raises(InputError):
        check_spd(np.zeros((0, 0)))
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
    # near the float64 limit: the symmetrization halves before it adds,
    # so no overflow warning (an error under pytest) and no inf entries
    big = 1e308 * np.eye(2)
    assert np.array_equal(check_spd(big), big)
