import numpy as np
import pytest
import scipy.linalg

import adtstab as st
from adtstab.certify import NORM_CONVENTION
from adtstab.linalg import min_eigenvalue_sym, spectral_norm


def _margin(P, ref, omega):
    lhs = st.inequality_lhs(P, ref.A, ref.B, ref.theta, ref.mu, ref.ell, omega)
    return min_eigenvalue_sym(P - lhs)


def test_monodromy_zero_generator(ref):
    assert np.allclose(st.monodromy(np.zeros((2, 2)), ref.B, 1.0), ref.B, atol=1e-15)


def test_monodromy_reference_values(ref):
    phi = st.monodromy(ref.A, ref.B, ref.theta)
    assert np.allclose(phi, [[0.673, 0.021], [-0.216, 0.069]], atol=1e-3)
    # det(B e^(theta A)) = det(B) exp(theta tr A)
    assert np.linalg.det(phi) == pytest.approx(0.31 * np.exp(-1.8), rel=1e-12)
    assert st.spectral_radius(phi) == pytest.approx(0.6655245097612014, rel=1e-12)


def test_monodromy_validation(ref):
    with pytest.raises(st.InputError):
        st.monodromy(ref.A, ref.B, 0.0)
    with pytest.raises(st.InputError):
        st.monodromy(ref.A, np.eye(3), 1.0)


def test_inequality_lhs_zero_omega_is_discounted_stein_map(ref):
    P = np.array([[2.0, 0.3], [0.3, 1.0]])
    lhs = st.inequality_lhs(P, ref.A, ref.B, ref.theta, ref.mu, ref.ell, 0.0)
    phi = st.monodromy(ref.A, ref.B, ref.theta)
    d = np.exp(-2.0 * (np.pi * ref.mu / ref.ell) ** 2 * ref.theta)
    assert np.allclose(lhs, d * phi.T @ P @ phi, rtol=1e-13, atol=1e-16)


def test_inequality_lhs_symmetric(ref):
    rng = np.random.default_rng(23)
    L = rng.standard_normal((2, 2))
    P = L.T @ L + 0.1 * np.eye(2)
    lhs = st.inequality_lhs(P, ref.A, ref.B, ref.theta, ref.mu, ref.ell, 0.3)
    assert np.allclose(lhs, lhs.T, atol=1e-14)


def test_inequality_lhs_rejects_bad_p0(ref):
    with pytest.raises(st.InputError):
        st.inequality_lhs(np.diag([1.0, -1.0]), ref.A, ref.B, ref.theta, ref.mu, ref.ell, 0.1)
    with pytest.raises(st.InputError):
        st.inequality_lhs(np.array([[1.0, 0.4], [0.0, 1.0]]), ref.A, ref.B, ref.theta, ref.mu, ref.ell, 0.1)
    with pytest.raises(st.InputError):
        st.inequality_lhs(np.eye(2), ref.A, ref.B, ref.theta, ref.mu, ref.ell, -0.1)


def test_margin_scales_linearly_in_p0(ref):
    rng = np.random.default_rng(2)
    L = rng.standard_normal((2, 2))
    P = L.T @ L + 0.2 * np.eye(2)
    base = _margin(P, ref, 0.17)
    for c in (0.5, 3.0):
        assert _margin(c * P, ref, 0.17) == pytest.approx(c * base, rel=1e-10)


def test_margin_monotone_in_omega(ref):
    margins = [_margin(np.eye(2), ref, w) for w in (0.0, 0.05, 0.1, 0.2, 0.4)]
    assert all(a >= b - 1e-15 for a, b in zip(margins, margins[1:]))


def test_feasible_margin_implies_spectral_condition():
    # a positive margin at omega = 0 forces the discounted monodromy to be
    # a contraction in the P-weighted norm, hence radius below threshold
    rng = np.random.default_rng(40)
    hits = 0
    for _ in range(25):
        n = int(rng.integers(2, 5))
        A = rng.uniform(-1.0, 1.0, (n, n))
        B = rng.uniform(-0.6, 0.6, (n, n))
        rep = st.evaluate_certificate(A, B, 1.0, 0.0, 1.0, float(np.pi))
        if rep.margin > 0:
            hits += 1
            assert rep.spectral_radius < rep.threshold
            assert rep.certified
    assert hits >= 5


def test_reference_certificate_frozen(ref):
    rep = st.evaluate_certificate(ref.A, ref.B, ref.theta, ref.chi_max, ref.mu, ref.ell)
    assert rep.certified
    assert rep.threshold == pytest.approx(np.e, rel=1e-15)
    assert rep.spectral_radius == pytest.approx(0.6655245097612014, rel=1e-10)
    assert rep.omega == pytest.approx(0.17262405833238975, rel=1e-10)
    assert rep.margin == pytest.approx(0.10848262780624991, rel=1e-8)
    assert not rep.shifted_a_hurwitz
    assert not rep.b_schur
    assert rep.semigroup_sup == pytest.approx(1.2748844218798012, rel=1e-8)
    assert rep.lift_amplification == pytest.approx(0.8957625708922304, rel=1e-10)
    assert rep.convergence_proxy == pytest.approx(0.10556075063766152, rel=1e-8)
    assert rep.convergence_proxy < 1.0


@pytest.mark.parametrize("n", [2, 4, 8])
def test_semigroup_sup_equals_per_point_scipy_loop(ref, n):
    # oracle: the documented grid, one scipy expm and one 2-norm per point
    if n == 2:
        A, B, theta, chi_max = ref.A, ref.B, ref.theta, ref.chi_max
    else:
        rng = np.random.default_rng(n)
        A, B = rng.uniform(-1.0, 1.0, (2, n, n))
        theta, chi_max = 0.8, 0.3
    rep = st.evaluate_certificate(A, B, theta, chi_max, ref.mu, ref.ell)
    shifted = A - (np.pi * ref.mu / ref.ell) ** 2 * np.eye(n)
    grid = np.linspace(0.0, theta + 2.0 * chi_max, 1000)
    oracle = max(np.linalg.norm(scipy.linalg.expm(t * shifted), 2) for t in grid)
    assert rep.semigroup_sup == oracle


def test_semigroup_overflow_raises_convergence_error():
    # e^(300 t) overflows float64 for t > ~2.37, inside [0, theta + 2 chi_max]
    A, B = np.diag([300.0, -3.0]), np.diag([1e-300, 1.0])
    with pytest.raises(st.ConvergenceError, match="matrix exponential overflowed"):
        st.evaluate_certificate(A, B, 1.0, 0.99, 1.0, np.pi)


def test_report_document_layout(ref):
    rep = st.evaluate_certificate(ref.A, ref.B, ref.theta, ref.chi_max, ref.mu, ref.ell)
    doc = rep.to_doc()
    assert doc["certified"] is True
    assert doc["n"] == 2
    assert len(doc["phi"]) == 4
    assert doc["p0"] == [1.0, 0.0, 0.0, 1.0]
    assert doc["norm_convention"] == NORM_CONVENTION
    assert doc["diagnostics"]["shifted_a_hurwitz"] is False
    assert doc["inputs"]["theta"] == ref.theta
    assert doc["inputs"]["chi_max"] == ref.chi_max


def test_certification_boundary_regression(ref):
    ok = st.evaluate_certificate(ref.A, ref.B, ref.theta, 0.09, ref.mu, ref.ell)
    bad = st.evaluate_certificate(ref.A, ref.B, ref.theta, 0.12, ref.mu, ref.ell)
    assert ok.certified and ok.margin > 0
    assert not bad.certified and bad.margin < 0


def test_large_jitter_not_certified(ref):
    rep = st.evaluate_certificate(ref.A, ref.B, ref.theta, 0.45, ref.mu, ref.ell)
    assert not rep.certified
    assert rep.margin < 0


def test_zero_jump_certifies_trivially(ref):
    rep = st.evaluate_certificate(
        ref.A, np.zeros((2, 2)), ref.theta, ref.chi_max, ref.mu, ref.ell
    )
    assert rep.certified
    assert rep.omega == 0.0
    assert rep.spectral_radius == 0.0
    assert rep.margin == pytest.approx(1.0, rel=1e-12)


def test_certificate_validation(ref):
    with pytest.raises(st.InputError):
        st.evaluate_certificate(ref.A, ref.B, ref.theta, ref.theta, ref.mu, ref.ell)
    with pytest.raises(st.InputError):
        st.evaluate_certificate(ref.A, ref.B, ref.theta, -0.1, ref.mu, ref.ell)
    with pytest.raises(st.InputError):
        st.evaluate_certificate(ref.A, ref.B, ref.theta, ref.chi_max, 0.0, ref.ell)
    with pytest.raises(st.InputError):
        st.evaluate_certificate(ref.A, ref.B, ref.theta, ref.chi_max, ref.mu, -1.0)


def test_search_p0_prefers_identity(ref):
    found = st.search_p0(
        ref.A, ref.B, ref.theta, ref.chi_max, ref.mu, ref.ell, budget=8, seed=0
    )
    assert np.array_equal(found, np.eye(2))


def test_search_p0_finds_nonidentity_candidate():
    # strong shear: the identity fails although the radius condition holds
    A = np.array([[0.0, 12.0], [0.0, 0.0]])
    B = np.diag([0.3, 0.3])
    ell = float(np.pi)
    rep_id = st.evaluate_certificate(A, B, 1.0, 0.0, 1.0, ell)
    assert rep_id.spectral_radius < rep_id.threshold
    assert rep_id.margin < 0
    found = st.search_p0(A, B, 1.0, 0.0, 1.0, ell, budget=32, seed=0)
    assert found is not None
    assert not np.allclose(found, np.eye(2))
    assert spectral_norm(found) == pytest.approx(1.0, rel=1e-12)
    omega = st.correction_bound(A, B, 0.0)
    lhs = st.inequality_lhs(found, A, B, 1.0, 1.0, ell, omega)
    assert min_eigenvalue_sym(found - lhs) > 0
    rep = st.evaluate_certificate(A, B, 1.0, 0.0, 1.0, ell, p0=found)
    assert rep.certified


def test_search_p0_returns_none_when_infeasible():
    # an expanding jump with a tiny dwell defeats every candidate
    A = np.zeros((2, 2))
    B = np.diag([3.0, 3.0])
    found = st.search_p0(A, B, 0.01, 0.0, 1.0, float(np.pi), budget=16, seed=1)
    assert found is None


def test_search_p0_deterministic():
    A = np.array([[0.0, 12.0], [0.0, 0.0]])
    B = np.diag([0.3, 0.3])
    f1 = st.search_p0(A, B, 1.0, 0.0, 1.0, float(np.pi), budget=32, seed=7)
    f2 = st.search_p0(A, B, 1.0, 0.0, 1.0, float(np.pi), budget=32, seed=7)
    if f1 is None:
        assert f2 is None
    else:
        assert np.array_equal(f1, f2)


def test_search_p0_budget_validation(ref):
    with pytest.raises(st.InputError):
        st.search_p0(ref.A, ref.B, ref.theta, ref.chi_max, ref.mu, ref.ell, budget=0)


def test_commutator_overflow_raises_convergence_error(ref):
    # ||A|| * 2 chi_max ~ 100 overflows the recurrence behind omega
    A = np.array([[50.0, 40.0], [-30.0, -60.0]])
    with pytest.raises(st.ConvergenceError, match="correction bound: series term overflowed"):
        st.evaluate_certificate(A, ref.B, 1.0, 0.9, ref.mu, ref.ell)


def test_report_inputs_carry_fixed_series_settings(ref):
    doc = st.evaluate_certificate(ref.A, ref.B, ref.theta, ref.chi_max, ref.mu, ref.ell).to_doc()
    assert doc["inputs"]["rel_tol"] == st.commutators.REL_TOL == 1e-12
    assert doc["inputs"]["m_probe"] == st.commutators.PROBE_DEPTH == 40
