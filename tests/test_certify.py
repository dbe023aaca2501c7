import math
import warnings

import numpy as np
import pytest
import scipy.linalg

import adtstab as st
from adtstab import commutators, linalg
from adtstab.certify import NORM_CONVENTION


def _problem(ref, chi_max):
    return st.CertificateProblem(ref.A, ref.B, ref.theta, chi_max, ref.mu, ref.ell)


def test_monodromy_zero_generator(ref):
    assert np.allclose(st.monodromy(np.zeros((2, 2)), ref.B, 1.0), ref.B, atol=1e-15)


def test_monodromy_reference_values(ref):
    phi = st.monodromy(ref.A, ref.B, ref.theta)
    assert np.allclose(phi, [[0.673, 0.021], [-0.216, 0.069]], atol=1e-3)
    # det(B e^(theta A)) = det(B) exp(theta tr A)
    assert np.linalg.det(phi) == pytest.approx(0.31 * np.exp(-1.8), rel=1e-12)
    assert np.max(np.abs(np.linalg.eigvals(phi))) == pytest.approx(0.6655245097612014, rel=1e-12)


def test_monodromy_validation(ref):
    with pytest.raises(st.InputError):
        st.monodromy(ref.A, ref.B, 0.0)
    with pytest.raises(st.InputError):
        st.monodromy(ref.A, np.eye(3), 1.0)


def test_inequality_lhs_zero_omega_is_discounted_stein_map(ref):
    P = np.array([[2.0, 0.3], [0.3, 1.0]])
    problem = _problem(ref, 0.0)  # omega = 0 at chi_max = 0
    assert problem.omega == 0.0
    lhs = problem.lhs(P)
    phi = st.monodromy(ref.A, ref.B, ref.theta)
    d = np.exp(-2.0 * (np.pi * ref.mu / ref.ell) ** 2 * ref.theta)
    assert np.allclose(lhs, d * phi.T @ P @ phi, rtol=1e-13, atol=1e-16)


def test_inequality_lhs_symmetric(ref):
    rng = np.random.default_rng(23)
    L = rng.standard_normal((2, 2))
    P = L.T @ L + 0.1 * np.eye(2)
    lhs = _problem(ref, ref.chi_max).lhs(P)
    assert np.allclose(lhs, lhs.T, atol=1e-14)


def test_margin_scales_linearly_in_p0(ref):
    rng = np.random.default_rng(2)
    L = rng.standard_normal((2, 2))
    P = L.T @ L + 0.2 * np.eye(2)
    problem = _problem(ref, ref.chi_max)
    base = problem.margin(P)
    for c in (0.5, 3.0):
        assert problem.margin(c * P) == pytest.approx(c * base, rel=1e-10)


def test_margin_monotone_in_omega(ref):
    problems = [_problem(ref, chi) for chi in (0.0, 0.02, 0.05, 0.1, 0.2, 0.4)]
    omegas = [problem.omega for problem in problems]
    assert omegas[0] == 0.0 and all(a < b for a, b in zip(omegas, omegas[1:]))
    margins = [problem.margin(np.eye(2)) for problem in problems]
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
            assert np.log(rep.spectral_radius) < rep.log_threshold
            assert rep.certified
    assert hits >= 5


def test_reference_certificate_frozen(ref):
    rep = st.evaluate_certificate(ref.A, ref.B, ref.theta, ref.chi_max, ref.mu, ref.ell)
    assert rep.certified
    assert rep.log_threshold == pytest.approx(1.0, rel=1e-15)
    assert rep.spectral_radius == pytest.approx(0.6655245097612014, rel=1e-10)
    assert rep.omega == pytest.approx(0.17262405833238975, rel=1e-10)
    assert rep.margin == pytest.approx(0.10848262780624991, rel=1e-8)
    assert not rep.shifted_a_hurwitz
    assert not rep.b_schur
    assert rep.lift_amplification == pytest.approx(0.8957625708922304, rel=1e-10)


def test_semigroup_overflow_raises_convergence_error():
    # e^(800 theta) overflows float64 at theta = 1
    A, B = np.diag([800.0, -3.0]), np.diag([1e-300, 1.0])
    with pytest.raises(st.ConvergenceError, match="matrix exponential overflowed"):
        st.evaluate_certificate(A, B, 1.0, 0.1, 1.0, np.pi)


def test_shifted_hurwitz_at_a_rate_near_the_float64_limit():
    # rate = pi^2 mu^2 / ell^2 ~ 1e308, so A - rate id would leave float64;
    # every eigenvalue of A lies left of the rate
    A, B = np.diag([-1.5e308, -1.0]), np.diag([0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = st.evaluate_certificate(A, B, 1.0, 0.1, math.sqrt(1e308) / math.pi, 1.0)
    assert rep.shifted_a_hurwitz
    assert rep.omega == 0.0


def test_fast_flow_with_tiny_jump_certifies():
    # e^(300 t) overflows only for t > ~2.37, beyond theta = 1: nothing the
    # verdict reads leaves float64, so the point is decided
    A, B, theta, ell = np.diag([300.0, -3.0]), np.diag([1e-300, 1.0]), 1.0, float(np.pi)
    rep = st.evaluate_certificate(A, B, theta, 0.99, 1.0, ell)
    # oracle: per-matrix scipy; the pair commutes, so omega = 0
    phi = B @ scipy.linalg.expm(theta * A)
    radius = np.max(np.abs(scipy.linalg.eigvals(phi)))
    d = np.exp(-2.0 * (np.pi / ell) ** 2 * theta)
    margin = np.linalg.eigvalsh(np.eye(2) - d * phi.T @ phi)[0]
    assert rep.omega == 0.0
    assert rep.spectral_radius == pytest.approx(radius, rel=1e-12)
    assert rep.margin == pytest.approx(margin, rel=1e-12)
    assert np.log(radius) < (np.pi / ell) ** 2 * theta and margin > 0.0
    assert rep.certified


def test_strong_diffusion_decided_in_log_space(ref):
    # rate * theta = 100 pi^2 ~ 987: exp of it leaves float64, the discount is 0
    rep = st.evaluate_certificate(ref.A, ref.B, 1.0, 0.1, 10.0, 1.0)
    assert rep.certified
    assert rep.log_threshold == pytest.approx(100.0 * np.pi**2, rel=1e-15)
    assert rep.margin == 1.0
    assert rep.to_doc()["log_threshold"] == rep.log_threshold


def test_rate_overflow_raises_convergence_error(ref):
    # (pi mu / ell)^2 leaves float64 at mu = 1e160
    with pytest.raises(st.ConvergenceError, match="^diffusive rate times theta overflowed"):
        st.evaluate_certificate(ref.A, ref.B, 1.0, 0.1, 1e160, 1.0)
    with pytest.raises(st.ConvergenceError, match="^diffusive rate times theta overflowed"):
        st.search_p0(ref.A, ref.B, 1.0, 0.1, 1e160, 1.0)


def test_monodromy_overflow_raises_convergence_error():
    # e^300 ~ 1.9e130 is finite, but 1e200 times it is not; the pair
    # commutes, so omega = 0 and only Phi overflows
    A, B = np.diag([300.0, -3.0]), np.diag([1e200, 1.0])
    with pytest.raises(st.ConvergenceError, match=r"^monodromy B e\^\(theta A\) overflowed"):
        st.monodromy(A, B, 1.0)
    with pytest.raises(st.ConvergenceError, match=r"^monodromy B e\^\(theta A\) overflowed"):
        st.evaluate_certificate(A, B, 1.0, 0.1, 1.0, np.pi)


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
    # the memo keys on raw bits and shapes; the problem it builds checks A and B
    point = (ref.theta, ref.chi_max, ref.mu, ref.ell)
    for A, B, message in (
        (ref.A, ref.B.reshape(1, 4), "^B must be square"),
        (np.zeros((0, 0)), np.zeros((0, 0)), "^A must be square"),
        (ref.A, np.eye(3), "^A and B must share a dimension"),
        (np.full((2, 2), np.nan), ref.B, "^A has non-finite entries"),
    ):
        for entry in (st.search_p0, st.evaluate_certificate):
            with pytest.raises(st.InputError, match=message):
                entry(A, B, *point)
    # each scalar is read as a JSON number is: a bool, a string, a container
    # or None is refused, by name, before the memo keys it
    names = ("theta", "chi_max", "mu", "ell")
    for i, name in enumerate(names):
        for bad in ("1.0", None, True, [1.0]):
            scalars = list(point)
            scalars[i] = bad
            for entry in (st.search_p0, st.evaluate_certificate, st.CertificateProblem):
                with pytest.raises(st.InputError, match=rf"^certificate\.{name} has an invalid value"):
                    entry(ref.A, ref.B, *scalars)
    # a P0 is checked where it enters: symmetric, positive definite, A's shape
    for p0, message in (
        (np.diag([1.0, -1.0]), "^P0 is not positive definite$"),
        (np.array([[1.0, 0.4], [0.0, 1.0]]), "^P0 is not symmetric within tolerance$"),
        (np.eye(3), r"^P0 must have the shape of A, \(2, 2\), got \(3, 3\)$"),
    ):
        with pytest.raises(st.InputError, match=message):
            st.evaluate_certificate(ref.A, ref.B, *point, p0=p0)


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
    assert np.log(rep_id.spectral_radius) < rep_id.log_threshold
    assert rep_id.margin < 0
    found = st.search_p0(A, B, 1.0, 0.0, 1.0, ell, budget=32, seed=0)
    assert found is not None
    assert not np.allclose(found, np.eye(2))
    assert np.linalg.norm(found, 2) == pytest.approx(1.0, rel=1e-12)
    lhs = st.CertificateProblem(A, B, 1.0, 0.0, 1.0, ell).lhs(found)
    assert np.linalg.eigvalsh(found - lhs)[0] > 0
    rep = st.evaluate_certificate(A, B, 1.0, 0.0, 1.0, ell, p0=found)
    assert rep.certified


def test_search_p0_returns_none_when_infeasible():
    # an expanding jump with a tiny dwell defeats every candidate
    A = np.zeros((2, 2))
    B = np.diag([3.0, 3.0])
    found = st.search_p0(A, B, 0.01, 0.0, 1.0, float(np.pi), budget=16, seed=1)
    assert found is None


def test_search_p0_seed_has_no_effect():
    A = np.array([[0.0, 12.0], [0.0, 0.0]])
    B = np.diag([0.3, 0.3])
    f1 = st.search_p0(A, B, 1.0, 0.0, 1.0, float(np.pi), budget=32, seed=7)
    f2 = st.search_p0(A, B, 1.0, 0.0, 1.0, float(np.pi), budget=1, seed=8)
    assert f1 is not None
    assert np.array_equal(f1, f2)


def _numpy_margin(A, B, theta, mu, ell, omega, P):
    """Margin of the discounted jump inequality, from its definition."""
    E = scipy.linalg.expm(theta * A)
    phi = B @ E
    d = np.exp(-2.0 * (np.pi * mu / ell) ** 2 * theta)
    mixed = max(np.linalg.norm(B @ P, 2), np.linalg.norm(B.T @ P, 2))
    lhs = d * phi.T @ P @ phi + d * (2 * omega * mixed + omega**2 * np.linalg.norm(P, 2)) * E.T @ E
    gap = P - lhs
    return np.linalg.eigvalsh(0.5 * (gap + gap.T))[0]


def test_stein_search_certifies_wherever_random_search_does(ref):
    # a seeded random search in numpy: the identity, then 31 candidates
    # L^T L + 1e-6 id with L uniform on [-1, 1], scaled to unit 2-norm
    rng = np.random.default_rng(0)
    candidates = [np.eye(2)]
    for _ in range(31):
        L = rng.uniform(-1.0, 1.0, (2, 2))
        P = L.T @ L + 1e-6 * np.eye(2)
        candidates.append(P / np.linalg.norm(P, 2))
    ell, identity_hits, random_hits, stein_hits = 2.0 * np.pi, 0, 0, 0
    for theta in np.linspace(0.2, 2.5, 10):
        for ratio in np.linspace(0.0, 0.45, 8):
            chi = ratio * theta
            omega = st.correction_bound(ref.A, ref.B, chi)
            found = st.search_p0(ref.A, ref.B, theta, chi, ref.mu, ell)
            if found is not None:
                stein_hits += 1
                rep = st.evaluate_certificate(ref.A, ref.B, theta, chi, ref.mu, ell, p0=found)
                assert rep.certified
                assert _numpy_margin(ref.A, ref.B, theta, ref.mu, ell, omega, found) > 0
            margins = [_numpy_margin(ref.A, ref.B, theta, ref.mu, ell, omega, P) for P in candidates]
            identity_hits += margins[0] > 0
            if max(margins) > 0:
                random_hits += 1
                assert found is not None, (theta, chi)
    # the grid tells the three apart: 16, 17 and 21 cells
    assert 0 < identity_hits < random_hits < stein_hits


def test_stein_p0_solves_the_scaled_stein_equation():
    # strong shears where the identity fails, so the Stein solution is returned;
    # n = 12 lies past the size at which scipy switches to a bilinear method
    for A, B in [
        (np.array([[0.0, 12.0], [0.0, 0.0]]), np.diag([0.3, 0.3])),
        (3.0 * np.eye(12, k=1), 0.3 * np.eye(12)),
    ]:
        n = A.shape[0]
        P = st.CertificateProblem(A, B, 1.0, 0.0, 1.0, float(np.pi)).search()
        assert np.array_equal(P, P.T)
        assert np.linalg.eigvalsh(P)[0] > 0
        assert np.linalg.norm(P, 2) == pytest.approx(1.0, rel=1e-12)
        E = scipy.linalg.expm(A)
        phi = B @ E
        Q = E.T @ E + np.eye(n)
        R = P - np.exp(-2.0) * phi.T @ P @ phi
        c = R[0, 0] / Q[0, 0]
        assert c > 0
        assert np.allclose(R, c * Q, rtol=1e-10, atol=1e-12 * c)
        # scipy's solver as an independent oracle, symmetrized and scaled alike
        oracle = scipy.linalg.solve_discrete_lyapunov(np.exp(-1.0) * phi.T, Q)
        oracle = 0.5 * oracle + 0.5 * oracle.T
        np.testing.assert_allclose(P, oracle / np.linalg.norm(oracle, 2), rtol=1e-10, atol=0)


# A = 0, theta = 1, chi_max = 0, mu = 1, ell = pi: sqrt(d) Phi = B / e, and
# each Stein solve below is one that scipy flags as ill-conditioned
C15, C12 = np.e * (1.0 - 1e-15), np.e * (1.0 - 1e-12)
ILL_CONDITIONED = {
    "huge_coupling": np.array([[0.1, 1e150, 0.0], [0.0, 0.1, 1e150], [0.0, 0.0, 0.1]]),
    "near_boundary": np.array([[C15, 5.0], [0.0, 0.1]]),
    "jordan_near_boundary": np.array([[C12, 1.0], [0.0, C12]]),
}


@pytest.mark.parametrize("case", sorted(ILL_CONDITIONED))
def test_ill_conditioned_stein_solve_proposes_nothing(case):
    B = ILL_CONDITIONED[case]
    problem = st.CertificateProblem(np.zeros_like(B), B, 1.0, 0.0, 1.0, float(np.pi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert problem.search() is None


@pytest.mark.parametrize("gap", [1e-8, 1e-9, 1e-11])
def test_stein_search_certifies_close_to_the_boundary(gap):
    # rho(sqrt(d) Phi) = 1 - gap: well posed enough to solve, and certified;
    # P0 - d Phi^T P0 Phi is then asymmetric by rounding far beyond any
    # tolerance relative to the margin, so only its symmetric part is read
    B = np.array([[np.e * (1.0 - gap), 5.0], [0.0, 0.1]])
    A, ell = np.zeros((2, 2)), float(np.pi)
    problem = st.CertificateProblem(A, B, 1.0, 0.0, 1.0, ell)
    assert problem.margin(np.eye(2)) < 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        P = problem.search()
    assert problem.evaluate(P).certified
    assert _numpy_margin(A, B, 1.0, 1.0, ell, 0.0, P) > 0


def test_stein_search_scales_its_right_side():
    # E^T E = e^704 id: the unscaled solution leaves float64, the scaled one
    # is the A = 0 solution for the same Phi
    B0 = np.array([[np.e * (1.0 - 1e-4), 5.0], [0.0, 0.1]])
    ell = float(np.pi)
    P0 = st.CertificateProblem(np.zeros((2, 2)), B0, 1.0, 0.0, 1.0, ell).search()
    P = st.CertificateProblem(352.0 * np.eye(2), B0 * np.exp(-352.0), 1.0, 0.0, 1.0, ell).search()
    assert P is not None
    assert np.allclose(P, P0, rtol=1e-6)


def test_stein_search_with_huge_flow_and_jitter_finds_nothing():
    # omega times e^(theta A)^T e^(theta A) swamps the Stein candidate
    A = np.diag([352.0, -3.0])
    B = np.array([[0.9999 * np.e * np.exp(-352.0), 1e-3], [0.0, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert st.search_p0(A, B, 1.0, 0.001, 1.0, float(np.pi)) is None


def test_commutator_overflow_raises_convergence_error(ref):
    # ||A|| * 2 chi_max ~ 100 overflows the recurrence behind omega
    A = np.array([[50.0, 40.0], [-30.0, -60.0]])
    with pytest.raises(st.ConvergenceError, match="correction bound: series term overflowed"):
        st.evaluate_certificate(A, ref.B, 1.0, 0.9, ref.mu, ref.ell)


# B = magnitude * [[0, 1], [1, 0]] against A = diag(1, -1): at 1e200 omega^2
# leaves float64, at 1e155 (chi_max = 0.001) the product Phi^T P0 Phi does
INEQUALITY_OVERFLOWS = [(1e200, 0.1), (1e155, 0.001)]


@pytest.mark.parametrize("magnitude, chi_max", INEQUALITY_OVERFLOWS, ids=["omega", "phi"])
def test_inequality_overflow_raises_convergence_error(magnitude, chi_max):
    A = np.diag([1.0, -1.0])
    B = magnitude * np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(st.ConvergenceError, match="^jump inequality overflowed at omega = "):
        st.evaluate_certificate(A, B, 1.0, chi_max, 1.0, np.pi)
    with pytest.raises(st.ConvergenceError, match="^jump inequality overflowed at omega = "):
        st.search_p0(A, B, 1.0, chi_max, 1.0, np.pi)


def test_inequality_overflow_of_b_p0_raises_convergence_error(ref):
    # B, P0 and every factor are finite; B P0 is not
    B = np.array([[10.0, 0.3], [0.1, 9.0]])
    point = (ref.A, B, ref.theta, ref.chi_max, ref.mu, ref.ell)
    omega = st.correction_bound(ref.A, B, ref.chi_max)
    with pytest.raises(st.ConvergenceError, match=f"^jump inequality overflowed at omega = {omega:g}$"):
        st.evaluate_certificate(*point, p0=1e308 * np.eye(2))


def test_report_inputs_carry_fixed_series_settings(ref):
    doc = st.evaluate_certificate(ref.A, ref.B, ref.theta, ref.chi_max, ref.mu, ref.ell).to_doc()
    assert doc["inputs"]["rel_tol"] == st.commutators.REL_TOL == 1e-12


def _period_flows(flows, A, theta):
    """The logged expm(A, t) calls whose times t include theta."""
    return [
        args for args, _ in flows
        if theta in np.atleast_1d(args[1]) and np.array_equal(args[0], A)
    ]


# the identity wins at the reference point; the shear of
# test_search_p0_finds_nonidentity_candidate needs the Stein P0; the
# expanding jump of test_search_p0_returns_none_when_infeasible finds none
SHEAR_POINT = (np.array([[0.0, 12.0], [0.0, 0.0]]), np.diag([0.3, 0.3]), 1.0, 0.0, 1.0, np.pi)
INFEASIBLE_POINT = (np.zeros((2, 2)), np.diag([3.0, 3.0]), 0.01, 0.0, 1.0, np.pi)


def test_search_then_evaluate_form_omega_and_flow_once(ref, record_calls, monkeypatch):
    # omega and the lift amplification each walk {B, A^m}, and the system
    # memo forms each chunk of it once; E and the lift's flow come from one
    # expm call, and the memo keys on the raw bits, so A and B are checked
    # once, when the problem is built; the margin of each P0 that search
    # tries is formed once, and evaluate reads it back
    chunks = record_calls(commutators._chunk)
    flows = record_calls(linalg.expm)
    checks = record_calls(linalg.as_square_matrix)
    lhs = st.CertificateProblem.lhs
    lefts = []

    def recorded_lhs(problem, P0):
        lefts.append(P0.tobytes())
        return lhs(problem, P0)

    monkeypatch.setattr(st.CertificateProblem, "lhs", recorded_lhs)
    ref_point = (ref.A, ref.B, ref.theta, ref.chi_max, ref.mu, ref.ell)
    for point, tried, found in (
        (ref_point, 1, "identity"), (SHEAR_POINT, 2, "stein"), (INFEASIBLE_POINT, 1, None),
    ):
        A, B, theta = point[:3]
        for log in (chunks, flows, checks, lefts):
            log.clear()
        p0 = st.search_p0(*point)
        doc = st.evaluate_certificate(*point, p0=p0).to_doc()
        kind = None if p0 is None else "identity" if np.array_equal(p0, np.eye(2)) else "stein"
        assert kind == found
        assert len(lefts) == len(set(lefts)) == tried
        system = commutators._system(A, B)
        assert 0 < len(chunks) == len(system.chunks)
        assert len(flows) == len(_period_flows(flows, A, theta)) == 1
        names = [args[1] if len(args) > 1 else kwargs.get("name") for args, kwargs in checks]
        assert names.count("A") == names.count("B") == 1
        assert doc == st.CertificateProblem(*point).evaluate(p0).to_doc()


def test_only_evaluate_sums_the_lift_bound(ref, record_calls):
    # the lift amplification is a report diagnostic: building a problem or
    # its P0 search never reads it
    point = (ref.A, ref.B, ref.theta, ref.chi_max, ref.mu, ref.ell)
    bounds = record_calls(commutators._bound)

    def lifts():
        return [args[1] for args, _ in bounds].count("lift bound")

    problem = st.CertificateProblem(*point)
    assert lifts() == 0
    p0 = problem.search()
    assert lifts() == 0
    problem.evaluate(p0)
    assert lifts() == 1


def test_problem_memo_sees_an_in_place_edit_of_a(ref):
    A = ref.A.copy()
    p0 = st.search_p0(A, ref.B, ref.theta, ref.chi_max, ref.mu, ref.ell)
    A[0, 1] += 0.5
    doc = st.evaluate_certificate(A, ref.B, ref.theta, ref.chi_max, ref.mu, ref.ell, p0=p0).to_doc()
    assert doc["inputs"]["a"] == A.ravel().tolist()
    fresh = st.CertificateProblem(A.copy(), ref.B, ref.theta, ref.chi_max, ref.mu, ref.ell)
    assert doc == fresh.evaluate(p0).to_doc()


def test_problem_memo_tells_signed_zeros_apart(ref):
    for chi_max in (0.0, -0.0, 0.0):
        doc = st.evaluate_certificate(ref.A, ref.B, ref.theta, chi_max, ref.mu, ref.ell).to_doc()
        assert math.copysign(1.0, doc["inputs"]["chi_max"]) == math.copysign(1.0, chi_max)


def test_report_phi_write_leaves_the_next_report_alone(ref):
    point = (ref.A, ref.B, ref.theta, ref.chi_max, ref.mu, ref.ell)
    expected = st.CertificateProblem(*point).evaluate().to_doc()
    report = st.evaluate_certificate(*point)
    try:
        report.phi[0, 0] = 99.0
    except ValueError:  # read-only
        pass
    assert st.evaluate_certificate(*point).to_doc() == expected


def test_memo_and_direct_problem_agree_on_float32_scalars(ref):
    point = (ref.A, ref.B, np.float32(1.1), np.float32(0.1), ref.mu, ref.ell)
    direct = st.CertificateProblem(*point).evaluate().to_doc()
    assert st.evaluate_certificate(*point).to_doc() == direct


def test_cells_of_one_system_form_its_commutators_and_spectra_once(ref, record_calls, monkeypatch):
    # the first cell has the largest chi_max (0.45 * 2.2), so its walk reads
    # furthest and every later cell reads only chunks it stored
    eigvals, calls = np.linalg.eigvals, []
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append(1) or eigvals(M))
    chunks = record_calls(commutators._chunk)
    formed, spectra = [], []
    for chi in (0.45, 0.0, 0.1, 0.3):
        for theta in (2.2, 0.6, 1.0, 1.4):
            point = (ref.A, ref.B, theta, chi * theta, ref.mu, ref.ell)
            st.evaluate_certificate(*point, p0=st.search_p0(*point))
            formed.append(len(chunks))
            spectra.append(len(calls))
    assert formed[0] > 0 and formed == [formed[0]] * 16
    # every cell takes rho(Phi); only the first takes max Re eig(A) and rho(B)
    assert spectra == [3 + i for i in range(16)]
