from math import factorial

import numpy as np
import pytest
import scipy.linalg

import adtstab as st
from adtstab.linalg import expm, spectral_norm


def _series_oracle(A, B, s, depth=40):
    term = B.copy()
    acc = np.zeros_like(B)
    for m in range(1, depth):
        term = term @ A - A @ term
        acc += s**m / factorial(m) * term
    return acc


def _hadamard_oracle(A, B, s):
    """Closed form S(s) = e^(-sA) B e^(sA); shares no code with the series."""
    return scipy.linalg.expm(-s * A) @ B @ scipy.linalg.expm(s * A)


def _random_pairs(seed, count=20):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 6))
        yield rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-1.0, 1.0, (n, n)), rng


def test_system_shape_validation():
    with pytest.raises(st.InputError):
        st.ImpulsiveSystem(A=np.eye(2), B=np.eye(3))
    with pytest.raises(st.InputError):
        st.ImpulsiveSystem(A=np.zeros((2, 3)), B=np.eye(2))
    assert st.ImpulsiveSystem(A=np.eye(4), B=np.zeros((4, 4))).n == 4


def test_comparison_jump_zero_span_returns_jump(ref_system):
    for variant in (st.ADT, st.ADT_PLUS):
        cj = st.comparison_jump(ref_system, 0.0, 0.0, variant)
        assert np.array_equal(cj.J, ref_system.B)
        assert np.array_equal(cj.G, np.zeros((2, 2)))
        assert cj.variant == variant


def test_comparison_jump_cancelling_deviation(ref_system):
    # chi_next = -chi_max makes the symmetric-variant series argument vanish
    cj = st.comparison_jump(ref_system, -0.2, 0.2, st.ADT)
    assert np.allclose(cj.J, ref_system.B, atol=1e-16)


def test_comparison_jump_matches_series_oracle(ref_system, ref):
    s = ref.chi_max + 0.07
    oracle = _series_oracle(ref.A, ref.B, s)
    cj = st.comparison_jump(ref_system, 0.07, ref.chi_max, st.ADT)
    assert np.allclose(cj.G, oracle, rtol=1e-12, atol=1e-15)
    assert np.allclose(cj.J, ref.B + oracle, rtol=1e-12, atol=1e-15)


def test_comparison_jump_late_only_span(ref_system, ref):
    oracle = _series_oracle(ref.A, ref.B, 0.07)
    cj = st.comparison_jump(ref_system, 0.07, ref.chi_max, st.ADT_PLUS)
    assert np.allclose(cj.G, oracle, rtol=1e-12, atol=1e-15)


def test_comparison_jump_correction_bounded_by_omega(ref_system, ref):
    omega = st.correction_bound(ref.A, ref.B, ref.chi_max)
    rng = np.random.default_rng(21)
    for chi in rng.uniform(-ref.chi_max, ref.chi_max, 20):
        cj = st.comparison_jump(ref_system, float(chi), ref.chi_max, st.ADT)
        assert spectral_norm(cj.G) <= omega + 1e-9
    # the bound is nearly active at the widest admissible span
    worst = st.comparison_jump(ref_system, ref.chi_max, ref.chi_max, st.ADT)
    assert spectral_norm(worst.G) > 0.5 * omega


def test_comparison_jump_identity_generator():
    sys_ = st.ImpulsiveSystem(A=np.eye(3), B=np.arange(9.0).reshape(3, 3))
    cj = st.comparison_jump(sys_, 0.1, 0.2, st.ADT)
    assert np.array_equal(cj.J, sys_.B)


def test_comparison_jump_span_validation(ref_system):
    with pytest.raises(st.InputError):
        st.comparison_jump(ref_system, 0.3, 0.2, st.ADT)
    with pytest.raises(st.InputError):
        st.comparison_jump(ref_system, -0.3, 0.2, st.ADT)
    with pytest.raises(st.InputError):
        st.comparison_jump(ref_system, -0.05, 0.2, st.ADT_PLUS)
    with pytest.raises(st.InputError):
        st.comparison_jump(ref_system, 0.1, 0.2, "weekly")
    with pytest.raises(st.InputError, match="^chi_next and chi_max must be finite"):
        st.comparison_jump(ref_system, np.nan, 0.1, st.ADT)


def test_lifted_initial_is_linear(ref_system, ref):
    x = np.array([0.4, -1.0])
    y = np.array([2.0, 0.3])
    za = st.lifted_initial(ref_system, 2.0 * x - 0.5 * y, 0.05, ref.chi_max, ref.theta)
    zx = st.lifted_initial(ref_system, x, 0.05, ref.chi_max, ref.theta)
    zy = st.lifted_initial(ref_system, y, 0.05, ref.chi_max, ref.theta)
    assert np.allclose(za, 2.0 * zx - 0.5 * zy, rtol=1e-11, atol=1e-13)


def test_lifted_initial_no_jitter_is_first_postjump(ref_system, ref):
    x0 = np.array([1.0, 2.0])
    z0 = st.lifted_initial(ref_system, x0, 0.0, 0.0, ref.theta)
    direct = ref.B @ expm(ref.A, ref.theta) @ x0
    assert np.allclose(z0, direct, rtol=1e-12, atol=1e-15)


def test_lift_shift_reproduces_first_postjump(ref_system, ref):
    # the variant's flow shift carries the lifted state onto x(tau_1+)
    rng = np.random.default_rng(31)
    x0 = rng.standard_normal(2)
    for variant, shift_off in ((st.ADT, ref.chi_max), (st.ADT_PLUS, 0.0)):
        lo = -ref.chi_max if variant == st.ADT else 0.0
        for chi1 in rng.uniform(lo, ref.chi_max, 5):
            chi1 = float(chi1)
            z0 = st.lifted_initial(
                ref_system, x0, chi1, ref.chi_max, ref.theta, variant=variant
            )
            post = ref.B @ expm(ref.A, ref.theta + chi1) @ x0
            pred = expm(ref.A, chi1 + shift_off) @ z0
            assert np.allclose(pred, post, rtol=1e-12, atol=1e-14)


def test_lifted_initial_validation(ref_system, ref):
    with pytest.raises(st.InputError):
        st.lifted_initial(ref_system, [1.0, 0.0, 0.0], 0.0, ref.chi_max, ref.theta)
    with pytest.raises(st.InputError):
        st.lifted_initial(ref_system, [1.0, 0.0], 0.0, 0.5, 0.4)
    with pytest.raises(st.InputError):
        st.lifted_initial(ref_system, [1.0, 0.0], 0.3, 0.2, 1.0)


def test_hadamard_series_matches_closed_form(ref):
    cases = [(ref.A, ref.B, t) for t in (0.0, 0.1, 0.37, 1.0)]
    cases += [(A, B, float(rng.uniform(0.0, 2.0))) for A, B, rng in _random_pairs(41)]
    for A, B, t in cases:
        S = st.commutator_series(A, B, t)
        assert np.allclose(S, _hadamard_oracle(A, B, t), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("variant", [st.ADT, st.ADT_PLUS])
def test_comparison_jump_matches_closed_form(ref, variant):
    cases = [(ref.A, ref.B, ref.chi_max)]
    cases += [(A, B, float(rng.uniform(0.05, 0.45))) for A, B, rng in _random_pairs(43)]
    rng = np.random.default_rng(47)
    for A, B, chi_max in cases:
        lo = -chi_max if variant == st.ADT else 0.0
        for chi in (lo, float(rng.uniform(lo, chi_max)), chi_max):
            s = chi + chi_max if variant == st.ADT else chi
            S = _hadamard_oracle(A, B, s)
            cj = st.comparison_jump(st.ImpulsiveSystem(A=A, B=B), chi, chi_max, variant)
            assert np.allclose(cj.J, S, rtol=1e-12, atol=1e-15)
            assert np.allclose(cj.G, S - B, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("variant", [st.ADT, st.ADT_PLUS])
def test_lifted_initial_matches_closed_form(ref, variant):
    cases = [(ref.A, ref.B, ref.theta, ref.chi_max)]
    cases += [
        (A, B, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.05, 0.45)))
        for A, B, rng in _random_pairs(53)
    ]
    rng = np.random.default_rng(59)
    for A, B, theta, chi_max in cases:
        x0 = rng.standard_normal(A.shape[0])
        lo = -chi_max if variant == st.ADT else 0.0
        chi1 = float(rng.uniform(lo, chi_max))
        s, flow = (chi1 + chi_max, theta - chi_max) if variant == st.ADT else (chi1, theta)
        oracle = _hadamard_oracle(A, B, s) @ scipy.linalg.expm(flow * A) @ x0
        z0 = st.lifted_initial(st.ImpulsiveSystem(A=A, B=B), x0, chi1, chi_max, theta, variant)
        assert np.allclose(z0, oracle, rtol=1e-12, atol=1e-15)
