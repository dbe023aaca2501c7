import re
import warnings
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from adtstab import (
    ADT,
    ADT_PLUS,
    CertificateProblem,
    ConvergenceError,
    InputError,
    generate_schedule,
)
from adtstab.commutators import (
    NORM_CHUNK,
    REL_TOL,
    TERM_CAP,
    commutator_series,
    commutator_series_stack,
    correction_bound,
    correction_terms,
    lift_bound,
    _system,
    nested_commutators,
)
from adtstab.linalg import expm, spectral_norm


def test_base_term_is_jump_matrix(ref):
    seq = nested_commutators(ref.A, ref.B, 0)
    assert len(seq.terms) == 1
    assert np.array_equal(seq.terms[0], ref.B)
    assert seq.norms[0] == pytest.approx(spectral_norm(ref.B), rel=1e-15)


def test_first_orders_match_direct_products():
    rng = np.random.default_rng(2)
    A = rng.uniform(-1, 1, (3, 3))
    B = rng.uniform(-1, 1, (3, 3))
    seq = nested_commutators(A, B, 2)
    c1 = B @ A - A @ B
    c2 = c1 @ A - A @ c1
    assert np.allclose(seq.terms[1], c1, atol=1e-15)
    assert np.allclose(seq.terms[2], c2, atol=1e-15)


def test_reference_first_commutator(ref):
    seq = nested_commutators(ref.A, ref.B, 1)
    assert np.allclose(seq.terms[1], [[0.02, -0.55], [-0.29, -0.02]], atol=1e-15)
    assert seq.norms[1] == pytest.approx(0.5505, abs=5e-5)


def test_identity_generator_kills_higher_orders():
    B = np.array([[0.0, 1.0], [2.0, 3.0]])
    seq = nested_commutators(np.eye(2), B, 5)
    for T in seq.terms[1:]:
        assert np.array_equal(T, np.zeros((2, 2)))


def test_equal_matrices_commute():
    A = np.array([[1.0, 2.0], [0.5, -1.0]])
    seq = nested_commutators(A, A, 4)
    assert all(v == 0.0 for v in seq.norms[1:])


def test_norm_growth_bound():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = rng.uniform(-1, 1, (n, n))
        B = rng.uniform(-1, 1, (n, n))
        seq = nested_commutators(A, B, 12)
        na, nb = spectral_norm(A), spectral_norm(B)
        for m, nm in enumerate(seq.norms):
            assert nm <= nb * (2 * na) ** m * (1 + 1e-12)


def test_bilinearity_in_jump_argument():
    rng = np.random.default_rng(9)
    A = rng.uniform(-1, 1, (4, 4))
    B1 = rng.uniform(-1, 1, (4, 4))
    B2 = rng.uniform(-1, 1, (4, 4))
    joint = nested_commutators(A, B1 + B2, 6)
    s1 = nested_commutators(A, B1, 6)
    s2 = nested_commutators(A, B2, 6)
    for m in range(7):
        lhs = joint.terms[m]
        rhs = s1.terms[m] + s2.terms[m]
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1.0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale


def test_scaling_in_jump_argument(ref):
    c = -2.5
    base = nested_commutators(ref.A, ref.B, 8)
    scaled = nested_commutators(ref.A, c * ref.B, 8)
    for m in range(9):
        gap = spectral_norm(scaled.terms[m] - c * base.terms[m])
        assert gap <= 1e-13 * (1 + abs(c) * base.norms[m])
    w0 = correction_bound(ref.A, ref.B, ref.chi_max)
    w1 = correction_bound(ref.A, c * ref.B, ref.chi_max)
    assert w1 == pytest.approx(abs(c) * w0, rel=1e-13)


def test_flow_exchange_identity_random():
    # B e^(tA) must equal e^(tA) times the weighted commutator series
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        A = rng.uniform(-1, 1, (n, n))
        B = rng.uniform(-1, 1, (n, n))
        t = float(rng.uniform(0, 2))
        E = expm(A, t)
        S = commutator_series(A, B, t)
        resid = spectral_norm(B @ E - E @ S)
        assert resid <= 1e-9 * (1 + spectral_norm(B @ E))


def test_flow_exchange_at_zero_time(ref):
    assert np.allclose(commutator_series(ref.A, ref.B, 0.0), ref.B, atol=1e-15)


def test_flow_exchange_nilpotent_closed_form():
    # [B, A] = 2A here and [2A, A] = 0, so the series stops after one order
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.diag([1.0, -1.0])
    t = 1.7
    closed = B + t * 2.0 * A
    assert np.allclose(commutator_series(A, B, t), closed, atol=1e-12)


def test_series_argument_validation(ref):
    for s in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="finite"):
            commutator_series(ref.A, ref.B, s)


@pytest.mark.parametrize("m_max", [np.iinfo(np.intp).max, 10**30], ids=["intp_max", "1e30"])
def test_term_count_past_the_index_range_is_refused(ref, m_max):
    # m_max + 1 terms: islice takes at most intp max of them
    message = f"m_max must be in 0..{np.iinfo(np.intp).max - 1}, got {m_max}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        nested_commutators(ref.A, ref.B, m_max)


# {B, A^m} for A = diag(1, -1) and this B has 2-norm 2^m; for A/2 it is
# B or [[0, -1], [1, 0]] in turn, of 2-norm 1 at every order
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_series_term_cap_raises():
    # norms grow like 2^m t^m / m! and only settle far beyond the cap
    A = np.diag([1.0, -1.0])
    with pytest.raises(ConvergenceError):
        commutator_series(A, SWAP, 200.0)
    # at s = 84 order m adds 168^m/m!: the terms peak near m = 168, and the
    # last order read, TERM_CAP = 200, still adds 1.462e70
    message = r"no convergence within 200 terms \(last term magnitude 1\.462e\+70\)$"
    with pytest.raises(ConvergenceError, match="^correction bound: " + message):
        correction_bound(A, SWAP, 42.0)
    with pytest.raises(ConvergenceError, match="^commutator series: " + message):
        commutator_series_stack(A, SWAP, [84.0])


def test_nested_commutators_serve_orders_past_the_term_cap():
    seq = nested_commutators(0.5 * np.diag([1.0, -1.0]), SWAP, TERM_CAP + 60)
    assert len(seq) == 261
    assert seq.norms == (1.0,) * 261


def test_correction_bound_reference_value(ref):
    omega = correction_bound(ref.A, ref.B, ref.chi_max)
    assert omega == pytest.approx(0.1726, abs=5e-4)
    # independent oracle: explicit factorial summation at fixed depth
    term = ref.B.copy()
    acc = 0.0
    for m in range(1, 60):
        term = term @ ref.A - ref.A @ term
        acc += (2 * ref.chi_max) ** m / factorial(m) * spectral_norm(term)
    assert omega == pytest.approx(acc, rel=1e-12)


def test_correction_bound_zero_jitter(ref):
    assert correction_bound(ref.A, ref.B, 0.0) == 0.0


def test_correction_bound_commuting_pair():
    A = np.diag([1.0, 2.0])
    B = np.diag([3.0, -1.0])
    assert correction_bound(A, B, 0.3) == 0.0


def test_correction_terms_table(ref):
    rows = correction_terms(ref.A, ref.B, ref.chi_max)
    assert rows[0].m == 1
    assert rows[0].commutator_norm == pytest.approx(0.5505, abs=5e-5)
    assert all(r.contribution >= 0 for r in rows)
    assert [r.m for r in rows] == list(range(1, len(rows) + 1))
    total = sum(r.contribution for r in rows)
    assert total == pytest.approx(correction_bound(ref.A, ref.B, ref.chi_max), rel=1e-15)


def test_correction_bound_rejects_negative_jitter(ref):
    with pytest.raises(InputError):
        correction_bound(ref.A, ref.B, -0.1)


def test_lift_bound_zero_jitter_is_single_term(ref):
    direct = spectral_norm(ref.B @ expm(ref.A, ref.theta))
    assert lift_bound(ref.A, ref.B, ref.theta, 0.0) == pytest.approx(direct, rel=1e-14)


def test_lift_bound_reference_regression(ref):
    value = lift_bound(ref.A, ref.B, ref.theta, ref.chi_max)
    assert value == pytest.approx(0.8957625708922304, rel=1e-10)


def test_lift_bound_rejects_bad_window(ref):
    with pytest.raises(InputError):
        lift_bound(ref.A, ref.B, 1.0, 1.0)
    with pytest.raises(InputError):
        lift_bound(ref.A, ref.B, 0.0, 0.0)


# ||A|| * 2 chi_max ~ 100: the recurrence overflows float64 long before the
# factorial weights can tame it
STIFF_A = np.array([[50.0, 40.0], [-30.0, -60.0]])


def _first_overflowing_order(A, B, m_max):
    term = B.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(m_max + 1):
            if not (np.all(np.isfinite(term)) and np.isfinite(np.linalg.norm(term, 2))):
                return m
            term = term @ A - A @ term
    return None


def test_nested_commutators_overflow_names_first_order(ref):
    first = _first_overflowing_order(STIFF_A, ref.B, 400)
    assert first is not None
    assert np.all(np.isfinite(nested_commutators(STIFF_A, ref.B, first - 1).norms))
    with pytest.raises(ConvergenceError, match=rf"^commutator of order {first} overflowed$"):
        nested_commutators(STIFF_A, ref.B, 400)


def test_series_overflow_raises_convergence_error(ref):
    with pytest.raises(ConvergenceError, match="correction bound: series term overflowed"):
        correction_bound(STIFF_A, ref.B, 0.9)
    with pytest.raises(ConvergenceError, match="lift bound: series term overflowed"):
        lift_bound(STIFF_A, ref.B, 1.0, 0.9)
    with pytest.raises(ConvergenceError, match="commutator series: series term overflowed"):
        commutator_series(STIFF_A, ref.B, 1.8)


def _reference_series(A, B, s):
    """Sum of s^m/m! {B, A^m} for one s, stopped after three consecutive
    terms whose size |s^m/m!| ||{B, A^m}|| is at most REL_TOL times the
    2-norm of the running sum; returns the sum and the number of terms used."""
    term, coeff, total, quiet = B, 1.0, None, 0
    for m in range(TERM_CAP + 1):
        total = coeff * term if total is None else total + coeff * term
        size = abs(coeff) * np.linalg.norm(term, 2)
        small = size <= REL_TOL * np.linalg.norm(total, 2)
        quiet = quiet + 1 if small else 0
        if quiet == 3:
            return total, m + 1
        term = term @ A - A @ term
        coeff *= s / (m + 1)
    raise AssertionError(f"reference series for s = {s} did not stop")


def _span_stack(rng, theta, chi_max):
    """Series arguments of both variants' jumps on seeded schedules, plus
    s = 0, a negative s and a repeated s.

    S(0) adds 0 * {B, A^m} to B: an entry of B that is -0.0 stays -0.0
    where the commutators are negative, which a sum started from +0.0
    would turn into +0.0.
    """
    spans = []
    for variant, offset in ((ADT, chi_max), (ADT_PLUS, 0.0)):
        sched = generate_schedule(0.0, theta, chi_max, 10, variant, int(rng.integers(1000)))
        spans += [offset + chi for chi in sched.chis[1:]]
    return [0.0] + spans + [-0.7 * chi_max, spans[3]]


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_series_stack_is_bitwise_the_per_argument_loop(n):
    # B at 1e200 overflows the squares of the Frobenius bracket and B at
    # 1e-170 underflows them; either way the quiet test must decide as the
    # 2-norm does
    rng = np.random.default_rng(40 + n)
    A = rng.uniform(-1, 1, (n, n))
    B = rng.uniform(-1, 1, (n, n))
    B[0] = -0.0  # at n = 8, S(0) keeps three of these -0.0 entries
    spans = _span_stack(rng, theta=1.0, chi_max=0.4)
    for scale in (1.0, 1e200, 1e-170):
        sums, used = commutator_series_stack(A, scale * B, spans)
        assert sums.shape == (len(spans), n, n)
        for i, s in enumerate(spans):
            expected, terms = _reference_series(A, scale * B, s)
            assert sums[i].tobytes() == expected.tobytes(), f"s = {s}, scale = {scale}"
            assert used[i] == terms, f"s = {s}, scale = {scale}"
            assert commutator_series(A, scale * B, s).tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    hs.integers(1, 8),
    hs.integers(0, 2**32 - 1),
    hs.integers(-150, 0),
    hs.integers(-150, 150),
    hs.lists(hs.floats(-1.5, 1.5), min_size=1, max_size=6),
)
def test_series_stack_rows_are_the_reference_across_the_float_range(n, seed, ka, kb, spans):
    # A's exponent stops at 0: past it the terms {B, A^m} themselves overflow
    # before the series converges, which raises instead of summing
    rng = np.random.default_rng(seed)
    A = 10.0**ka * rng.uniform(-1, 1, (n, n))
    B = 10.0**kb * rng.uniform(-1, 1, (n, n))
    stack = [0.0] + spans + [-spans[0], spans[-1]]
    sums, used = commutator_series_stack(A, B, stack)
    for i, s in enumerate(stack):
        expected, terms = _reference_series(A, B, s)
        assert sums[i].tobytes() == expected.tobytes(), f"s = {s}"
        assert used[i] == terms, f"s = {s}"


def test_series_running_sum_overflow_raises_convergence_error():
    # every term s^m/m! 1e308 is finite, but the sum of one entry, e^s 1e308, is not
    A, B = 0.5 * np.diag([1.0, -1.0]), 1e308 * np.array([[0.0, 1.0], [1.0, 0.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for run in (
            lambda: commutator_series(A, B, 1.5),
            lambda: commutator_series_stack(A, B, [0.1, 1.5, -0.2]),
        ):
            with pytest.raises(
                ConvergenceError, match="^commutator series: running sum overflowed$"
            ):
                run()
    assert caught == []


def test_bound_running_sum_overflow_raises_convergence_error():
    # every term (2 chi_max)^m/m! 1e308 of the scalar bounds is finite, their sum is not
    A, B = 0.5 * np.diag([1.0, -1.0]), 1e308 * np.array([[0.0, 1.0], [1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="^correction bound: running sum overflowed$"):
            correction_bound(A, B, 0.85)
        with pytest.raises(ConvergenceError, match="^lift bound: running sum overflowed$"):
            lift_bound(A, B, 0.9, 0.85)


def test_series_stack_validation(ref):
    with pytest.raises(InputError, match="finite"):
        commutator_series_stack(ref.A, ref.B, [0.1, np.nan])
    with pytest.raises(InputError, match="1-D"):
        commutator_series_stack(ref.A, ref.B, [[0.1]])
    sums, used = commutator_series_stack(ref.A, ref.B, [])
    assert sums.shape == (0, 2, 2) and used.shape == (0,)


def test_series_stack_overflow_of_its_largest_argument(ref):
    small = [0.0, 0.005, -0.01, 0.02]
    for s in small:
        assert np.all(np.isfinite(commutator_series(STIFF_A, ref.B, s)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConvergenceError, match="commutator series: series term overflowed"):
            commutator_series_stack(STIFF_A, ref.B, small + [1.8])
    assert caught == []


def _reference_norm_series(A, B, s, start, right=None):
    """Rows (m, ||{B, A^m} right||, s^m/m! times that) of a per-term loop with
    np.linalg.norm, summed in a Python float and stopped after three
    consecutive terms at most REL_TOL times the running sum; returns the
    rows and the sum."""
    term, coeff, total, quiet, rows = B, 1.0, None, 0, []
    for m in range(TERM_CAP + 1):
        if m >= start:
            norm = float(np.linalg.norm(term if right is None else term @ right, 2))
            value = coeff * norm
            rows.append((m, norm, value))
            total = value if total is None else total + value
            quiet = quiet + 1 if abs(value) <= REL_TOL * abs(total) else 0
            if quiet == 3:
                return rows, total
        term = term @ A - A @ term
        coeff *= s / (m + 1)
    raise AssertionError(f"reference series for s = {s} did not stop")


def _check_bounds_bitwise(A, B, chi_max, lift_chi_max, theta_gap=0.5):
    """correction_terms at chi_max and lift_bound at lift_chi_max (theta =
    lift_chi_max + theta_gap) against the per-term loop, and so omega and
    the lift amplification of one CertificateProblem at chi_max (theta =
    chi_max + theta_gap), which reads both from one walk of {B, A^m};
    returns the last order each of the three series used."""
    rows, omega = _reference_norm_series(A, B, 2.0 * chi_max, 1)
    got = [(r.m, r.commutator_norm, r.contribution) for r in correction_terms(A, B, chi_max)]
    assert [(m, a.hex(), b.hex()) for m, a, b in got] == [
        (m, a.hex(), b.hex()) for m, a, b in rows
    ]
    theta = lift_chi_max + theta_gap
    lift_rows, lift = _reference_norm_series(
        A, B, 2.0 * lift_chi_max, 0, expm(A, theta - lift_chi_max)
    )
    assert lift_bound(A, B, theta, lift_chi_max).hex() == lift.hex()
    theta = chi_max + theta_gap
    shared_rows, shared_lift = _reference_norm_series(
        A, B, 2.0 * chi_max, 0, expm(A, theta - chi_max)
    )
    report = CertificateProblem(A, B, theta, chi_max, 1.0, np.pi).evaluate()
    assert report.omega.hex() == omega.hex()
    assert report.lift_amplification.hex() == shared_lift.hex()
    return rows[-1][0], lift_rows[-1][0], shared_rows[-1][0]


# the norms are taken NORM_CHUNK = 8 orders at a time: orders 8..15 form
# the second chunk, so a series whose last order is 14, 15 or 16 ends just
# before, exactly on or just after a chunk boundary.  Each row gives the
# last order of the correction, of the lift and of the problem's lift at
# chi_max; the problem's lift stops in an earlier chunk than its correction
# in the rows (2, 0.47) and (8, 0.10), and in a later one in (4, 0.24).
BOUNDARY_ROWS = [
    (2, 0.26, 0.31, 0.5, (14, 14, 13)), (2, 0.36, 0.40, 0.5, (15, 15, 14)),
    (2, 0.47, 0.52, 0.5, (16, 16, 15)), (4, 0.14, 0.15, 0.5, (14, 14, 13)),
    (4, 0.19, 0.20, 0.5, (15, 15, 14)), (4, 0.25, 0.25, 0.5, (16, 16, 16)),
    (4, 0.24, 0.24, 5.0, (15, 16, 16)), (8, 0.06, 0.07, 0.5, (14, 14, 13)),
    (8, 0.07, 0.09, 0.5, (15, 15, 14)), (8, 0.10, 0.11, 0.5, (16, 16, 15)),
]


@pytest.mark.parametrize(
    "n, chi_max, lift_chi_max, theta_gap, last",
    BOUNDARY_ROWS,
    ids=[f"{n}-{c}-{lc}-{last[0]}" for n, c, lc, _gap, last in BOUNDARY_ROWS],
)
def test_bound_series_are_bitwise_the_per_term_loop(n, chi_max, lift_chi_max, theta_gap, last):
    rng = np.random.default_rng(100 + n)
    A = rng.uniform(-1, 1, (n, n))
    B = rng.uniform(-1, 1, (n, n))
    assert _check_bounds_bitwise(A, B, chi_max, lift_chi_max, theta_gap) == last


def test_bound_series_of_a_commuting_pair_are_the_per_term_loop():
    A = np.diag([1.0, 2.0, -0.5])
    B = np.diag([3.0, -1.0, 0.25])
    # every commutator vanishes: the correction stops after three zero
    # terms, each lift after its base term and three zero terms
    assert _check_bounds_bitwise(A, B, 0.3, 0.3) == (3, 3, 3)


def test_bound_series_ignore_an_unread_overflowing_term():
    # ||A|| ~ 1e25: {B, A^13} overflows, in the chunk of orders 8..15, but
    # both series stop at order 9 or 10, before they read it
    A = np.array([[1.0, 0.4], [-0.3, -0.6]]) * 1e25
    B = np.array([[0.2, 0.1], [-0.1, 1.5]])
    chi_max = 1e-27
    assert _first_overflowing_order(A, B, 20) == 13
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        last = _check_bounds_bitwise(A, B, chi_max, chi_max, theta_gap=chi_max)
        assert np.isfinite(correction_bound(A, B, chi_max))
        assert np.isfinite(lift_bound(A, B, 2.0 * chi_max, chi_max))
    assert caught == []
    assert all(8 <= m < 13 for m in last)


def _series_readers(A, B, chi_max, theta, spans):
    """Readers of the walk of (A, B), each returning its value as bytes:
    omega, the lift amplification, a series stack, and the first 40
    commutators with their norms."""
    return [
        lambda: correction_bound(A, B, chi_max).hex(),
        lambda: lift_bound(A, B, theta, chi_max).hex(),
        lambda: [a.tobytes() for a in commutator_series_stack(A, B, spans)],
        lambda: _commutator_bytes(A, B),
    ]


def _commutator_bytes(A, B):
    seq = nested_commutators(A, B, 40)
    return [T.tobytes() for T in seq.terms] + [v.hex() for v in seq.norms]


def _series_values(A, B, chi_max, theta, spans):
    return [read() for read in _series_readers(A, B, chi_max, theta, spans)]


@settings(max_examples=40, deadline=None)
@given(
    hs.integers(1, 8),
    hs.integers(0, 2**32 - 1),
    hs.integers(-3, 0),
    hs.integers(-150, 150),
    hs.floats(0.0, 0.45),
    hs.lists(hs.floats(-1.5, 1.5), min_size=1, max_size=6),
)
def test_remembered_walk_is_bitwise_a_fresh_one(n, seed, ka, kb, ratio, spans):
    rng = np.random.default_rng(seed)
    A = 10.0**ka * rng.uniform(-1, 1, (n, n))
    B = 10.0**kb * rng.uniform(-1, 1, (n, n))
    readers = _series_readers(A, B, ratio, 1.0, spans)
    fresh = []
    for read in readers:  # each from a cleared memo
        _system.cache_clear()
        fresh.append(read())
    # in reverse, so each reader hits chunks another one formed, then all hits
    assert [read() for read in readers[::-1]] == fresh[::-1]
    assert [read() for read in readers] == fresh
    assert _system.cache_info().currsize == 1


def test_remembered_walk_sees_an_in_place_edit_of_a(ref):
    A = ref.A.copy()
    before = _series_values(A, ref.B, ref.chi_max, ref.theta, [0.3])
    A[0, 1] += 0.5
    after = _series_values(A, ref.B, ref.chi_max, ref.theta, [0.3])
    _system.cache_clear()
    assert after == _series_values(A.copy(), ref.B, ref.chi_max, ref.theta, [0.3])
    assert after != before


def test_remembered_terms_are_read_only(ref):
    seq = nested_commutators(ref.A, ref.B, 3)
    with pytest.raises(ValueError):
        seq.terms[1][0, 0] = 1.0
    again = nested_commutators(ref.A, ref.B, 3)
    assert np.array_equal(again.terms[1], seq.terms[1])


def test_system_memo_holds_at_most_16_systems():
    rng = np.random.default_rng(7)
    for _ in range(20):
        correction_bound(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3)), 0.2)
    assert _system.cache_info().currsize == 16


def test_system_memo_stores_no_chunk_past_the_term_cap():
    A = 0.5 * np.diag([1.0, -1.0])
    seq = nested_commutators(A, SWAP, TERM_CAP + 50)
    assert len(seq) == TERM_CAP + 51
    chunks = _system(A.tobytes(), SWAP.tobytes(), A.shape).chunks
    assert sorted(chunks) == list(range(0, TERM_CAP + 1, NORM_CHUNK))
    # the unstored orders are formed again, with the same bits
    assert nested_commutators(A, SWAP, TERM_CAP + 50).norms == seq.norms
