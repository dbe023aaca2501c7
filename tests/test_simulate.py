import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

import adtstab as st
from adtstab.linalg import expm
from adtstab.simulate import FLOW_BLOCK


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def test_ode_matches_pure_flow_without_impulses(ref_system, ref):
    sched = st.ImpulseSchedule(0.0, ref.theta, 0.0, st.ADT, (0.0,))
    x0 = np.array([1.0, -2.0])
    traj = st.simulate_ode(ref_system, sched, x0, t_end=3.0, sample_dt=0.25)
    assert len(traj.jump_indices) == 0
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 3.0
    for t, x in zip(traj.times, traj.states):
        exact = expm(ref.A, float(t)) @ x0
        assert np.linalg.norm(x - exact) <= 1e-11 * (1 + np.linalg.norm(exact))


def test_ode_geometric_halving():
    sys_ = st.ImpulsiveSystem(A=np.zeros((2, 2)), B=0.5 * np.eye(2))
    sched = st.generate_schedule(0.0, 1.0, 0.0, 8, st.ADT, seed=0)
    x0 = np.array([3.0, 4.0])
    traj = st.simulate_ode(sys_, sched, x0, t_end=7.0, sample_dt=0.5)
    posts = traj.post_jump_norms
    assert len(posts) == 7
    for k, v in enumerate(posts, start=1):
        assert v == pytest.approx(5.0 * 0.5**k, rel=1e-12)
    # each impulse contributes a pre and a post sample at the same instant
    for idx in traj.jump_indices:
        assert traj.times[idx] == traj.times[idx - 1]
        assert traj.norms[idx] == pytest.approx(0.5 * traj.norms[idx - 1], rel=1e-12)


def test_ode_identity_jump_equals_flow(ref):
    sys_id = st.ImpulsiveSystem(A=ref.A, B=np.eye(2))
    sched = st.generate_schedule(0.0, 1.0, 0.2, 6, st.ADT, seed=12)
    x0 = np.array([0.2, 1.0])
    traj = st.simulate_ode(sys_id, sched, x0, t_end=5.0, sample_dt=0.3)
    for t, x in zip(traj.times, traj.states):
        exact = expm(ref.A, float(t)) @ x0
        assert np.linalg.norm(x - exact) <= 1e-11 * (1 + np.linalg.norm(exact))


def test_trajectory_bookkeeping(ref_system):
    sched = st.generate_schedule(0.5, 1.0, 0.1, 8, st.ADT, seed=7)
    traj = st.simulate_ode(ref_system, sched, [1.0, 0.0], t_end=6.0, sample_dt=0.21)
    assert np.all(np.diff(traj.times) >= 0)
    assert traj.times[0] == 0.5
    recomputed = np.linalg.norm(traj.states, axis=1)
    assert np.allclose(recomputed, traj.norms, rtol=1e-14, atol=0.0)
    expected_jumps = int(np.sum(sched.taus[1:] <= 6.0))
    assert len(traj.jump_indices) == expected_jumps
    assert np.allclose(traj.post_jump_times, sched.taus[1 : expected_jumps + 1])


def test_simulate_validation(ref_system):
    sched = st.generate_schedule(0.0, 1.0, 0.1, 4, st.ADT, seed=3)
    with pytest.raises(st.InputError):
        st.simulate_ode(ref_system, sched, [1.0, 0.0], t_end=-1.0, sample_dt=0.5)
    with pytest.raises(st.InputError):
        st.simulate_ode(ref_system, sched, [1.0, 0.0], t_end=2.0, sample_dt=0.0)
    with pytest.raises(st.InputError):
        st.simulate_ode(ref_system, sched, [1.0, 0.0, 0.0], t_end=2.0, sample_dt=0.5)
    bad = st.ImpulseSchedule(0.0, 1.0, 0.1, st.ADT, (0.0, 0.5))
    with pytest.raises(st.InputError):
        st.simulate_ode(ref_system, bad, [1.0, 0.0], t_end=2.0, sample_dt=0.5)
    with pytest.raises(st.InputError, match="^x0 has non-finite entries$"):
        st.simulate_ode(ref_system, sched, [np.nan, 0.0], t_end=2.0, sample_dt=0.5)


# (t_end - tau0) / sample_dt is inf, 3e301 or 2^63 samples, all past the index range
@pytest.mark.parametrize("t_end, sample_dt, count", [
    (1e308, 0.05, "inf"), (30.0, 1e-300, "3e+301"), (2.0**63, 1.0, "9.22337e+18"),
], ids=["t_end", "sample_dt", "2^63"])
def test_run_past_the_index_range_is_refused(ref_system, ref_model, t_end, sample_dt, count):
    sched = st.generate_schedule(0.0, 1.0, 0.1, 4, st.ADT, seed=3)
    message = f"^run of {re.escape(count)} samples is beyond the index range$"
    with pytest.raises(st.InputError, match=message):
        st.simulate_ode(ref_system, sched, [1.0, 0.0], t_end, sample_dt)
    with pytest.raises(st.InputError, match=message):
        st.simulate_parabolic(ref_model, sched, np.zeros((32, 2)), t_end, sample_dt)


def test_run_whose_samples_exceed_the_index_range_in_bytes_is_refused(ref_system, ref_model):
    # 3e18 samples are inside the index range, but 8 bytes each are not;
    # the run is refused before anything is allocated
    sched = st.generate_schedule(0.0, 1.0, 0.1, 4, st.ADT, seed=3)
    message = r"^run of 3e\+18 samples takes 2\.4e\+19 bytes, beyond the index range$"
    with pytest.raises(st.InputError, match=message):
        st.simulate_ode(ref_system, sched, [1.0, 0.0], 30.0, 1e-17)
    with pytest.raises(st.InputError, match=message):
        st.simulate_parabolic(ref_model, sched, np.zeros((32, 2)), 30.0, 1e-17)


def test_mode_rate_that_overflows_raises_convergence_error(ref):
    # (mu j pi / ell)^2 leaves float64 from j = 10^4 at mu = 1e150, ell = 1
    model = st.ParabolicModel(A=ref.A, B=ref.B, mu=1e150, ell=1.0, n_modes=10**4)
    assert model.decay_rate(1) == (1e150 * math.pi) ** 2
    message = r"^diffusive rate overflowed at mu = 1e\+150, ell = 1, j = 10000$"
    with pytest.raises(st.ConvergenceError, match=message):
        model.decay_rate(10**4)
    with pytest.raises(st.ConvergenceError, match=message):
        st.mode_generator(model, 10**4)
    huge = st.ParabolicModel(A=ref.A, B=ref.B, mu=1e160, ell=1.0, n_modes=1)
    sched = st.generate_schedule(0.0, 1.0, 0.1, 4, st.ADT, seed=3)
    with pytest.raises(st.ConvergenceError, match=r"at mu = 1e\+160, ell = 1, j = 1$"):
        st.simulate_parabolic(huge, sched, [[1.0, 0.0]], 2.0, 0.5)
    # every finite rate keeps its bits: simulate's mu j pi / ell and, at j = 1,
    # certify's pi mu / ell
    for mu, ell in ((ref.mu, ref.ell), (0.7, 2.5), (1e150, 1.0), (3.0, 1e-150)):
        model = st.ParabolicModel(A=ref.A, B=ref.B, mu=mu, ell=ell, n_modes=32)
        assert [model.decay_rate(j) for j in range(1, 33)] == [
            (mu * j * math.pi / ell) ** 2 for j in range(1, 33)
        ]
        problem = st.CertificateProblem(ref.A, ref.B, 1e-300, 0.0, mu, ell)
        assert problem.rate == (math.pi * mu / ell) ** 2 == model.decay_rate(1)


@pytest.mark.parametrize("n_modes", [np.iinfo(np.intp).max + 1, 10**30], ids=["2^63", "1e30"])
def test_mode_count_past_the_index_range_is_refused(ref, n_modes):
    message = f"n_modes must be in 1..{np.iinfo(np.intp).max}, got {n_modes}"
    with pytest.raises(st.InputError, match=f"^{re.escape(message)}$"):
        st.ParabolicModel(A=ref.A, B=ref.B, mu=1.0, ell=1.0, n_modes=n_modes)


def test_comparison_equals_ode_on_uniform_grid(ref_system, ref):
    # with zero jitter the comparison system IS the original on the grid
    sched = st.generate_schedule(0.0, ref.theta, 0.0, 12, st.ADT, seed=1)
    x0 = np.array([0.3, -1.1])
    z0 = st.lifted_initial(ref_system, x0, 0.0, 0.0, ref.theta)
    traj_z = st.simulate_comparison(ref_system, sched, z0, K=9)
    traj_x = st.simulate_ode(
        ref_system, sched, x0, t_end=float(sched.taus[10]), sample_dt=50.0
    )
    z_posts = [z0] + list(traj_z.post_jump_states)
    x_posts = traj_x.post_jump_states
    assert len(x_posts) == 10
    for k in range(10):
        assert np.allclose(x_posts[k], z_posts[k], rtol=1e-11, atol=1e-13)


def test_comparison_trajectory_layout(ref_system, ref):
    sched = st.generate_schedule(0.0, ref.theta, ref.chi_max, 8, st.ADT, seed=2)
    z0 = np.array([1.0, 0.5])
    traj = st.simulate_comparison(ref_system, sched, z0, K=5)
    assert np.allclose(traj.post_jump_times, ref.theta * np.arange(1, 6))
    assert len(traj.times) == 1 + 2 * 5


def test_comparison_needs_lookahead_deviation(ref_system, ref):
    sched = st.generate_schedule(0.0, ref.theta, ref.chi_max, 6, st.ADT, seed=0)
    with pytest.raises(st.InputError):
        st.simulate_comparison(ref_system, sched, [1.0, 0.0], K=5)
    st.simulate_comparison(ref_system, sched, [1.0, 0.0], K=4)
    with pytest.raises(st.InputError):
        st.simulate_comparison(ref_system, sched, [1.0, 0.0], K=0)


@pytest.mark.parametrize("variant", [st.ADT, st.ADT_PLUS])
def test_comparison_across_flow_blocks_equals_per_jump_loop(ref_system, ref, variant):
    # K > FLOW_BLOCK, so the corrections come from more than one stacked series
    K = 300
    assert K > FLOW_BLOCK
    sched = st.generate_schedule(0.0, ref.theta, ref.chi_max, K + 2, variant, seed=8)
    z0 = np.array([0.6, -0.8])
    traj = st.simulate_comparison(ref_system, sched, z0, K)
    E = expm(ref.A, ref.theta)
    states, z = [z0], z0
    for k in range(1, K + 1):
        pre = E @ z
        z = st.comparison_jump(ref_system, sched.chis[k + 1], ref.chi_max, variant).J @ pre
        states += [pre, z]
    assert traj.states.tobytes() == np.array(states).tobytes()
    assert traj.post_jump_times.tolist() == [k * ref.theta for k in range(1, K + 1)]


def test_matching_residual_small_on_seeded_schedules(ref_system, ref):
    for variant, seeds in ((st.ADT, (0, 1, 2)), (st.ADT_PLUS, (3, 4))):
        for seed in seeds:
            sched = st.generate_schedule(0.0, ref.theta, ref.chi_max, 12, variant, seed)
            rng = np.random.default_rng(100 + seed)
            r = st.matching_residual(ref_system, sched, _unit(rng, 2), K=10)
            assert r <= 1e-8


@pytest.mark.parametrize("variant", [st.ADT, st.ADT_PLUS])
# K = 300 crosses FLOW_BLOCK for the flows and the series; at n = 2 its states stay below 1e48
@pytest.mark.parametrize("n, K", [(2, 12), (4, 12), (8, 12), (2, 300)], ids=["2", "4", "8", "2-K300"])
def test_matching_residual_is_bitwise_the_per_jump_loop(n, K, variant):
    rng = np.random.default_rng(60 + n)
    A, B = rng.uniform(-1.0, 1.0, (2, n, n))
    system = st.ImpulsiveSystem(A=A, B=B)
    sched = st.generate_schedule(0.0, 1.0, 0.3, K + 2, variant, seed=n)
    x0 = rng.standard_normal(n)
    t_end = float(sched.taus[K])
    x_posts = st.simulate_ode(system, sched, x0, t_end, t_end - sched.tau0).post_jump_states
    z0 = st.lifted_initial(system, x0, sched.chis[1], sched.chi_max, sched.theta, variant)
    z_posts = st.simulate_comparison(system, sched, z0, K - 1).post_jump_states
    worst = 0.0
    for k in range(2, K + 1):
        s = sched.chis[k] + (sched.chi_max if variant == st.ADT else 0.0)
        actual = x_posts[k - 1]
        gap = np.linalg.norm(actual - expm(A, s) @ z_posts[k - 2])
        worst = max(worst, float(gap / (1.0 + np.linalg.norm(actual))))
    assert st.matching_residual(system, sched, x0, K).hex() == worst.hex()


@pytest.mark.parametrize(
    "K, calls", [(2, 1), (FLOW_BLOCK, 1), (FLOW_BLOCK + 1, 2), (2 * FLOW_BLOCK + 1, 3)]
)
def test_matching_residual_takes_its_flows_from_one_expm_call_per_flow_block(
    ref_system, ref, record_calls, K, calls
):
    sched = st.generate_schedule(0.0, ref.theta, ref.chi_max, K + 1, st.ADT, seed=K)
    log, series_log = record_calls(expm), record_calls(st.commutator_series_stack)
    assert st.matching_residual(ref_system, sched, [0.6, -0.8], K) <= 1e-8
    assert len(log) == calls
    # and its series sums from one stack per block, the lift's S(s_1) first in the first
    assert len(series_log) == calls


@pytest.mark.parametrize("variant", [st.ADT, st.ADT_PLUS])
def test_matching_residual_of_states_whose_squared_norms_overflow(variant):
    # the bitwise test's n = 8 system at K = 300: its post-jump states reach
    # 1e249, finite, but their squared norms leave float64
    rng = np.random.default_rng(68)
    A, B = rng.uniform(-1.0, 1.0, (2, 8, 8))
    sched = st.generate_schedule(0.0, 1.0, 0.3, 302, variant, seed=8)
    x0 = rng.standard_normal(8)
    assert st.matching_residual(st.ImpulsiveSystem(A=A, B=B), sched, x0, 300) <= 1e-8


def test_lifted_state_overflow_raises_convergence_error():
    # the original run stays finite; its lift is 1.47e308 times e^0.35 past the flow
    system = st.ImpulsiveSystem(A=np.diag([-0.5, 0.5]), B=np.array([[0.0, 1e308], [0.0, 0.0]]))
    sched = st.generate_schedule(0.0, 1.0, 0.3, 6, st.ADT, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(st.ConvergenceError, match="^lifted initial state overflowed$"):
            st.lifted_initial(system, [0.0, 1.0], sched.chis[1], 0.3, 1.0)
        with pytest.raises(st.ConvergenceError, match="^lifted initial state overflowed$"):
            st.matching_residual(system, sched, [0.0, 1.0], 3)


def test_matching_residual_validation(ref_system, ref):
    sched = st.generate_schedule(0.0, ref.theta, ref.chi_max, 12, st.ADT, seed=0)
    with pytest.raises(st.InputError):
        st.matching_residual(ref_system, sched, [1.0, 0.0], K=1)
    with pytest.raises(st.InputError):
        st.matching_residual(ref_system, sched, [1.0, 0.0], K=12)
    # every instant is finite, but tau_2 - tau0 = 2.3e308 is not
    sched = st.ImpulseSchedule(-1e308, 0.8e308, 0.7e308, st.ADT, (0.0, 0.0, 0.7e308))
    with pytest.raises(st.InputError, match="^tau_2 - tau0 must be finite$"):
        st.matching_residual(ref_system, sched, [1.0, 0.0], K=2)
    # tau_2 = 2e308 leaves float64: the schedule check names it
    sched = st.generate_schedule(0.0, 1e308, 0.0, 3, st.ADT, seed=0)
    with pytest.raises(st.InputError, match=r"^invalid schedule \(strictly_increasing\): tau_2 = inf"):
        st.matching_residual(ref_system, sched, [1.0, 0.0], K=2)


def test_parabolic_single_mode_reduces_to_shifted_flow(ref):
    model = st.ParabolicModel(A=ref.A, B=ref.B, mu=ref.mu, ell=ref.ell, n_modes=1)
    shifted = st.ImpulsiveSystem(A=st.mode_generator(model, 1), B=ref.B)
    sched = st.generate_schedule(0.0, 1.0, 0.1, 8, st.ADT, seed=2)
    c0 = np.array([[1.0, -0.7]])
    traj_p = st.simulate_parabolic(model, sched, c0, t_end=6.0, sample_dt=0.4)
    traj_x = st.simulate_ode(shifted, sched, c0[0], t_end=6.0, sample_dt=0.4)
    assert np.allclose(traj_p.times, traj_x.times, atol=1e-15)
    assert np.allclose(traj_p.states[:, 0, :], traj_x.states, rtol=1e-11, atol=1e-14)


def test_parabolic_zero_data_stays_zero(ref_model):
    sched = st.generate_schedule(0.0, 1.0, 0.1, 6, st.ADT, seed=0)
    traj = st.simulate_parabolic(ref_model, sched, np.zeros((32, 2)), 4.0, 0.5)
    assert np.all(traj.norms == 0.0)


def test_parabolic_modes_do_not_mix(ref):
    model = st.ParabolicModel(A=ref.A, B=ref.B, mu=ref.mu, ell=ref.ell, n_modes=4)
    sched = st.generate_schedule(0.0, 1.0, 0.1, 6, st.ADT, seed=5)
    rng = np.random.default_rng(9)
    C0 = rng.standard_normal((4, 2))
    full = st.simulate_parabolic(model, sched, C0, 4.0, 0.5)
    for j in range(4):
        iso = np.zeros_like(C0)
        iso[j] = C0[j]
        single = st.simulate_parabolic(model, sched, iso, 4.0, 0.5)
        assert np.allclose(
            single.states[:, j, :], full.states[:, j, :], rtol=1e-12, atol=1e-16
        )
        others = np.delete(single.states, j, axis=1)
        assert np.all(others == 0.0)


def test_parabolic_higher_modes_decay_faster(ref):
    # with B = id and equal initial content, one period separates adjacent
    # modes by exactly the diffusive factor exp(-(mu pi / ell)^2 (2j - 1))
    model = st.ParabolicModel(A=ref.A, B=np.eye(2), mu=ref.mu, ell=ref.ell, n_modes=5)
    sched = st.generate_schedule(0.0, 1.0, 0.0, 3, st.ADT, seed=0)
    c = np.array([0.7, -0.4])
    traj = st.simulate_parabolic(model, sched, np.tile(c, (5, 1)), 1.0, 1.0)
    at_theta = traj.states[np.where(traj.times == 1.0)[0][0]]
    ratios = np.linalg.norm(at_theta, axis=1) / np.linalg.norm(c)
    for j in range(2, 6):
        gap = np.exp(-((ref.mu * np.pi / ref.ell) ** 2) * (2 * j - 1) * 1.0)
        assert ratios[j - 1] / ratios[j - 2] == pytest.approx(gap, rel=1e-9)


def test_l2_norm_single_mode_formula(ref_model):
    C = np.zeros((32, 2))
    C[0] = [3.0, 4.0]
    expected = np.sqrt(ref_model.ell / 2.0) * 5.0
    assert st.l2_norm(ref_model, C) == pytest.approx(expected, rel=1e-15)


def test_l2_norm_matches_grid_quadrature(ref):
    # sine reconstructions are alias-free, so trapezoid sums are exact
    model = st.ParabolicModel(A=ref.A, B=ref.B, mu=ref.mu, ell=ref.ell, n_modes=8)
    rng = np.random.default_rng(0)
    C = rng.standard_normal((8, 2))
    ys = np.linspace(0.0, model.ell, 2048)
    field = np.zeros((ys.size, 2))
    for j in range(1, 9):
        field += np.outer(np.sin(j * np.pi * ys / model.ell), C[j - 1])
    quad = np.sqrt(np.trapezoid(np.sum(field**2, axis=1), ys))
    assert st.l2_norm(model, C) == pytest.approx(quad, rel=1e-6)


def test_l2_norm_shape_validation(ref_model):
    with pytest.raises(st.InputError):
        st.l2_norm(ref_model, np.zeros((32, 3)))
    with pytest.raises(st.InputError):
        st.l2_norm(ref_model, np.zeros(32))


def test_mode_generator_shift(ref_model, ref):
    G1 = st.mode_generator(ref_model, 1)
    assert np.allclose(G1, ref.A - (ref.mu * np.pi / ref.ell) ** 2 * np.eye(2))
    with pytest.raises(st.InputError):
        st.mode_generator(ref_model, 0)
    with pytest.raises(st.InputError):
        st.mode_generator(ref_model, 33)


def test_ode_csv_layout(ref_system):
    sched = st.generate_schedule(0.0, 1.0, 0.1, 4, st.ADT, seed=3)
    traj = st.simulate_ode(ref_system, sched, [1.0, 0.5], 2.5, 0.5)
    lines = st.trajectory_to_csv(traj).strip().split("\n")
    assert lines[0] == "t,norm,is_post_jump,state_0,state_1"
    assert len(lines) == len(traj.times) + 1
    first = lines[1].split(",")
    assert float(first[0]) == traj.times[0]
    assert float(first[1]) == traj.norms[0]
    assert first[2] == "0"
    flags = [int(line.split(",")[2]) for line in lines[1:]]
    assert [i for i, f in enumerate(flags) if f == 1] == list(traj.jump_indices)
    # floats survive the 17-significant-digit round trip bit for bit
    row = lines[5].split(",")
    assert float(row[3]) == traj.states[4][0]


def test_parabolic_csv_layout_and_mode_export(ref_model):
    sched = st.generate_schedule(0.0, 1.0, 0.1, 4, st.ADT, seed=3)
    rng = np.random.default_rng(1)
    C0 = rng.standard_normal((32, 2))
    traj = st.simulate_parabolic(ref_model, sched, C0, 2.0, 0.5)
    lines = st.trajectory_to_csv(traj).strip().split("\n")
    assert lines[0] == "t,l2_norm,is_post_jump"
    assert len(lines) == len(traj.times) + 1
    mlines = st.mode_csv(traj, 3).strip().split("\n")
    assert mlines[0] == "t,norm,is_post_jump,c_0,c_1"
    vals = mlines[1].split(",")
    assert float(vals[3]) == traj.states[0, 2, 0]
    with pytest.raises(st.InputError):
        st.mode_csv(traj, 33)
    ode_traj = st.simulate_ode(
        st.ImpulsiveSystem(A=ref_model.A, B=ref_model.B), sched, [1.0, 0.0], 2.0, 0.5
    )
    with pytest.raises(st.InputError):
        st.mode_csv(ode_traj, 1)


def _events(sched, t_end, dt):
    """Impulse and sample instants of a run from tau0 = 0 with t_end on the grid."""
    jumps = [float(t) for t in sched.taus[1:] if t <= t_end]
    samples = [dt * k for k in range(1, round(t_end / dt) + 1)]
    return sorted([(t, True) for t in jumps] + [(t, False) for t in samples if t not in jumps])


def _per_sample_run(x0, events, flow, jump):
    """Rows (t, state, is_post_jump), each sample propagated by its own flow call."""
    rows = [(0.0, x0, 0)]
    seg_t, seg_x = 0.0, x0
    for t, is_jump in events:
        pre = flow(seg_x, t - seg_t)
        rows.append((t, pre, 0))
        if is_jump:
            seg_t, seg_x = t, jump(pre)
            rows.append((t, seg_x, 1))
    return rows


# Relative 2-norm gap of every state to its per-sample scipy.linalg.expm
# propagation; the largest measured over the runs below is 3.8e-13 (ode,
# no_jumps, n = 4), and most of it is scipy's own error (see the closed-form
# oracles in test_linalg.py).
SCIPY_RTOL = 1e-12


def _assert_near_scipy(rows, scipy_rows):
    assert [t for t, _, _ in rows] == [t for t, _, _ in scipy_rows]
    for (_, x, _), (_, y, _) in zip(rows, scipy_rows):
        assert np.linalg.norm(x - y) <= SCIPY_RTOL * np.linalg.norm(y)


# a jittered schedule, and one whose single segment exceeds one expm stack
_ORACLE_RUNS = [
    (lambda: st.generate_schedule(0.0, 1.0, 0.3, 12, st.ADT, seed=5), 9.0, 0.25),
    (lambda: st.generate_schedule(0.0, 1.0, 0.3, 12, st.ADT_PLUS, seed=6), 9.0, 0.125),
    (lambda: st.ImpulseSchedule(0.0, 1.0, 0.0, st.ADT, (0.0,)), 3.0, 2.0**-7),
]
_ORACLE_IDS = ["adt", "adt_plus", "no_jumps"]


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("make_schedule, t_end, dt", _ORACLE_RUNS, ids=_ORACLE_IDS)
def test_ode_csv_equals_per_sample_scipy_propagation(n, make_schedule, t_end, dt):
    # the CSV has the bytes of one expm call per sample, so the stacking and
    # the FLOW_BLOCK cuts are invisible; scipy is the oracle within SCIPY_RTOL
    sched = make_schedule()
    rng = np.random.default_rng(n)
    A, B = rng.uniform(-1.0, 1.0, (2, n, n))
    x0 = rng.standard_normal(n)
    events = _events(sched, t_end, dt)
    rows = _per_sample_run(x0, events, flow=lambda x, s: expm(A, s) @ x, jump=lambda x: B @ x)
    header = "t,norm,is_post_jump," + ",".join(f"state_{i}" for i in range(n))
    oracle = "\n".join(
        [header]
        + [
            ",".join([format(t, ".17g"), format(np.linalg.norm(x), ".17g"), str(post)]
                     + [format(v, ".17g") for v in x])
            for t, x, post in rows
        ]
    ) + "\n"
    traj = st.simulate_ode(st.ImpulsiveSystem(A=A, B=B), sched, x0, t_end, dt)
    assert st.trajectory_to_csv(traj) == oracle
    scipy_rows = _per_sample_run(
        x0, events, flow=lambda x, s: scipy.linalg.expm(s * A) @ x, jump=lambda x: B @ x
    )
    _assert_near_scipy(rows, scipy_rows)


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("make_schedule, t_end, dt", _ORACLE_RUNS, ids=_ORACLE_IDS)
def test_parabolic_states_equal_per_sample_scipy_propagation(n, make_schedule, t_end, dt):
    # bytes of one expm call per sample; scipy is the oracle within SCIPY_RTOL
    sched = make_schedule()
    rng = np.random.default_rng(10 + n)
    A, B = rng.uniform(-1.0, 1.0, (2, n, n))
    mu, ell, n_modes = 0.7, 2.5, 6
    C0 = rng.standard_normal((n_modes, n))
    rates = np.array([(mu * j * math.pi / ell) ** 2 for j in range(1, n_modes + 1)])
    events = _events(sched, t_end, dt)

    def run(flow):
        return _per_sample_run(
            C0, events, flow=lambda C, s: np.exp(-rates * s)[:, None] * (C @ flow(s).T),
            jump=lambda C: C @ B.T,
        )

    rows = run(lambda s: expm(A, s))
    model = st.ParabolicModel(A=A, B=B, mu=mu, ell=ell, n_modes=n_modes)
    traj = st.simulate_parabolic(model, sched, C0, t_end, dt)
    assert traj.times.tobytes() == np.array([t for t, _, _ in rows]).tobytes()
    assert traj.states.tobytes() == np.array([C for _, C, _ in rows]).tobytes()
    _assert_near_scipy(rows, run(lambda s: scipy.linalg.expm(s * A)))


@pytest.mark.parametrize("kind", ["ode", "parabolic"])
def test_overflowing_trajectory_raises_convergence_error(kind):
    # the third jump multiplies 1e-250 by 1e600 and leaves float64
    sched = st.generate_schedule(0.0, 1.0, 0.1, 10, st.ADT, seed=0)
    A, B = np.zeros((2, 2)), 1e200 * np.eye(2)
    if kind == "ode":
        run = lambda: st.simulate_ode(st.ImpulsiveSystem(A=A, B=B), sched, [1e-250, 0.0], 8.0, 0.5)
    else:
        model = st.ParabolicModel(A=A, B=B, mu=1.0, ell=np.pi, n_modes=3)
        run = lambda: st.simulate_parabolic(model, sched, np.full((3, 2), 1e-250), 8.0, 0.5)
    with pytest.raises(st.ConvergenceError, match=rf"overflowed at t = {sched.taus[3]:g}$"):
        run()


def test_overflowing_comparison_raises_convergence_error():
    # with A = 0 every jump multiplies by 1e200, and the third leaves float64
    sched = st.generate_schedule(0.0, 1.0, 0.1, 10, st.ADT, seed=0)
    system = st.ImpulsiveSystem(A=np.zeros((2, 2)), B=1e200 * np.eye(2))
    with pytest.raises(st.ConvergenceError, match=r"overflowed at t = 3$"):
        st.simulate_comparison(system, sched, [1e-250, 0.0], 5)


def test_overflowing_comparison_jump_series_raises_convergence_error():
    # each term s^m/m! 1e308 of a jump series with s > 1.03 is finite, its sum is not
    sched = st.generate_schedule(0.0, 3.0, 0.85, 10, st.ADT, seed=0)
    B = 1e308 * np.array([[0.0, 1.0], [1.0, 0.0]])
    system = st.ImpulsiveSystem(A=0.5 * np.diag([1.0, -1.0]), B=B)
    with pytest.raises(st.ConvergenceError, match="^commutator series: running sum overflowed$"):
        st.simulate_comparison(system, sched, [1e-300, 0.0], 5)


def test_overflowing_flow_product_raises_convergence_error():
    # dt A leaves float64 for every dwell near theta = 2, although A is finite
    system = st.ImpulsiveSystem(A=np.array([[0.0, 1e308], [0.0, 0.0]]), B=np.eye(2))
    sched = st.generate_schedule(0.0, 2.0, 0.1, 6, st.ADT, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(st.ConvergenceError, match="^matrix exponential overflowed at t = "):
            st.simulate_ode(system, sched, [1.0, 0.0], 5.0, 0.5)
        with pytest.raises(st.ConvergenceError, match="^matrix exponential overflowed at t = "):
            st.matching_residual(system, sched, [1.0, 0.0], 3)


def test_modal_blocks_share_one_check(ref_model):
    sched = st.generate_schedule(0.0, 1.0, 0.1, 4, st.ADT, seed=3)
    with pytest.raises(st.InputError, match=r"^modes must have shape \(32, 2\)"):
        st.l2_norm(ref_model, np.zeros((31, 2)))
    with pytest.raises(st.InputError, match=r"init_modes must have shape \(32, 2\)"):
        st.simulate_parabolic(ref_model, sched, np.zeros((31, 2)), 2.0, 0.5)
    bad = np.zeros((32, 2))
    bad[4, 1] = np.nan
    with pytest.raises(st.InputError, match="^modes have non-finite entries$"):
        st.l2_norm(ref_model, bad)
    with pytest.raises(st.InputError, match="^init_modes have non-finite entries$"):
        st.simulate_parabolic(ref_model, sched, bad, 2.0, 0.5)


# A = 0 and B = 1e200 id: the first jump takes [3, 4] to [3e200, 4e200], a
# finite state whose squared entries leave float64; the second jump is at
# taus[2] > 1.8, so a run to t = 1.5 stays finite
HUGE_JUMP = 1e200 * np.eye(2)


def test_ode_norm_of_huge_finite_state():
    sched = st.generate_schedule(0.0, 1.0, 0.1, 10, st.ADT, seed=0)
    system = st.ImpulsiveSystem(A=np.zeros((2, 2)), B=HUGE_JUMP)
    traj = st.simulate_ode(system, sched, [3.0, 4.0], 1.5, 0.5)
    assert len(traj.jump_indices) == 1
    assert traj.post_jump_norms[0] == pytest.approx(5e200, rel=1e-15)
    assert np.all(traj.norms[: traj.jump_indices[0]] == 5.0)


def test_comparison_norm_of_huge_finite_state():
    sched = st.generate_schedule(0.0, 1.0, 0.1, 10, st.ADT, seed=0)
    system = st.ImpulsiveSystem(A=np.zeros((2, 2)), B=HUGE_JUMP)
    traj = st.simulate_comparison(system, sched, [3.0, 4.0], 1)
    assert traj.norms[:2].tolist() == [5.0, 5.0]
    assert traj.norms[2] == pytest.approx(5e200, rel=1e-15)


def test_parabolic_norm_of_huge_finite_state():
    sched = st.generate_schedule(0.0, 1.0, 0.1, 10, st.ADT, seed=0)
    model = st.ParabolicModel(A=np.zeros((2, 2)), B=HUGE_JUMP, mu=1.0, ell=np.pi, n_modes=3)
    traj = st.simulate_parabolic(model, sched, np.ones((3, 2)), 1.5, 0.5)
    (post,) = traj.jump_indices
    assert traj.norms[post] == pytest.approx(1e200 * traj.norms[post - 1], rel=1e-14)
    assert np.all(np.isfinite(traj.norms))


def test_mode_csv_norm_of_huge_finite_state():
    states = np.array([[[3.0, 4.0]], [[3e200, 4e200]]])
    traj = st.Trajectory(np.array([0.0, 1.0]), states, np.array([5.0, 5e200]), np.array([1]))
    rows = [line.split(",") for line in st.mode_csv(traj, 1).splitlines()[1:]]
    assert rows[0][1] == "5"
    assert float(rows[1][1]) == pytest.approx(5e200, rel=1e-15)


# B = 1e-170 id: the first jump takes [3, 4] to [3e-170, 4e-170], a nonzero
# state whose squared entries underflow to 0
TINY_JUMP = 1e-170 * np.eye(2)


def test_trajectory_norms_of_tiny_nonzero_states():
    sched = st.generate_schedule(0.0, 1.0, 0.1, 10, st.ADT, seed=0)
    system = st.ImpulsiveSystem(A=np.zeros((2, 2)), B=TINY_JUMP)
    ode = st.simulate_ode(system, sched, [3.0, 4.0], 1.5, 0.5)
    assert ode.post_jump_norms[0] == pytest.approx(5e-170, rel=1e-15, abs=0.0)
    assert np.all(ode.norms[: ode.jump_indices[0]] == 5.0)
    comparison = st.simulate_comparison(system, sched, [3.0, 4.0], 1)
    assert comparison.norms[:2].tolist() == [5.0, 5.0]
    assert comparison.norms[2] == pytest.approx(5e-170, rel=1e-15, abs=0.0)
    model = st.ParabolicModel(A=np.zeros((2, 2)), B=TINY_JUMP, mu=1.0, ell=np.pi, n_modes=3)
    par = st.simulate_parabolic(model, sched, np.ones((3, 2)), 1.5, 0.5)
    (post,) = par.jump_indices
    assert par.norms[post] == pytest.approx(1e-170 * par.norms[post - 1], rel=1e-14, abs=0.0)


def test_mode_csv_norm_of_a_state_whose_squares_underflow():
    # mode 4 of the bundled config at t = 22.6; its norm used to read 0
    c = [-1.3040872462331817e-162, 8.8844394188969555e-167]
    states = np.array([[[3.0, 4.0]], [c], [[0.0, -0.0]]])
    traj = st.Trajectory(np.array([0.0, 1.0, 2.0]), states, np.zeros(3), np.array([1]))
    rows = [line.split(",") for line in st.mode_csv(traj, 1).splitlines()[1:]]
    assert [rows[0][1], rows[2][1]] == ["5", "0"]
    assert float(rows[1][1]) == pytest.approx(math.hypot(*c), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_l2_norm_of_a_block_whose_squares_leave_float64(ref_model, scale):
    # pytest.approx's default abs tolerance would pass a 0 here; a
    # RuntimeWarning fails the test, as the test run turns warnings into errors
    unit = st.l2_norm(ref_model, np.ones((32, 2)))
    assert unit == math.sqrt(ref_model.ell / 2.0 * 64)
    value = st.l2_norm(ref_model, np.full((32, 2), scale))
    assert value == pytest.approx(scale * unit, rel=1e-15, abs=0.0)


def _format_oracle_csv(header, times, norms, post_rows, values):
    """CSV text built one value at a time with format(v, ".17g")."""
    post = {int(i) for i in post_rows}
    lines = [header]
    for i, t in enumerate(times):
        cells = [format(float(t), ".17g"), format(float(norms[i]), ".17g"), str(int(i in post))]
        lines.append(",".join(cells + [format(float(v), ".17g") for v in values[i]]))
    return "\n".join(lines) + "\n"


def _with_special_values(traj, norm_of):
    """traj with a -0.0 and a subnormal entry in its states, its norms taken
    row by row with norm_of."""
    states = traj.states.copy()
    states.reshape(len(states), -1)[1, 0] = -0.0
    states.reshape(len(states), -1)[2, -1] = 5e-324
    norms = np.array([norm_of(x) for x in states])
    return st.Trajectory(traj.times, states, norms, traj.jump_indices)


def test_csv_writers_equal_per_value_format_oracle(ref):
    # two segments of 512 samples each, so every segment spans several blocks
    sched = st.generate_schedule(0.0, 1.0, 0.0, 4, st.ADT, seed=0)
    t_end, dt = 2.0, 2.0**-9
    assert t_end / dt > 2 * FLOW_BLOCK
    rng = np.random.default_rng(4)
    A, B = rng.uniform(-1.0, 1.0, (2, 3, 3))
    vec = st.simulate_ode(st.ImpulsiveSystem(A=A, B=B), sched, [0.5, -1.0, 2.0], t_end, dt)
    model = st.ParabolicModel(A=ref.A, B=ref.B, mu=0.3, ell=ref.ell, n_modes=3)
    par = st.simulate_parabolic(model, sched, rng.standard_normal((3, 2)), t_end, dt)
    modal_norm = lambda C: np.sqrt(model.ell / 2.0 * np.sum(C * C))
    header = "t,norm,is_post_jump,state_0,state_1,state_2"
    for traj in (vec, _with_special_values(vec, np.linalg.norm)):
        oracle = _format_oracle_csv(
            header, traj.times, [np.linalg.norm(x) for x in traj.states], traj.jump_indices,
            traj.states,
        )
        assert st.trajectory_to_csv(traj) == oracle
    special = _with_special_values(par, modal_norm)
    assert "-0," in st.mode_csv(special, 1) and "e-324" in st.mode_csv(special, 3)
    no_values = np.empty((len(par.times), 0))
    for traj in (par, special):
        oracle = _format_oracle_csv(
            "t,l2_norm,is_post_jump", traj.times, [modal_norm(C) for C in traj.states],
            traj.jump_indices, no_values,
        )
        assert st.trajectory_to_csv(traj) == oracle
        for j in range(1, 4):
            C = traj.states[:, j - 1]
            oracle = _format_oracle_csv(
                "t,norm,is_post_jump,c_0,c_1", traj.times, [np.linalg.norm(c) for c in C],
                traj.jump_indices, C,
            )
            assert st.mode_csv(traj, j) == oracle


def test_csv_writers_reject_nan_state():
    times, posts = np.array([0.0, 1.0, 1.0]), np.array([2])
    vec = st.Trajectory(times, np.array([[1.0, 0.0], [np.nan, 0.0], [1.0, 0.0]]),
                        np.ones(3), posts)
    with pytest.raises(ValueError, match="^cannot serialize non-finite value"):
        st.trajectory_to_csv(vec)
    states = np.ones((3, 2, 2))
    states[1, 1, 0] = np.nan
    par = st.Trajectory(times, states, np.array([1.0, np.nan, 1.0]), posts)
    with pytest.raises(ValueError, match="^cannot serialize non-finite value"):
        st.trajectory_to_csv(par)
    with pytest.raises(ValueError, match="^cannot serialize non-finite value"):
        st.mode_csv(par, 2)
    st.mode_csv(par, 1)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_trajectory_norms_equal_per_row_norms(n):
    sched = st.generate_schedule(0.0, 1.0, 0.3, 12, st.ADT, seed=n)
    rng = np.random.default_rng(20 + n)
    A, B = rng.uniform(-1.0, 1.0, (2, n, n))
    system = st.ImpulsiveSystem(A=A, B=B)
    for traj in (
        st.simulate_ode(system, sched, rng.standard_normal(n), 9.0, 0.05),
        st.simulate_comparison(system, sched, rng.standard_normal(n), 10),
    ):
        assert np.array_equal(traj.norms, [np.linalg.norm(x) for x in traj.states])
    model = st.ParabolicModel(A=A, B=B, mu=0.7, ell=2.5, n_modes=5)
    traj = st.simulate_parabolic(model, sched, rng.standard_normal((5, n)), 9.0, 0.05)
    expected = [np.sqrt(model.ell / 2.0 * np.sum(C * C)) for C in traj.states]
    assert np.array_equal(traj.norms, expected)
