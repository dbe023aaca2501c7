import math

import numpy as np
import pytest
import scipy.linalg

import adtstab as st
from adtstab.linalg import expm


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


def test_matching_residual_small_on_seeded_schedules(ref_system, ref):
    for variant, seeds in ((st.ADT, (0, 1, 2)), (st.ADT_PLUS, (3, 4))):
        for seed in seeds:
            sched = st.generate_schedule(0.0, ref.theta, ref.chi_max, 12, variant, seed)
            rng = np.random.default_rng(100 + seed)
            r = st.matching_residual(ref_system, sched, _unit(rng, 2), K=10)
            assert r <= 1e-8


def test_matching_residual_validation(ref_system, ref):
    sched = st.generate_schedule(0.0, ref.theta, ref.chi_max, 12, st.ADT, seed=0)
    with pytest.raises(st.InputError):
        st.matching_residual(ref_system, sched, [1.0, 0.0], K=1)
    with pytest.raises(st.InputError):
        st.matching_residual(ref_system, sched, [1.0, 0.0], K=12)


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


def _scipy_events(sched, t_end, dt):
    """Impulse and sample instants of a run from tau0 = 0 with t_end on the grid."""
    jumps = [float(t) for t in sched.taus[1:] if t <= t_end]
    samples = [dt * k for k in range(1, round(t_end / dt) + 1)]
    return sorted([(t, True) for t in jumps] + [(t, False) for t in samples if t not in jumps])


def _scipy_run(x0, events, flow, jump):
    """Rows (t, state, is_post_jump), each sample propagated by its own scipy expm."""
    rows = [(0.0, x0, 0)]
    seg_t, seg_x = 0.0, x0
    for t, is_jump in events:
        pre = flow(seg_x, t - seg_t)
        rows.append((t, pre, 0))
        if is_jump:
            seg_t, seg_x = t, jump(pre)
            rows.append((t, seg_x, 1))
    return rows


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
    sched = make_schedule()
    rng = np.random.default_rng(n)
    A, B = rng.uniform(-1.0, 1.0, (2, n, n))
    x0 = rng.standard_normal(n)
    rows = _scipy_run(
        x0,
        _scipy_events(sched, t_end, dt),
        flow=lambda x, s: scipy.linalg.expm(s * A) @ x,
        jump=lambda x: B @ x,
    )
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


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("make_schedule, t_end, dt", _ORACLE_RUNS, ids=_ORACLE_IDS)
def test_parabolic_states_equal_per_sample_scipy_propagation(n, make_schedule, t_end, dt):
    sched = make_schedule()
    rng = np.random.default_rng(10 + n)
    A, B = rng.uniform(-1.0, 1.0, (2, n, n))
    mu, ell, n_modes = 0.7, 2.5, 6
    C0 = rng.standard_normal((n_modes, n))
    rates = np.array([(mu * j * math.pi / ell) ** 2 for j in range(1, n_modes + 1)])
    rows = _scipy_run(
        C0,
        _scipy_events(sched, t_end, dt),
        flow=lambda C, s: np.exp(-rates * s)[:, None] * (C @ scipy.linalg.expm(s * A).T),
        jump=lambda C: C @ B.T,
    )
    model = st.ParabolicModel(A=A, B=B, mu=mu, ell=ell, n_modes=n_modes)
    traj = st.simulate_parabolic(model, sched, C0, t_end, dt)
    assert traj.times.tobytes() == np.array([t for t, _, _ in rows]).tobytes()
    assert traj.states.tobytes() == np.array([C for _, C, _ in rows]).tobytes()


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
