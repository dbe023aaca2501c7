"""Metamorphic relation of the three simulators: every run is linear in its
initial data, and scaling by 2^k rounds nothing, so scaling x0, z0 or
init_modes by 2^k scales every state and every norm by exactly 2^k.

The runs stay away from underflow and overflow: at most three modes of
dimension at most 3, a short t_end, and |k| <= 40.  A case that breaks the
relation is a finding about the simulators, not a tolerance to widen.
Needs numpy and hypothesis only.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs

import adtstab as st

CASES = dict(
    seed=hs.integers(0, 2**32 - 1),
    n=hs.integers(1, 3),
    k=hs.integers(-40, 40),
)


def _draws(seed: int, n: int):
    rng = np.random.default_rng(seed)
    A, B = rng.uniform(-1.0, 1.0, (2, n, n))
    sched = st.generate_schedule(0.0, 1.0, 0.2, 6, st.ADT, seed=seed)
    return rng, A, B, sched


def _assert_scaled(base: st.Trajectory, scaled: st.Trajectory, k: int) -> None:
    # the relation holds away from underflow: no state entry is close to it
    assert np.all((base.states == 0.0) | (np.abs(base.states) > 2.0**-900))
    assert np.array_equal(scaled.times, base.times)
    assert np.array_equal(scaled.jump_indices, base.jump_indices)
    assert np.array_equal(scaled.states, np.ldexp(base.states, k))
    assert np.array_equal(scaled.norms, np.ldexp(base.norms, k))


@settings(max_examples=60, deadline=None)
@given(**CASES)
def test_simulate_ode_is_exactly_homogeneous(seed, n, k):
    rng, A, B, sched = _draws(seed, n)
    system = st.ImpulsiveSystem(A=A, B=B)
    x0 = rng.standard_normal(n)
    base = st.simulate_ode(system, sched, x0, 3.5, 0.25)
    _assert_scaled(base, st.simulate_ode(system, sched, np.ldexp(x0, k), 3.5, 0.25), k)


@settings(max_examples=60, deadline=None)
@given(**CASES)
def test_simulate_comparison_is_exactly_homogeneous(seed, n, k):
    rng, A, B, sched = _draws(seed, n)
    system = st.ImpulsiveSystem(A=A, B=B)
    z0 = rng.standard_normal(n)
    base = st.simulate_comparison(system, sched, z0, 4)
    _assert_scaled(base, st.simulate_comparison(system, sched, np.ldexp(z0, k), 4), k)


@settings(max_examples=60, deadline=None)
@given(n_modes=hs.integers(1, 3), **CASES)
def test_simulate_parabolic_is_exactly_homogeneous(seed, n, k, n_modes):
    rng, A, B, sched = _draws(seed, n)
    model = st.ParabolicModel(A=A, B=B, mu=1.0, ell=np.pi, n_modes=n_modes)
    C0 = rng.standard_normal((n_modes, n))
    base = st.simulate_parabolic(model, sched, C0, 2.0, 0.25)
    _assert_scaled(base, st.simulate_parabolic(model, sched, np.ldexp(C0, k), 2.0, 0.25), k)
