"""Exact piecewise simulation of impulsive flows.

Between impulse instants every state is obtained from the segment's
post-jump state by a matrix exponential, so there is no time-stepping
error beyond the accuracy of expm itself.  Every event's offset dt from
its segment's post-jump time is taken up front, and the flows at each
FLOW_BLOCK consecutive offsets of a run come from one expm(A, dts) call,
across segment boundaries; states go into one preallocated array, and
norms and CSV rows are formed per array, not per state.  Three simulators
are provided: the original system on its jittered schedule, the
dwell-normalized comparison system on the uniform grid, and a parabolic
model whose sine modes evolve independently under shifted generators.
matching_residual checks the comparison construction on a run in one pass
over its jumps: it steps the original and the comparison system side by
side, with the bits of the simulators, and takes every flow and series sum
it needs from one expm call and one series stack per FLOW_BLOCK jumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .commutators import commutator_series_stack
from .errors import ConvergenceError, InputError
from .linalg import _diffusive_rate, as_vector, check_positive, expm
from .schedules import ImpulseSchedule, _lowest_deviation, require_valid
from .serialize import fmt
from .systems import ImpulsiveSystem, _deviation_span, _lift

__all__ = [
    "Trajectory",
    "ParabolicModel",
    "mode_generator",
    "l2_norm",
    "simulate_ode",
    "simulate_comparison",
    "simulate_parabolic",
    "matching_residual",
    "trajectory_to_csv",
    "mode_csv",
]


@dataclass(frozen=True)
class Trajectory:
    """Sampled impulsive trajectory.

    states has shape (S, n) for vector flows and (S, n_modes, n) for
    parabolic runs.  Impulse instants contribute two consecutive samples,
    pre-jump then post-jump; jump_indices points at the post-jump rows.
    """

    times: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    jump_indices: np.ndarray

    @property
    def post_jump_states(self) -> np.ndarray:
        return self.states[self.jump_indices]

    @property
    def post_jump_times(self) -> np.ndarray:
        return self.times[self.jump_indices]

    @property
    def post_jump_norms(self) -> np.ndarray:
        return self.norms[self.jump_indices]


@dataclass(frozen=True)
class ParabolicModel(ImpulsiveSystem):
    """Diffusion-coupled linear dynamics on (0, ell) with Dirichlet ends.

    Sine mode j evolves with generator A - mu^2 (j pi / ell)^2 id and all
    modes share the jump operator B, so the modal picture decouples.
    """

    mu: float
    ell: float
    n_modes: int

    def __post_init__(self):
        super().__post_init__()
        check_positive(mu=self.mu, ell=self.ell)
        if not 1 <= int(self.n_modes) <= np.iinfo(np.intp).max:
            raise InputError(f"n_modes must be in 1..{np.iinfo(np.intp).max}, got {self.n_modes}")
        object.__setattr__(self, "n_modes", int(self.n_modes))

    def decay_rate(self, j: int) -> float:
        """Diffusive shift mu^2 (j pi / ell)^2 of mode j; one that leaves
        float64 raises ConvergenceError."""
        if not 1 <= j <= self.n_modes:
            raise InputError(f"mode index {j} outside 1..{self.n_modes}")
        rate = _diffusive_rate(self.mu, self.ell, j)
        if rate == np.inf:
            raise ConvergenceError(
                f"diffusive rate overflowed at mu = {self.mu:g}, ell = {self.ell:g}, j = {j}"
            )
        return rate


def mode_generator(model: ParabolicModel, j: int) -> np.ndarray:
    """Generator of mode j: A - mu^2 (j pi / ell)^2 id."""
    return model.A - model.decay_rate(j) * np.eye(model.n)


def _as_modes(model: ParabolicModel, modes, name: str = "modes") -> np.ndarray:
    """Coerce a finite (n_modes, n) block of sine-mode coefficients."""
    C = np.asarray(modes, dtype=float)
    if C.shape != (model.n_modes, model.n):
        raise InputError(
            f"{name} must have shape ({model.n_modes}, {model.n}), got {C.shape}"
        )
    if not np.all(np.isfinite(C)):
        raise InputError(f"{name} have non-finite entries")
    return C


def _vector_norms(S: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of S, with the bits of np.linalg.norm(row),
    which is sqrt(dot(row, row)); np.linalg.norm(S, axis=1) differs."""
    return np.sqrt((S[:, None, :] @ S[:, :, None])[:, 0, 0])


def _modal_norms(ell: float, S: np.ndarray) -> np.ndarray:
    """L2 norm sqrt(ell/2 * sum_j |c_j|^2) of each (n_modes, n) block of S."""
    return np.sqrt(ell / 2.0 * np.sum(S * S, axis=(1, 2)))


def l2_norm(model: ParabolicModel, modes) -> float:
    """L2 norm sqrt(ell/2 * sum_j |c_j|^2) of a sine-mode coefficient block."""
    return float(_rescaled(_as_modes(model, modes)[None], partial(_modal_norms, model.ell))[0])


# most offsets in one expm call, and states per norm call; bounds working memory
FLOW_BLOCK = 256


def _rescaled(states: np.ndarray, norms_of) -> np.ndarray:
    """norms_of(states), with each norm that overflowed or fell below
    sqrt(tiny), where squared entries underflow, recomputed as
    s * norm(x / s) for its state x.  s is 2^-600 for a small norm and 2^600
    for a large one: a power of two scales without rounding, and the scaled
    squares stay in range.  Both norms are homogeneous, so this is the same
    norm without the overflow or underflow; a zero or non-finite state keeps
    its norm, and so does every norm in range."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = norms_of(states)
        rows = np.flatnonzero(~((norms >= np.sqrt(np.finfo(float).tiny)) & (norms < np.inf)))
        if rows.size:
            s = np.where(norms[rows] < 1.0, 2.0**-600, 2.0**600)
            norms[rows] = s * norms_of(states[rows] / s.reshape(-1, *[1] * (states.ndim - 1)))
    return norms


def _trajectory(times, states, jump_rows, norms_of) -> Trajectory:
    """Assemble a Trajectory with norms_of(states) as its norms; a norm that
    overflows even after rescaling (see _rescaled) raises ConvergenceError
    naming its time."""
    # FLOW_BLOCK rows at a time, so no temporary spans the trajectory
    norms = np.concatenate(
        [_rescaled(states[i:i + FLOW_BLOCK], norms_of) for i in range(0, len(states), FLOW_BLOCK)]
    )
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise ConvergenceError(f"trajectory norm overflowed at t = {times[bad[0]]:g}")
    return Trajectory(times, states, norms, jump_rows)


def _run_events(x0, schedule, t_end, sample_dt, A, evolve, jump, norms_of) -> Trajectory:
    """Shared event loop of a sampled run from tau_0 to t_end.

    The schedule, t_end and sample_dt are checked here, and a run whose
    sample count, or the byte size of its float64 sample arrays, leaves the
    index range is refused before anything is allocated.  Every event's offset
    dt from its segment's post-jump time is taken up front, and the flows
    at each FLOW_BLOCK consecutive offsets of the run come from one
    expm(A, dts) call, across segment boundaries; a chunk's flows are used
    up before the next is formed.  evolve(state, dts, flows, out) writes the
    exact states at offsets dts from state into out, and jump maps the
    pre-jump state of an impulse to its post-jump state.
    """
    require_valid(schedule)
    if not (np.isfinite(t_end) and t_end > schedule.tau0):
        raise InputError("t_end must exceed tau0")
    if not (np.isfinite(sample_dt) and sample_dt > 0.0):
        raise InputError("sample_dt must be > 0")
    tau0, t_end, sample_dt = schedule.tau0, float(t_end), float(sample_dt)
    n_samples = (t_end - tau0) / sample_dt + 1e-9
    if not n_samples <= np.iinfo(np.intp).max:
        raise InputError(f"run of {n_samples:g} samples is beyond the index range")
    if not 8.0 * n_samples <= np.iinfo(np.intp).max:  # bytes of one float64 sample array
        raise InputError(
            f"run of {n_samples:g} samples takes {8.0 * n_samples:g} bytes, beyond the index range"
        )
    jump_times = [float(t) for t in schedule.taus[1:] if t <= t_end]
    samples = tau0 + sample_dt * np.arange(1, int(n_samples) + 1)
    samples = samples[samples <= t_end + 1e-12 * max(1.0, abs(t_end))]
    ts = np.concatenate([jump_times, samples[~np.isin(samples, jump_times)]])
    if not np.any(ts == t_end):
        ts = np.append(ts, t_end)
    order = np.argsort(ts, kind="stable")
    ts, is_jump = ts[order], order < len(jump_times)
    segment = np.cumsum(is_jump) - is_jump  # impulses before each event
    dts = ts - np.concatenate(([float(tau0)], ts[is_jump]))[segment]
    # a jump event has two rows, pre-jump then post-jump; rows[i] is the first
    rows = 1 + np.arange(len(ts)) + segment
    states = np.empty((len(ts) + 1 + int(is_jump.sum()), *x0.shape))
    states[0] = x = x0
    ends = np.union1d(np.flatnonzero(is_jump) + 1, np.r_[FLOW_BLOCK:len(ts):FLOW_BLOCK, len(ts)])
    begin = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for stop in ends.tolist():
            at = begin % FLOW_BLOCK
            if at == 0:
                flows = expm(A, dts[begin:begin + FLOW_BLOCK])
            row, count = rows[begin], stop - begin
            evolve(x, dts[begin:stop], flows[at:at + count], states[row:row + count])
            if is_jump[stop - 1]:
                states[row + count] = x = jump(states[row + count - 1])
            begin = stop
    times = np.repeat(np.concatenate(([float(tau0)], ts)), np.concatenate(([1], 1 + is_jump)))
    return _trajectory(times, states, rows[is_jump] + 1, norms_of)


def simulate_ode(
    system: ImpulsiveSystem,
    schedule: ImpulseSchedule,
    x0,
    t_end: float,
    sample_dt: float,
) -> Trajectory:
    """Simulate the impulsive flow from tau_0 with exact segment propagation."""
    x0 = as_vector(x0, system.n)
    return _run_events(
        x0,
        schedule,
        t_end,
        sample_dt,
        system.A,
        evolve=lambda x, dts, flows, out: np.matmul(flows, x, out=out),
        jump=lambda x: system.B @ x,
        norms_of=_vector_norms,
    )


def simulate_comparison(
    system: ImpulsiveSystem,
    schedule: ImpulseSchedule,
    z0,
    K: int,
) -> Trajectory:
    """Evolve the comparison system on the uniform grid for K periods.

    The jump at k*theta uses the upcoming deviation chi_{k+1}, so the
    schedule must carry deviations up to index K + 1.  Its jumps come from
    one stacked commutator series per FLOW_BLOCK jumps, with the bits of
    comparison_jump(...).J for each jump alone.
    """
    require_valid(schedule)
    if K < 1:
        raise InputError("K must be >= 1")
    if len(schedule) < K + 2:
        raise InputError(
            f"schedule provides {len(schedule)} deviations; "
            f"K = {K} needs at least {K + 2} (jump at K*theta uses chi_(K+1))"
        )
    z0 = as_vector(z0, system.n)
    K = int(K)
    lo = _lowest_deviation(schedule.chi_max, schedule.variant)
    spans = np.asarray(schedule.chis[2:K + 2]) - lo  # chi_(k+1) - lo, each in its window
    states = np.empty((2 * K + 1, system.n))
    states[0] = z0
    E = expm(system.A, schedule.theta)
    for first in range(0, K, FLOW_BLOCK):
        J = commutator_series_stack(system.A, system.B, spans[first:first + FLOW_BLOCK])[0]
        _comparison_steps(E, J, states[2 * first:])
    return _jump_trajectory(schedule.theta * np.arange(K + 1), states)


def _comparison_steps(E: np.ndarray, J: np.ndarray, states: np.ndarray) -> None:
    """Step the comparison system from states[0] across the jumps S(s_k) stacked in J:
    rows 2k - 1 and 2k get pre = E @ z, with E = e^(theta A), and J[k-1] @ pre."""
    z = states[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k, S in enumerate(J, 1):
            states[2 * k - 1] = pre = E @ z
            states[2 * k] = z = S @ pre


def _jump_trajectory(grid: np.ndarray, states: np.ndarray) -> Trajectory:
    """The checked Trajectory of a vector run from grid[0] whose only events
    are its jumps at grid[1:], with rows laid out as simulate_ode lays them."""
    jumps = len(grid) - 1
    times = np.repeat(grid, [1] + [2] * jumps)
    return _trajectory(times, states, 2 * np.arange(1, jumps + 1), _vector_norms)


def matching_residual(
    system: ImpulsiveSystem,
    schedule: ImpulseSchedule,
    x0,
    K: int,
) -> float:
    """Worst normalized mismatch between the original post-jump states and
    their comparison-system predictions.

    The lifted construction predicts x(tau_k+) = e^(s_k A) zhat((k-1) theta+)
    with s_k = chi_k + chi_max ("adt") or s_k = chi_k ("adt_plus"); for
    matrices the identity is exact, so the residual is numerical noise.

    One pass over the jumps, with the bits of simulate_ode, lifted_initial
    and simulate_comparison composed.  Per FLOW_BLOCK jumps one expm call
    gives the flows over the dwells tau_k - tau_(k-1), the lift's flow,
    E = e^(theta A) and the flows over the shifts s_k, and one series stack
    gives the jumps S(s_k), led by the lift's S(s_1) in the first block;
    both chains are checked as those simulators check them.
    """
    if K < 2:
        raise InputError("K must be >= 2")
    if len(schedule) < K + 1:
        raise InputError(
            f"schedule provides {len(schedule)} deviations; horizon K = {K} "
            f"needs at least {K + 1}"
        )
    x0 = as_vector(x0, system.n)
    require_valid(schedule)  # also the window check of lifted_initial
    taus = schedule.taus[:K + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(taus[K] - schedule.tau0):
            raise InputError(f"tau_{K} - tau0 must be finite")
        theta, chi_max, variant = schedule.theta, schedule.chi_max, schedule.variant
        s_1 = _deviation_span(schedule.chis[1], chi_max, variant)
        lo = _lowest_deviation(chi_max, variant)
        dwells = np.diff(taus)
        shifts = np.asarray(schedule.chis[2:K + 1]) - lo  # s_k, k = 2..K
        # x0, then the pre-jump and post-jump states at tau_k in rows 2k - 1 and
        # 2k; zs likewise at k theta, from the lifted state
        xs, zs = np.empty((2 * K + 1, system.n)), np.empty((2 * K - 1, system.n))
        predicted = np.empty((K - 1, system.n))  # e^(s_k A) zhat((k-1) theta+)
        xs[0] = x = x0
        for first in range(0, K, FLOW_BLOCK):
            d, s = dwells[first:first + FLOW_BLOCK], shifts[first:first + FLOW_BLOCK]
            flows = expm(system.A, np.concatenate((d, [theta + lo, theta], s)))
            for k, F in enumerate(flows[:len(d)], first + 1):
                xs[2 * k - 1] = pre = F @ x
                xs[2 * k] = x = system.B @ pre
            # the lift's S(s_1) leads the first block's stack
            J = commutator_series_stack(system.A, system.B, np.r_[s_1, s] if not first else s)[0]
            if not first:
                zs[0] = _lift(J[0], flows[len(d)], x0)
                J = J[1:]
            _comparison_steps(flows[len(d) + 1], J, zs[2 * first:])
            z_posts = zs[2 * np.arange(first + 1, first + len(s) + 1)]
            predicted[first:first + len(s)] = (flows[len(d) + 2:] @ z_posts[:, :, None])[:, :, 0]
    actual = _jump_trajectory(taus, xs)
    _jump_trajectory(theta * np.arange(K), zs)
    gaps = _rescaled(actual.post_jump_states[1:] - predicted, _vector_norms)
    return float(np.max(gaps / (1.0 + actual.post_jump_norms[1:])))


def simulate_parabolic(
    model: ParabolicModel,
    schedule: ImpulseSchedule,
    init_modes,
    t_end: float,
    sample_dt: float,
) -> Trajectory:
    """Simulate the parabolic model's sine-mode coefficients.

    Mode generators differ from A by multiples of the identity, so a segment
    of length dt maps mode j through exp(-rate_j dt) * e^(A dt); the modes
    never couple and the jump applies B to every coefficient vector.
    """
    C0 = _as_modes(model, init_modes, "init_modes")
    rates = np.array([model.decay_rate(j) for j in range(1, model.n_modes + 1)])

    def evolve(C, dts, flows, out):
        decay = np.exp(-rates[None] * dts[:, None])[:, :, None]
        np.multiply(decay, C @ flows.transpose(0, 2, 1), out=out)

    return _run_events(
        C0,
        schedule,
        t_end,
        sample_dt,
        model.A,
        evolve=evolve,
        jump=lambda C: C @ model.B.T,
        norms_of=partial(_modal_norms, model.ell),
    )


def _csv(header: str, times, norms, post_rows, values: np.ndarray) -> str:
    """CSV rows t,norm,is_post_jump,values... with 17-significant-digit floats;
    a non-finite entry raises fmt's ValueError, naming the first one."""
    M = np.column_stack([times, norms, np.zeros(len(times)), values])
    M[post_rows, 2] = 1.0
    bad = np.flatnonzero(~np.isfinite(M))
    if bad.size:
        fmt(M.flat[bad[0]])  # raises
    # "%.17g" % v is format(v, ".17g"), -0.0 and subnormals included
    row = ",".join(["%.17g", "%.17g", "%d"] + ["%.17g"] * values.shape[1])
    return "\n".join([header, *(row % r for r in map(tuple, M.tolist()))]) + "\n"


def trajectory_to_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV with 17-significant-digit floats.

    Vector runs emit t,norm,is_post_jump,state_0..state_{n-1}; parabolic
    runs emit t,l2_norm,is_post_jump (per-mode data goes through mode_csv).
    """
    if traj.states.ndim == 2:
        n = traj.states.shape[1]
        header = "t,norm,is_post_jump," + ",".join(f"state_{i}" for i in range(n))
        values = traj.states
    else:
        header = "t,l2_norm,is_post_jump"
        values = np.empty((len(traj.times), 0))
    return _csv(header, traj.times, traj.norms, traj.jump_indices, values)


def mode_csv(traj: Trajectory, j: int) -> str:
    """Per-mode CSV t,norm,is_post_jump,c_0..c_{n-1} for sine mode j."""
    if traj.states.ndim != 3:
        raise InputError("mode_csv needs a parabolic trajectory")
    n_modes = traj.states.shape[1]
    if not 1 <= j <= n_modes:
        raise InputError(f"mode index {j} outside 1..{n_modes}")
    C = traj.states[:, j - 1]
    header = "t,norm,is_post_jump," + ",".join(f"c_{i}" for i in range(C.shape[1]))
    return _csv(header, traj.times, _rescaled(C, _vector_norms), traj.jump_indices, C)
