"""Exact piecewise simulation of impulsive flows.

Between impulse instants every state is obtained from the segment's
post-jump state by a matrix exponential, so there is no time-stepping
error beyond the accuracy of expm itself; the exponentials of one segment
are taken in a single stacked expm call.  Three simulators are
provided: the original system on its jittered schedule, the
dwell-normalized comparison system on the uniform grid, and a parabolic
model whose sine modes evolve independently under shifted generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .commutators import commutator_series_stack
from .errors import ConvergenceError, InputError
from .linalg import as_vector, check_positive, expm
from .schedules import ADT, ImpulseSchedule, require_valid
from .serialize import fmt
from .systems import ImpulsiveSystem, _deviation_span, lifted_initial

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
        if int(self.n_modes) < 1:
            raise InputError("n_modes must be >= 1")
        object.__setattr__(self, "n_modes", int(self.n_modes))

    def decay_rate(self, j: int) -> float:
        """Diffusive shift mu^2 (j pi / ell)^2 of mode j."""
        if not 1 <= j <= self.n_modes:
            raise InputError(f"mode index {j} outside 1..{self.n_modes}")
        return float((self.mu * j * math.pi / self.ell) ** 2)


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


def _l2(ell: float, C: np.ndarray) -> float:
    return float(np.sqrt(ell / 2.0 * np.sum(C * C)))


def l2_norm(model: ParabolicModel, modes) -> float:
    """L2 norm sqrt(ell/2 * sum_j |c_j|^2) of a sine-mode coefficient block."""
    return _l2(model.ell, _as_modes(model, modes))


def _sample_grid(tau0: float, t_end: float, sample_dt: float) -> np.ndarray:
    span = t_end - tau0
    n = int(math.floor(span / sample_dt + 1e-9))
    ts = tau0 + sample_dt * np.arange(1, n + 1)
    return ts[ts <= t_end + 1e-12 * max(1.0, abs(t_end))]


# most sample offsets in one stacked expm call; bounds its working memory
FLOW_BLOCK = 256


def _rescaled(norms: np.ndarray, states: np.ndarray, norm_of) -> np.ndarray:
    """norms[i] = norm_of(states[i]), with each one that overflowed although
    its state is finite recomputed as s * norm_of(x / s), s = max |x|; both
    norms are homogeneous, so this is the same norm without the overflow."""
    for i in np.flatnonzero(~np.isfinite(norms)):
        x = states[i]
        if np.all(np.isfinite(x)):
            s = np.max(np.abs(x))
            norms[i] = s * norm_of(x / s)
    return norms


def _trajectory(times, states, norms, jump_rows, norm_of) -> Trajectory:
    """Assemble a Trajectory; a norm that overflows even after rescaling
    (see _rescaled) raises ConvergenceError naming its time."""
    states = np.asarray(states)
    with np.errstate(over="ignore"):
        norms = _rescaled(np.asarray(norms, dtype=float), states, norm_of)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise ConvergenceError(f"trajectory norm overflowed at t = {times[bad[0]]:g}")
    return Trajectory(np.asarray(times), states, norms, np.asarray(jump_rows, dtype=int))


def _run_events(x0, tau0, jump_times, t_end, sample_dt, A, evolve, jump, norm_of) -> Trajectory:
    """Shared event loop.

    The offsets dt of each inter-impulse segment's events from its post-jump
    state go through one stacked expm of A (at most FLOW_BLOCK at a time);
    evolve(state, dt, e^(dt A)) must be exact for the flow.
    """
    jump_set = set(float(t) for t in jump_times)
    events = [(float(t), True) for t in jump_times]
    events += [
        (float(t), False) for t in _sample_grid(tau0, t_end, sample_dt)
        if float(t) not in jump_set
    ]
    if t_end not in jump_set and not any(t == t_end for t, _ in events):
        events.append((float(t_end), False))
    events.sort()

    times = [float(tau0)]
    states = [x0]
    norms = [norm_of(x0)]
    jump_rows = []
    seg_t, seg_x = float(tau0), x0
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while start < len(events):
            stop = min(start + FLOW_BLOCK, len(events))
            stop = next((i + 1 for i in range(start, stop) if events[i][1]), stop)
            block = events[start:stop]
            start = stop
            dts = np.array([t - seg_t for t, _ in block])
            flows = expm(dts[:, None, None] * A)
            for (t, is_jump), dt, flow in zip(block, dts, flows):
                pre = evolve(seg_x, dt, flow)
                times.append(t)
                states.append(pre)
                norms.append(norm_of(pre))
                if is_jump:
                    post = jump(pre)
                    times.append(t)
                    states.append(post)
                    norms.append(norm_of(post))
                    jump_rows.append(len(times) - 1)
                    seg_t, seg_x = t, post
    return _trajectory(times, states, norms, jump_rows, norm_of)


def _jump_times(schedule: ImpulseSchedule, t_end: float, sample_dt: float) -> list[float]:
    """Validate a sampled run from tau_0 to t_end; return its impulse instants."""
    require_valid(schedule)
    if not (np.isfinite(t_end) and t_end > schedule.tau0):
        raise InputError("t_end must exceed tau0")
    if not (np.isfinite(sample_dt) and sample_dt > 0.0):
        raise InputError("sample_dt must be > 0")
    return [float(t) for t in schedule.taus[1:] if t <= t_end]


def simulate_ode(
    system: ImpulsiveSystem,
    schedule: ImpulseSchedule,
    x0,
    t_end: float,
    sample_dt: float,
) -> Trajectory:
    """Simulate the impulsive flow from tau_0 with exact segment propagation."""
    jump_times = _jump_times(schedule, t_end, sample_dt)
    x0 = as_vector(x0, system.n)
    A, B = system.A, system.B
    return _run_events(
        x0,
        schedule.tau0,
        jump_times,
        float(t_end),
        float(sample_dt),
        A,
        evolve=lambda x, dt, flow: flow @ x,
        jump=lambda x: B @ x,
        norm_of=lambda x: float(np.linalg.norm(x)),
    )


def simulate_comparison(
    system: ImpulsiveSystem,
    schedule: ImpulseSchedule,
    z0,
    K: int,
) -> Trajectory:
    """Evolve the comparison system on the uniform grid for K periods.

    The jump at k*theta uses the upcoming deviation chi_{k+1}, so the
    schedule must carry deviations up to index K + 1.  Its corrections come
    from one stacked commutator series per FLOW_BLOCK jumps, with the bits
    of comparison_jump(...).G for each jump alone.
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
    theta = schedule.theta
    spans = [
        _deviation_span(chi, schedule.chi_max, schedule.variant)
        for chi in schedule.chis[2:int(K) + 2]
    ]
    E = expm(system.A, theta)

    times = [0.0]
    states = [z0]
    jump_rows = []
    z = z0
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, len(spans), FLOW_BLOCK):
            G = commutator_series_stack(
                system.A, system.B, spans[first:first + FLOW_BLOCK], start=1
            )[0]
            for k, J in enumerate(system.B + G, start=first + 1):
                pre = E @ z
                times.append(k * theta)
                states.append(pre)
                z = J @ pre
                times.append(k * theta)
                states.append(z)
                jump_rows.append(len(times) - 1)
        norms = np.linalg.norm(states, axis=1)
    return _trajectory(times, states, norms, jump_rows, np.linalg.norm)


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
    """
    if K < 2:
        raise InputError("K must be >= 2")
    if len(schedule) < K + 1:
        raise InputError(
            f"schedule provides {len(schedule)} deviations; horizon K = {K} "
            f"needs at least {K + 1}"
        )
    x0 = as_vector(x0, system.n)
    taus = schedule.taus
    span = float(taus[K] - schedule.tau0)
    traj_x = simulate_ode(system, schedule, x0, t_end=float(taus[K]), sample_dt=span)
    x_posts = traj_x.post_jump_states  # x(tau_k+), k = 1..K

    z0 = lifted_initial(
        system, x0, schedule.chis[1], schedule.chi_max, schedule.theta, schedule.variant
    )
    traj_z = simulate_comparison(system, schedule, z0, K - 1)
    z_posts = [z0] + list(traj_z.post_jump_states)  # zhat(k theta+), k = 0..K-1

    offset = schedule.chi_max if schedule.variant == ADT else 0.0
    shifts = np.asarray(schedule.chis[2:K + 1]) + offset  # s_k, k = 2..K
    flows = expm(shifts[:, None, None] * system.A)
    worst = 0.0
    for k in range(2, int(K) + 1):
        predicted = flows[k - 2] @ z_posts[k - 1]
        actual = x_posts[k - 1]
        r = float(
            np.linalg.norm(actual - predicted) / (1.0 + np.linalg.norm(actual))
        )
        worst = max(worst, r)
    return worst


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
    jump_times = _jump_times(schedule, t_end, sample_dt)
    C0 = _as_modes(model, init_modes, "init_modes")
    rates = np.array([model.decay_rate(j) for j in range(1, model.n_modes + 1)])
    A, B = model.A, model.B

    def evolve(C, dt, flow):
        return np.exp(-rates * dt)[:, None] * (C @ flow.T)

    return _run_events(
        C0,
        schedule.tau0,
        jump_times,
        float(t_end),
        float(sample_dt),
        A,
        evolve=evolve,
        jump=lambda C: C @ B.T,
        norm_of=lambda C: _l2(model.ell, C),
    )


def trajectory_to_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV with 17-significant-digit floats.

    Vector runs emit t,norm,is_post_jump,state_0..state_{n-1}; parabolic
    runs emit t,l2_norm,is_post_jump (per-mode data goes through mode_csv).
    """
    post = np.zeros(len(traj.times), dtype=int)
    post[traj.jump_indices] = 1
    lines = []
    if traj.states.ndim == 2:
        n = traj.states.shape[1]
        lines.append("t,norm,is_post_jump," + ",".join(f"state_{i}" for i in range(n)))
        for i, t in enumerate(traj.times):
            row = [fmt(t), fmt(traj.norms[i]), str(post[i])]
            row += [fmt(v) for v in traj.states[i]]
            lines.append(",".join(row))
    else:
        lines.append("t,l2_norm,is_post_jump")
        for i, t in enumerate(traj.times):
            lines.append(f"{fmt(t)},{fmt(traj.norms[i])},{post[i]}")
    return "\n".join(lines) + "\n"


def mode_csv(traj: Trajectory, j: int) -> str:
    """Per-mode CSV t,norm,is_post_jump,c_0..c_{n-1} for sine mode j."""
    if traj.states.ndim != 3:
        raise InputError("mode_csv needs a parabolic trajectory")
    n_modes = traj.states.shape[1]
    if not 1 <= j <= n_modes:
        raise InputError(f"mode index {j} outside 1..{n_modes}")
    post = np.zeros(len(traj.times), dtype=int)
    post[traj.jump_indices] = 1
    C = traj.states[:, j - 1]
    with np.errstate(over="ignore"):
        norms = _rescaled(np.array([np.linalg.norm(c) for c in C]), C, np.linalg.norm)
    lines = ["t,norm,is_post_jump," + ",".join(f"c_{i}" for i in range(C.shape[1]))]
    for i, t in enumerate(traj.times):
        row = [fmt(t), fmt(float(norms[i])), str(post[i])]
        row += [fmt(v) for v in C[i]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
