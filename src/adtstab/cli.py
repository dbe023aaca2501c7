"""Command line front end.

Subcommands: certify, simulate, omega, mr-check, gen-times, commutators.
Each cmd_* takes the parsed config and the --seed override and returns its
artifact text, a one-line summary and its exit code: 0 on success/certified,
1 on an honest negative.  main reads the config (--config) and writes the
artifact (to --output, or stdout) and the summary.  cmd_simulate also returns
the mode_NNN.csv files of run.per_mode_dir, as a path -> text dict, and main
writes them after the artifact, so a failed --output write leaves none of
them behind.  Invalid input, and a run that does not fit in memory, exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .certify import CertificateProblem
from .commutators import REL_TOL, _correction, nested_commutators
from .errors import ConvergenceError, InputError
from .schedules import (
    ImpulseSchedule, _numbers, _values, _whole, generate, require_valid, schedule_from_doc,
    schedule_to_doc,
)
from .serialize import dumps, fmt
from .simulate import (
    ParabolicModel,
    _lead,
    _mode_csvs,
    _trajectory_csv,
    l2_norm,
    matching_residual,
    simulate_ode,
    simulate_parabolic,
)
from .systems import ImpulsiveSystem

MR_TOL = 1e-8

__all__ = ["main"]


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise InputError(f"config {path} must be a JSON object")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    sec = cfg.get(name)
    if not isinstance(sec, dict):
        raise InputError(f"config needs a {name!r} section")
    return sec


def _matrix(sec: dict, name: str, key: str, n: int) -> np.ndarray:
    (arr,) = _values(sec, name, key, kind=_numbers)
    if arr.ndim == 1:
        if arr.size != n * n:
            raise InputError(f"matrix {key!r} must have {n * n} entries, got {arr.size}")
        arr = arr.reshape(n, n)
    if arr.shape != (n, n):
        raise InputError(f"matrix {key!r} must be {n}x{n}, got {arr.shape}")
    return arr


def _config_system(cfg: dict) -> ImpulsiveSystem:
    sec = _section(cfg, "system")
    (n,) = _values(sec, "system", "n", kind=_whole)
    if n < 1:
        raise InputError(f"system.n must be >= 1, got {n}")
    return ImpulsiveSystem(A=_matrix(sec, "system", "A", n), B=_matrix(sec, "system", "B", n))


def _seed(sec: dict, name: str, seed_override: int | None) -> int:
    """The --seed override, else the section's seed (default 0); seeds are >= 0."""
    seed = seed_override
    if seed is None:
        (seed,) = _values(sec, name, "seed", kind=_whole, default=0)
    if seed < 0:
        raise InputError(f"seeds must be >= 0, got {seed}")
    return seed


def _config_schedule(cfg: dict, seed_override: int | None) -> ImpulseSchedule:
    sec = _section(cfg, "schedule")
    if "chis" in sec or "taus" in sec:
        return schedule_from_doc(sec)
    if "count" not in sec:
        raise InputError(
            "schedule section needs 'chis'/'taus' or generator parameters with 'count'"
        )
    return generate(
        *_values(sec, "schedule", "tau0", default=0.0),
        *_values(sec, "schedule", "theta", "chi_max"),
        count=_values(sec, "schedule", "count", kind=_whole)[0],
        variant=sec.get("variant", "adt"),
        seed=_seed(sec, "schedule", seed_override),
    )


def _config_model(cfg: dict, system: ImpulsiveSystem) -> ParabolicModel:
    sec = _section(cfg, "pde")
    mu, ell = _values(sec, "pde", "mu", "ell")
    return ParabolicModel(
        A=system.A,
        B=system.B,
        mu=mu,
        ell=ell,
        n_modes=_values(sec, "pde", "n_modes", kind=_whole, default=1)[0],
    )


def _run(cfg: dict) -> dict:
    sec = cfg.get("run", {})
    if not isinstance(sec, dict):
        raise InputError("'run' section must be a JSON object")
    if sec.get("rel_tol", REL_TOL) != REL_TOL:
        raise InputError(f"run.rel_tol is fixed at {REL_TOL:g}, got {sec['rel_tol']!r}")
    return sec


def _initial(run: dict, key: str, shape, seed: int, norm) -> np.ndarray:
    """run[key], or standard-normal data of this shape drawn from seed and
    divided by its norm."""
    if key in run:
        return _values(run, "run", key, kind=_numbers)[0]
    v = np.random.default_rng(seed).standard_normal(shape)
    return v / norm(v)


def cmd_certify(cfg: dict, seed_override: int | None) -> tuple[str, str, int]:
    model = _config_model(cfg, _config_system(cfg))
    theta, chi_max = _values(_section(cfg, "schedule"), "schedule", "theta", "chi_max")
    run = _run(cfg)

    problem = CertificateProblem(model.A, model.B, theta, chi_max, model.mu, model.ell)
    if "p0" in run:
        p0 = _matrix(run, "run", "p0", model.n)
    else:
        p0 = problem.search()  # None: report the identity's margin
    report = problem.evaluate(p0)
    verdict = "certified" if report.certified else "not certified"
    summary = (
        f"{verdict}: spectral radius {report.spectral_radius:.6g} vs log threshold "
        f"{report.log_threshold:.6g}, margin {report.margin:.6g}, omega {report.omega:.6g}"
    )
    return dumps(report.to_doc()), summary, 0 if report.certified else 1


def cmd_simulate(cfg: dict, seed_override: int | None) -> tuple[str, str, int, dict]:
    system = _config_system(cfg)
    schedule = _config_schedule(cfg, seed_override)
    run = _run(cfg)
    t_end, sample_dt = _values(run, "run", "t_end", "sample_dt")
    seed = _seed(run, "run", seed_override)

    out_dir = None
    if "pde" in cfg:
        model = _config_model(cfg, system)
        init = _initial(
            run, "init_modes", (model.n_modes, model.n), seed, lambda C: l2_norm(model, C)
        )
        traj = simulate_parabolic(model, schedule, init, t_end, sample_dt)
        if "per_mode_dir" in run:
            (out_dir,) = _values(run, "run", "per_mode_dir", kind=Path)
    else:
        x0 = _initial(run, "x0", system.n, seed, np.linalg.norm)
        traj = simulate_ode(system, schedule, x0, t_end, sample_dt)

    # the mode files share the artifact's t and is_post_jump cells
    lead = _lead(traj, shared=out_dir is not None)
    files = {}
    if out_dir is not None:
        for j, text in enumerate(_mode_csvs(traj, slice(None), lead), 1):
            files[out_dir / f"mode_{j:03d}.csv"] = text
    summary = (
        f"{len(traj.times)} samples, {len(traj.jump_indices)} impulses, "
        f"final norm {traj.norms[-1]:.6g}"
    )
    return _trajectory_csv(traj, lead), summary, 0, files


def cmd_omega(cfg: dict, seed_override: int | None) -> tuple[str, str, int]:
    system = _config_system(cfg)
    (chi_max,) = _values(_section(cfg, "schedule"), "schedule", "chi_max")
    _run(cfg)  # rejects a malformed run section or another run.rel_tol
    rows, omega = _correction(system.A, system.B, chi_max)
    lines = [f"omega = {fmt(omega)}", "m,commutator_norm,contribution"]
    lines += [f"{r.m},{fmt(r.commutator_norm)},{fmt(r.contribution)}" for r in rows]
    return "\n".join(lines) + "\n", f"omega = {omega:.6g} from {len(rows)} series terms", 0


def cmd_mr_check(cfg: dict, seed_override: int | None) -> tuple[str, str, int]:
    system = _config_system(cfg)
    schedule = _config_schedule(cfg, seed_override)
    run = _run(cfg)
    (K,) = _values(run, "run", "k", kind=_whole, default=20)
    x0 = _initial(run, "x0", system.n, _seed(run, "run", seed_override), np.linalg.norm)
    residual = matching_residual(system, schedule, x0, K)
    ok = residual <= MR_TOL
    text = (
        f"matching residual over k = 2..{K}: {fmt(residual)} "
        f"({'within' if ok else 'exceeds'} tolerance {MR_TOL:g})\n"
    )
    return text, f"residual {residual:.3e} ({'ok' if ok else 'FAILED'})", 0 if ok else 1


def cmd_gen_times(cfg: dict, seed_override: int | None) -> tuple[str, str, int]:
    schedule = _config_schedule(cfg, seed_override)
    require_valid(schedule)
    summary = f"{len(schedule)} instants on [{schedule.taus[0]:.6g}, {schedule.taus[-1]:.6g}]"
    return dumps(schedule_to_doc(schedule)), summary, 0


def cmd_commutators(cfg: dict, seed_override: int | None) -> tuple[str, str, int]:
    system = _config_system(cfg)
    (m_max,) = _values(_run(cfg), "run", "m_max", kind=_whole, default=10)
    seq = nested_commutators(system.A, system.B, m_max)
    lines = ["m,norm"] + [f"{m},{fmt(v)}" for m, v in enumerate(seq.norms)]
    return "\n".join(lines) + "\n", f"computed nested commutators up to order {m_max}", 0


def main(argv=None) -> int:
    # name -> (cmd, help), built per call so that a rebound cmd_* is the one that runs
    commands = {
        "certify": (cmd_certify, "evaluate the jump Lyapunov certificate"),
        "simulate": (cmd_simulate, "sample a trajectory to CSV"),
        "omega": (cmd_omega, "correction bound and its series table"),
        "mr-check": (cmd_mr_check, "matching residual of the comparison construction"),
        "gen-times": (cmd_gen_times, "generate an impulse schedule document"),
        "commutators": (cmd_commutators, "nested commutator norm table"),
    }
    parser = argparse.ArgumentParser(
        prog="adtstab",
        description="Certify and simulate impulsive linear systems on averaged dwell-time schedules.",
        epilog="commands:\n" + "\n".join(f"  {k:<12} {v[1]}" for k, v in commands.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=commands, help="one of the commands below")
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--output", default=None, help="write the result here instead of stdout")
    parser.add_argument("--seed", type=int, default=None, help="override config seeds")
    parser.add_argument("--quiet", action="store_true", help="suppress progress chatter")
    args = parser.parse_args(argv)
    try:
        # cmd_simulate's mode files come fourth, and are written after the artifact
        text, summary, code, *files = commands[args.command][0](
            _load_config(args.config), args.seed
        )
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        for path, body in dict(*files).items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(body, encoding="utf-8")
        if args.output and not args.quiet:
            print(summary)
    except (InputError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # exit 1 is the honest negative, never a failed run
        print(f"error: {args.command} does not fit in memory", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
