"""Command line front end.

Subcommands: certify, simulate, omega, mr-check, gen-times, commutators.
Each cmd_* takes the parsed config and the --seed override and returns its
artifact text, a one-line summary and its exit code: 0 on success/certified,
1 on an honest negative.  main alone reads the config (--config) and writes
the artifact (to --output, or stdout) and the summary; invalid input exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .certify import CertificateProblem
from .commutators import REL_TOL, correction_terms, nested_commutators
from .errors import ConvergenceError, GenerationError, InputError
from .schedules import ImpulseSchedule, generate, require_valid, schedule_from_doc, schedule_to_doc
from .serialize import dumps, fmt
from .simulate import (
    ParabolicModel,
    l2_norm,
    matching_residual,
    mode_csv,
    simulate_ode,
    simulate_parabolic,
    trajectory_to_csv,
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


def _matrix(sec: dict, key: str, n: int) -> np.ndarray:
    if key not in sec:
        raise InputError(f"system section missing matrix {key!r}")
    arr = np.asarray(sec[key], dtype=float)
    if arr.ndim == 1:
        if arr.size != n * n:
            raise InputError(f"matrix {key!r} must have {n * n} entries, got {arr.size}")
        arr = arr.reshape(n, n)
    if arr.shape != (n, n):
        raise InputError(f"matrix {key!r} must be {n}x{n}, got {arr.shape}")
    return arr


def _config_system(cfg: dict) -> ImpulsiveSystem:
    sec = _section(cfg, "system")
    try:
        n = int(sec["n"])
    except KeyError:
        raise InputError("system section missing 'n'") from None
    return ImpulsiveSystem(A=_matrix(sec, "A", n), B=_matrix(sec, "B", n))


def _config_schedule(cfg: dict, seed_override: int | None) -> ImpulseSchedule:
    sec = _section(cfg, "schedule")
    if "chis" in sec or "taus" in sec:
        return schedule_from_doc(sec)
    try:
        count = int(sec["count"])
    except KeyError:
        raise InputError(
            "schedule section needs 'chis'/'taus' or generator parameters with 'count'"
        ) from None
    seed = int(sec.get("seed", 0)) if seed_override is None else seed_override
    return generate(
        tau0=float(sec.get("tau0", 0.0)),
        theta=float(sec.get("theta", 0.0)),
        chi_max=float(sec.get("chi_max", 0.0)),
        count=count,
        variant=sec.get("variant", "adt"),
        seed=seed,
    )


def _floats(sec: dict, name: str, *keys: str) -> list[float]:
    """Read the required keys of the config section called name as floats."""
    try:
        return [float(sec[key]) for key in keys]
    except KeyError as exc:
        raise InputError(f"{name} section missing {exc.args[0]!r}") from None


def _config_model(cfg: dict, system: ImpulsiveSystem) -> ParabolicModel:
    sec = _section(cfg, "pde")
    mu, ell = _floats(sec, "pde", "mu", "ell")
    return ParabolicModel(
        A=system.A,
        B=system.B,
        mu=mu,
        ell=ell,
        n_modes=int(sec.get("n_modes", 1)),
    )


def _run(cfg: dict) -> dict:
    sec = cfg.get("run", {})
    if not isinstance(sec, dict):
        raise InputError("'run' section must be a JSON object")
    if sec.get("rel_tol", REL_TOL) != REL_TOL:
        raise InputError(f"run.rel_tol is fixed at {REL_TOL:g}, got {sec['rel_tol']!r}")
    return sec


def _run_seed(run: dict, seed_override: int | None) -> int:
    return int(run.get("seed", 0)) if seed_override is None else seed_override


def _initial(run: dict, key: str, shape, seed: int, norm) -> np.ndarray:
    """run[key], or standard-normal data of this shape drawn from seed and
    divided by its norm."""
    if key in run:
        return np.asarray(run[key], dtype=float)
    v = np.random.default_rng(seed).standard_normal(shape)
    return v / norm(v)


def cmd_certify(cfg: dict, seed_override: int | None) -> tuple[str, str, int]:
    model = _config_model(cfg, _config_system(cfg))
    theta, chi_max = _floats(_section(cfg, "schedule"), "schedule", "theta", "chi_max")
    run = _run(cfg)
    seed = _run_seed(run, seed_override)

    problem = CertificateProblem(model.A, model.B, theta, chi_max, model.mu, model.ell)
    search_meta = {"attempted": False, "found": False, "budget": 0}
    if "p0" in run:
        p0 = _matrix({"p0": run["p0"]}, "p0", model.n)
    else:
        budget = int(run.get("budget", 32))
        p0 = problem.search(budget, seed)
        search_meta = {"attempted": True, "found": p0 is not None, "budget": budget}
        if p0 is None:
            p0 = np.eye(model.n)  # inconclusive: report the identity's margin

    report = problem.evaluate(p0)
    doc = report.to_doc()
    doc["p0_search"] = search_meta
    verdict = "certified" if report.certified else "not certified"
    summary = (
        f"{verdict}: spectral radius {report.spectral_radius:.6g} vs log threshold "
        f"{report.log_threshold:.6g}, margin {report.margin:.6g}, omega {report.omega:.6g}"
    )
    return dumps(doc), summary, 0 if report.certified else 1


def cmd_simulate(cfg: dict, seed_override: int | None) -> tuple[str, str, int]:
    system = _config_system(cfg)
    schedule = _config_schedule(cfg, seed_override)
    run = _run(cfg)
    t_end, sample_dt = _floats(run, "run", "t_end", "sample_dt")
    seed = _run_seed(run, seed_override)

    if "pde" in cfg:
        model = _config_model(cfg, system)
        init = _initial(
            run, "init_modes", (model.n_modes, model.n), seed, lambda C: l2_norm(model, C)
        )
        traj = simulate_parabolic(model, schedule, init, t_end, sample_dt)
        if "per_mode_dir" in run:
            out_dir = Path(run["per_mode_dir"])
            out_dir.mkdir(parents=True, exist_ok=True)
            for j in range(1, model.n_modes + 1):
                (out_dir / f"mode_{j:03d}.csv").write_text(
                    mode_csv(traj, j), encoding="utf-8"
                )
    else:
        x0 = _initial(run, "x0", system.n, seed, np.linalg.norm)
        traj = simulate_ode(system, schedule, x0, t_end, sample_dt)

    summary = (
        f"{len(traj.times)} samples, {len(traj.jump_indices)} impulses, "
        f"final norm {traj.norms[-1]:.6g}"
    )
    return trajectory_to_csv(traj), summary, 0


def cmd_omega(cfg: dict, seed_override: int | None) -> tuple[str, str, int]:
    system = _config_system(cfg)
    (chi_max,) = _floats(_section(cfg, "schedule"), "schedule", "chi_max")
    _run(cfg)  # rejects a malformed run section or another run.rel_tol
    rows = correction_terms(system.A, system.B, chi_max)
    omega = sum(r.contribution for r in rows)
    lines = [f"omega = {fmt(omega)}", "m,commutator_norm,contribution"]
    lines += [f"{r.m},{fmt(r.commutator_norm)},{fmt(r.contribution)}" for r in rows]
    return "\n".join(lines) + "\n", f"omega = {omega:.6g} from {len(rows)} series terms", 0


def cmd_mr_check(cfg: dict, seed_override: int | None) -> tuple[str, str, int]:
    system = _config_system(cfg)
    schedule = _config_schedule(cfg, seed_override)
    run = _run(cfg)
    K = int(run.get("k", 20))
    x0 = _initial(run, "x0", system.n, _run_seed(run, seed_override), np.linalg.norm)
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
    m_max = int(_run(cfg).get("m_max", 10))
    seq = nested_commutators(system.A, system.B, m_max)
    lines = ["m,norm"] + [f"{m},{fmt(v)}" for m, v in enumerate(seq.norms)]
    return "\n".join(lines) + "\n", f"computed nested commutators up to order {m_max}", 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON run configuration")
    common.add_argument("--output", default=None, help="write the result here instead of stdout")
    common.add_argument("--seed", type=int, default=None, help="override config seeds")
    common.add_argument("--quiet", action="store_true", help="suppress progress chatter")

    parser = argparse.ArgumentParser(
        prog="adtstab",
        description="Certify and simulate impulsive linear systems on averaged dwell-time schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("certify", parents=[common], help="evaluate the jump Lyapunov certificate").set_defaults(func=cmd_certify)
    sub.add_parser("simulate", parents=[common], help="sample a trajectory to CSV").set_defaults(func=cmd_simulate)
    sub.add_parser("omega", parents=[common], help="correction bound and its series table").set_defaults(func=cmd_omega)
    sub.add_parser("mr-check", parents=[common], help="matching residual of the comparison construction").set_defaults(func=cmd_mr_check)
    sub.add_parser("gen-times", parents=[common], help="generate an impulse schedule document").set_defaults(func=cmd_gen_times)
    sub.add_parser("commutators", parents=[common], help="nested commutator norm table").set_defaults(func=cmd_commutators)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, summary, code = args.func(_load_config(args.config), args.seed)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
            if not args.quiet:
                print(summary)
        else:
            sys.stdout.write(text)
    except (InputError, GenerationError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
