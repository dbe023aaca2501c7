"""Seeded inputs and item definitions for the four benchmark workloads.

Each workload is a list of items.  An item's ``run`` is the only timed
code; it calls adtstab through the package attributes at call time, so the
tracer's patched bindings are the ones used.  ``summarize`` turns the
output into a small record with a ``digest`` (untimed), and ``check`` runs
the independent oracle on the first occurrence of each item.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import adtstab as st
import adtstab.cli
import oracles

REF_A = np.array([[1.2, 0.1], [0.1, -3.0]])
REF_B = np.array([[0.2, 0.1], [-0.1, 1.5]])
MU = 1.0
ELL = math.pi
VARIANTS = ("adt", "adt_plus")

MAP_THETA = (0.2, 2.5)
MAP_RATIO = (0.0, 0.45)
MAP_STRATA = 4
SEARCH_BUDGET = 32

N_MODES = 32
T_END = 30.0
DENSE, SPARSE = 0.05, 0.5
SPOT_MODES = 3

REPLAY_SYSTEMS = 4
REPLAY_K = (20, 27, 33, 40)
REPLAY_JITTER = 0.4

CONFIG = Path("configs") / "reaction_diffusion.json"


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[], object]
    summarize: Callable[[object], dict]
    check: Callable[[dict], None]


def draw_system(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A/B shaped like the reference pair: half the modes flow unstably and
    are contracted by the jump, half flow stably and are expanded by it,
    with a random coupling and a random orthogonal basis."""
    k = n // 2
    a = np.concatenate([rng.uniform(0.6, 1.4, k), rng.uniform(-3.5, -2.0, n - k)])
    b = np.concatenate([rng.uniform(0.1, 0.35, k), rng.uniform(1.1, 1.6, n - k)])
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ (np.diag(a) + 0.1 * rng.standard_normal((n, n))) @ Q.T
    B = Q @ (np.diag(b) + 0.1 * rng.standard_normal((n, n))) @ Q.T
    return A, B


def _stratified(rng, lo: float, hi: float, k: int, jitter: float = 1.0) -> np.ndarray:
    """One value in each of k equal bins of [lo, hi], spread around the bin
    centre over the fraction jitter of the bin."""
    offsets = 0.5 + jitter * (rng.uniform(size=k) - 0.5)
    return lo + (np.arange(k) + offsets) * (hi - lo) / k


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _shuffled(items: list[Item], rng) -> list[Item]:
    return [items[i] for i in rng.permutation(len(items))]


# stability_map ---------------------------------------------------------------


def _cell(label, A, B, theta, chi, search_seed) -> Item:
    def run():
        p0 = st.search_p0(A, B, theta, chi, MU, ELL, budget=SEARCH_BUDGET, seed=search_seed)
        return st.evaluate_certificate(A, B, theta, chi, MU, ELL, p0=p0)

    def summarize(report):
        doc = report.to_doc()
        keys = ("certified", "margin", "spectral_radius", "omega", "p0")
        return {"digest": _digest(*(doc[k] for k in keys)), **{k: doc[k] for k in keys}}

    def check(s):
        n = A.shape[0]
        oracles.certificate(
            A, B, theta, chi, MU, ELL, np.reshape(s["p0"], (n, n)),
            s["certified"], s["margin"], s["spectral_radius"], s["omega"],
        )

    return Item(label, run, summarize, check)


def stability_map(rng, scratch: Path) -> list[Item]:
    systems = [("ref", REF_A, REF_B)]
    systems += [(f"n{n}", *draw_system(n, rng)) for n in (2, 4, 8)]
    items = []
    for label, A, B in systems:
        for theta in _stratified(rng, *MAP_THETA, MAP_STRATA):
            for ratio in _stratified(rng, *MAP_RATIO, MAP_STRATA):
                items.append(_cell(label, A, B, float(theta), float(ratio * theta), _seed(rng)))
    return _shuffled(items, rng)


# parabolic_trajectories -----------------------------------------------------


def _unit_modes(rng, n: int) -> np.ndarray:
    C = rng.standard_normal((N_MODES, n))
    return C / math.sqrt(ELL / 2.0 * float(np.sum(C * C)))


def _trajectory(label, A, B, variant, spacing, theta, chi, count, sched_seed, C0) -> Item:
    def run():
        model = st.ParabolicModel(A=A, B=B, mu=MU, ell=ELL, n_modes=N_MODES)
        schedule = st.generate_schedule(0.0, theta, chi, count, variant, sched_seed)
        traj = st.simulate_parabolic(model, schedule, C0, T_END, spacing)
        return schedule, traj, st.trajectory_to_csv(traj)

    def summarize(out):
        schedule, traj, text = out
        return {
            "digest": _digest(text.encode()),
            "chis": list(schedule.chis),
            "rows": len(traj.times),
            "lines": text.count("\n"),
            "jump_times": np.array(traj.post_jump_times),
            "jump_states": np.array(traj.post_jump_states[:, :SPOT_MODES, :]),
        }

    def check(s):
        taus = oracles.schedule(s["chis"], 0.0, theta, chi, variant, count)
        if s["lines"] != s["rows"] + 1:
            raise oracles.OracleError(f"CSV has {s['lines']} lines for {s['rows']} samples")
        rates = [(MU * j * math.pi / ELL) ** 2 for j in range(1, SPOT_MODES + 1)]
        oracles.parabolic_post_jumps(
            A, B, rates, C0[:SPOT_MODES], taus, T_END, s["jump_times"], s["jump_states"]
        )

    kind = "dense" if spacing == DENSE else "sparse"
    return Item(f"{label}/{variant}/{kind}", run, summarize, check)


def parabolic_trajectories(rng, scratch: Path) -> list[Item]:
    systems = [("ref", REF_A, REF_B)]
    systems += [(f"n{n}", *draw_system(n, rng)) for n in (4, 8)]
    # Two dense runs per system and variant, and one sparse run per system.
    # Dense runs cost about the same whatever n is; sparse runs are several
    # times cheaper, and keeping them to a fifth of the items keeps the
    # latency median well inside the dense class.
    runs = [(system, variant, DENSE) for system in systems for variant in VARIANTS] * 2
    runs += [(system, VARIANTS[i % 2], SPARSE) for i, system in enumerate(systems)]
    items = []
    for (label, A, B), variant, spacing in runs:
        theta = float(rng.uniform(0.9, 1.1))
        chi = float(rng.uniform(0.05, 0.3) * theta)
        count = math.ceil(T_END / theta) + 2
        C0 = _unit_modes(rng, A.shape[0])
        items.append(
            _trajectory(label, A, B, variant, spacing, theta, chi, count, _seed(rng), C0)
        )
    return _shuffled(items, rng)


# comparison_replay ----------------------------------------------------------


def _replay(label, A, B, variant, theta, chi, K, sched_seed, x0) -> Item:
    def run():
        system = st.ImpulsiveSystem(A=A, B=B)
        schedule = st.generate_schedule(0.0, theta, chi, K + 1, variant, sched_seed)
        return schedule, st.matching_residual(system, schedule, x0, K)

    def summarize(out):
        schedule, residual = out
        return {"digest": _digest(schedule.chis, residual), "chis": list(schedule.chis),
                "residual": residual}

    def check(s):
        oracles.schedule(s["chis"], 0.0, theta, chi, variant, K + 1)
        oracles.residual(s["residual"])

    return Item(f"{label}/{variant}", run, summarize, check)


def comparison_replay(rng, scratch: Path) -> list[Item]:
    # Cost grows with K, n and the series length (chi_max and ||A||).  K
    # takes fixed values and theta, chi_max/theta sit near fixed bin centres,
    # and each seed draws several systems per dimension, so every seed
    # carries about the same work.
    items = []
    strata = len(REPLAY_K)
    for n in (2, 4, 8):
        for _ in range(REPLAY_SYSTEMS):
            A, B = draw_system(n, rng)
            for variant in VARIANTS:
                thetas = rng.permutation(_stratified(rng, 0.5, 1.5, strata, REPLAY_JITTER))
                ratios = rng.permutation(_stratified(rng, 0.05, 0.45, strata, REPLAY_JITTER))
                for K, theta, ratio in zip(REPLAY_K, thetas, ratios):
                    x0 = rng.standard_normal(n)
                    items.append(_replay(
                        f"n{n}", A, B, variant, float(theta), float(ratio * theta), K,
                        _seed(rng), x0 / np.linalg.norm(x0),
                    ))
    return _shuffled(items, rng)


# cli_artifacts --------------------------------------------------------------

_RESIDUAL_LINE = re.compile(r"matching residual over k = 2\.\.\d+: (\S+) ")


def _cli_check(sub: str, cfg: dict, s: dict) -> None:
    system = cfg["system"]
    n = int(system["n"])
    A = np.reshape(system["A"], (n, n))
    B = np.reshape(system["B"], (n, n))
    sched = cfg["schedule"]
    text = s["text"]
    if sub == "certify":
        doc = json.loads(text)
        oracles.certificate(
            A, B, sched["theta"], sched["chi_max"], cfg["pde"]["mu"], cfg["pde"]["ell"],
            np.reshape(doc["p0"], (n, n)), doc["certified"], doc["margin"],
            doc["spectral_radius"], doc["omega"],
        )
        if doc["certified"] != (s["exit"] == 0):
            raise oracles.OracleError("certify exit code disagrees with its report")
    elif sub == "mr-check":
        match = _RESIDUAL_LINE.match(text)
        if match is None:
            raise oracles.OracleError(f"unexpected mr-check output {text!r}")
        oracles.residual(float(match.group(1)))
    elif sub == "gen-times":
        doc = json.loads(text)
        oracles.schedule(doc["chis"], doc["tau0"], doc["theta"], doc["chi_max"],
                         doc["variant"], int(sched["count"]))
    elif sub == "omega":
        value = float(text.splitlines()[0].split("=")[1])
        expected = oracles.omega(A, B, sched["chi_max"])
        if abs(value - expected) > oracles.OMEGA_RTOL * (1.0 + expected):
            raise oracles.OracleError(f"omega {value!r} != oracle {expected!r}")
    elif sub == "commutators":
        rows = text.splitlines()[1:]
        C = B.copy()
        for m, row in enumerate(rows):
            norm = float(row.split(",")[1])
            expected = float(np.linalg.svd(C, compute_uv=False)[0])
            if abs(norm - expected) > 1e-9 * (1.0 + expected):
                raise oracles.OracleError(f"commutator norm {m}: {norm!r} != {expected!r}")
            C = C @ A - A @ C
        if len(rows) != int(cfg["run"]["m_max"]) + 1:
            raise oracles.OracleError(f"commutator table has {len(rows)} rows")
    elif sub == "simulate":
        if s["modes"] != N_MODES or s["text"].count("\n") < 2:
            raise oracles.OracleError(f"simulate wrote {s['modes']} mode files")


def _cli_call(sub, cfg, cfg_path, seed, expected, out_path, modes_dir) -> Item:
    argv = [sub, "--config", str(cfg_path), "--output", str(out_path), "--quiet"]
    if seed is not None:
        argv += ["--seed", str(seed)]

    def run():
        return adtstab.cli.main(argv)

    def summarize(code):
        text = out_path.read_text(encoding="utf-8")
        parts = [code, text.encode()]
        mode_files = sorted(modes_dir.glob("*.csv")) if modes_dir else []
        parts += [p.read_bytes() for p in mode_files]
        return {"digest": _digest(*parts), "exit": code, "text": text, "modes": len(mode_files)}

    def check(s):
        if s["exit"] != expected:
            raise oracles.OracleError(f"{sub} exited {s['exit']}, expected {expected}")
        _cli_check(sub, cfg, s)

    label = f"{sub}{'' if expected == 0 else '-negative'}"
    return Item(label, run, summarize, check)


def cli_artifacts(rng, scratch: Path) -> list[Item]:
    base = json.loads(CONFIG.read_text(encoding="utf-8"))
    negative = json.loads(json.dumps(base))
    negative["schedule"]["chi_max"] = 0.45 * base["schedule"]["theta"]
    scratch.mkdir(parents=True, exist_ok=True)
    base_path, negative_path = scratch / "base.json", scratch / "negative.json"
    base_path.write_text(json.dumps(base), encoding="utf-8")
    negative_path.write_text(json.dumps(negative), encoding="utf-8")

    calls = []
    for seed in (None, _seed(rng), _seed(rng)):
        for sub in ("certify", "simulate", "omega", "mr-check", "gen-times", "commutators"):
            calls.append((sub, base, base_path, seed, 0))
        # an honest negative per seed keeps the latency median inside the
        # mr-check class rather than between the fast and slow subcommands
        calls.append(("certify", negative, negative_path, seed, 1))

    items = []
    for i, (sub, cfg, cfg_path, seed, expected) in enumerate(calls):
        modes_dir = None
        if sub == "simulate":
            modes_dir = scratch / f"modes_{i:02d}"
            sim_cfg = json.loads(json.dumps(cfg))
            sim_cfg["run"]["per_mode_dir"] = str(modes_dir)
            cfg_path = scratch / f"simulate_{i:02d}.json"
            cfg_path.write_text(json.dumps(sim_cfg), encoding="utf-8")
        out_path = scratch / f"out_{i:02d}.txt"
        items.append(_cli_call(sub, cfg, cfg_path, seed, expected, out_path, modes_dir))
    return _shuffled(items, rng)


_BY_NAME = {
    "stability_map": stability_map,
    "parabolic_trajectories": parabolic_trajectories,
    "comparison_replay": comparison_replay,
    "cli_artifacts": cli_artifacts,
}


def build(name: str, seed: int, scratch: Path) -> list[Item]:
    """The workload's items for this seed, in the order the loop runs them."""
    return _BY_NAME[name](np.random.default_rng(seed), scratch)
