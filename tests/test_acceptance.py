"""End-to-end acceptance checks.

Each test exercises one headline requirement at its stated tolerance and
prints a single [PASS]/[FAIL] line (visible with pytest -s).  Wall-clock
budgets are asserted alongside the numerics.
"""

import time
from pathlib import Path

import numpy as np

import adtstab as st
from adtstab.cli import main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reaction_diffusion.json"

REF_A = np.array([[1.2, 0.1], [0.1, -3.0]])
REF_B = np.array([[0.2, 0.1], [-0.1, 1.5]])
THETA = 1.0
CHI_MAX = 0.1
MU = 1.0
ELL = float(np.pi)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _unit_vector(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _decrease_onset(values) -> int:
    """Smallest k such that values is strictly decreasing from index k on."""
    k = len(values) - 1
    while k > 0 and values[k] < values[k - 1]:
        k -= 1
    return k


def test_criterion_1_correction_bound():
    t0 = time.perf_counter()
    omega = st.correction_bound(REF_A, REF_B, CHI_MAX)
    elapsed = time.perf_counter() - t0
    ok = abs(omega - 0.1726) <= 5e-4 and elapsed < 0.1
    _report(
        1,
        ok,
        f"omega = {omega:.10f} vs 0.1726 +- 5e-4, computed in {elapsed * 1e3:.1f} ms "
        "(budget 0.1 s)",
    )


def test_criterion_2_reference_certificate():
    t0 = time.perf_counter()
    rep = st.evaluate_certificate(REF_A, REF_B, THETA, CHI_MAX, MU, ELL)
    elapsed = time.perf_counter() - t0
    radius_b = np.max(np.abs(np.linalg.eigvals(REF_B)))
    checks = [
        rep.certified,
        np.log(rep.spectral_radius) < rep.log_threshold,
        abs(np.exp(rep.log_threshold) - np.e) < 1e-12,
        rep.margin > 0.0,
        not rep.shifted_a_hurwitz,
        not rep.b_schur,
        abs(radius_b - 1.492) <= 5e-4,
        elapsed < 0.5,
    ]
    _report(
        2,
        all(checks),
        f"certified={rep.certified}, log radius {np.log(rep.spectral_radius):.6f} < "
        f"log threshold {rep.log_threshold:.6f}, margin {rep.margin:.6f}, "
        f"flow unstable and jump expanding (r(B) = {radius_b:.4f}), "
        f"{elapsed * 1e3:.0f} ms (budget 0.5 s)",
    )


def test_criterion_3_flow_exchange_identity():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        A = rng.uniform(-1.0, 1.0, (n, n))
        B = rng.uniform(-1.0, 1.0, (n, n))
        t = float(rng.uniform(0.0, 2.0))
        E = st.expm(A, t)
        S = st.commutator_series(A, B, t)
        resid = np.linalg.norm(B @ E - E @ S, 2) / (1.0 + np.linalg.norm(B @ E, 2))
        worst = max(worst, resid)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(
        3,
        ok,
        f"200 random exchange identities, worst relative residual {worst:.2e} "
        f"(cap 1e-9), {elapsed:.2f} s (budget 5 s)",
    )


def test_criterion_4_matching_residual_sweep():
    system = st.ImpulsiveSystem(A=REF_A, B=REF_B)
    t0 = time.perf_counter()
    worst = 0.0
    runs = 0
    for variant, n_seeds in ((st.ADT, 50), (st.ADT_PLUS, 20)):
        for seed in range(n_seeds):
            sched = st.generate_schedule(0.0, THETA, CHI_MAX, 22, variant, seed)
            x0 = _unit_vector(np.random.default_rng(7000 + seed), 2)
            worst = max(worst, st.matching_residual(system, sched, x0, K=20))
            runs += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(
        4,
        ok,
        f"{runs} schedules (50 adt + 20 adt_plus, K = 20), worst matching "
        f"residual {worst:.2e} (cap 1e-8), {elapsed:.2f} s (budget 10 s)",
    )


def test_criterion_5_parabolic_decay():
    model = st.ParabolicModel(A=REF_A, B=REF_B, mu=MU, ell=ELL, n_modes=32)
    t0 = time.perf_counter()
    worst_onset = 0
    all_ok = True
    for seed in range(10):
        sched = st.generate_schedule(0.0, THETA, CHI_MAX, 40, st.ADT, 3000 + seed)
        rng = np.random.default_rng(seed)
        C0 = rng.standard_normal((32, 2))
        C0 /= st.l2_norm(model, C0)
        traj = st.simulate_parabolic(model, sched, C0, 30.0, 0.05)
        onset = _decrease_onset(traj.post_jump_norms)
        worst_onset = max(worst_onset, onset)
        all_ok = all_ok and traj.norms[-1] < traj.norms[0] and onset <= 10
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 30.0
    _report(
        5,
        ok,
        f"10 seeded unit-L2 runs over [0, 30]: final < initial, post-jump "
        f"norms strictly decreasing from index <= {worst_onset} (cap 10), "
        f"{elapsed:.1f} s (budget 30 s)",
    )


def test_criterion_6_certified_grid_decays():
    model = st.ParabolicModel(A=REF_A, B=REF_B, mu=MU, ell=ELL, n_modes=32)
    t0 = time.perf_counter()
    certified_cells = 0
    decay_failures = 0
    for theta in np.linspace(0.5, 1.5, 5):
        theta = float(theta)
        for frac in np.linspace(0.0, 0.2, 5):
            chi = float(frac * theta)
            rep = st.evaluate_certificate(REF_A, REF_B, theta, chi, MU, ELL)
            if not rep.certified:
                continue
            certified_cells += 1
            count = int(np.ceil(30.0 / theta)) + 4
            for seed in range(3):
                sched = st.generate_schedule(0.0, theta, chi, count, st.ADT, 500 + seed)
                rng = np.random.default_rng(900 + seed)
                C0 = rng.standard_normal((32, 2))
                C0 /= st.l2_norm(model, C0)
                traj = st.simulate_parabolic(model, sched, C0, 30.0, 0.1)
                onset = _decrease_onset(traj.post_jump_norms)
                if not (traj.norms[-1] < traj.norms[0] and onset <= 10):
                    decay_failures += 1
    elapsed = time.perf_counter() - t0
    ok = certified_cells >= 1 and decay_failures == 0 and elapsed < 180.0
    _report(
        6,
        ok,
        f"{certified_cells}/25 grid cells certified "
        "(theta in [0.5, 1.5], chi_max in [0, 0.2 theta]); "
        f"{decay_failures} decay failures across 3 seeds per certified cell, "
        f"{elapsed:.1f} s (budget 180 s)",
    )


def test_criterion_7_deterministic_artifacts(tmp_path):
    t0 = time.perf_counter()
    jobs = {
        "certificate": ["certify", "--config", str(CONFIG), "--quiet"],
        "trajectory": ["simulate", "--config", str(CONFIG), "--quiet"],
        "schedule": ["gen-times", "--config", str(CONFIG), "--quiet"],
        "correction": ["omega", "--config", str(CONFIG), "--quiet"],
        "residual": ["mr-check", "--config", str(CONFIG), "--quiet"],
    }
    mismatches = []
    for name, argv in jobs.items():
        blobs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{name}_{tag}"
            rc = main(argv + ["--output", str(path)])
            assert rc in (0, 1), f"{name} run exited {rc}"
            blobs.append(path.read_bytes())
        if blobs[0] != blobs[1]:
            mismatches.append(name)
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    _report(
        7,
        ok,
        f"reran {len(jobs)} artifact kinds with fixed seeds: "
        + ("all byte-identical" if ok else f"mismatch in {mismatches}")
        + f", {elapsed:.2f} s",
    )
