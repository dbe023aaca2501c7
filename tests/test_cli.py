import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import adtstab as st
from adtstab import cli, commutators, linalg, serialize
from adtstab.cli import main


def _patched_config(src: Path, tmp_path: Path, patches=None, drop=(), name="cfg.json") -> Path:
    cfg = json.loads(src.read_text(encoding="utf-8"))
    for section in drop:
        cfg.pop(section, None)
    for dotted, value in (patches or {}).items():
        section, key = dotted.split(".")
        if value is None:
            cfg.get(section, {}).pop(key, None)
        else:
            cfg.setdefault(section, {})[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_certify_reference_instance(ref_config_path, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["certify", "--config", str(ref_config_path), "--output", str(out), "--quiet"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["certified"] is True
    assert abs(doc["omega"] - 0.1726) <= 5e-4
    assert doc["margin"] > 0
    assert doc["p0"] == [1.0, 0.0, 0.0, 1.0]
    assert doc["diagnostics"]["b_schur"] is False


def test_certify_explicit_p0(ref_config_path, tmp_path):
    cfg = _patched_config(ref_config_path, tmp_path, {"run.p0": [2.0, 0.0, 0.0, 1.0]})
    out = tmp_path / "report.json"
    rc = main(["certify", "--config", str(cfg), "--output", str(out), "--quiet"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["p0"] == [2.0, 0.0, 0.0, 1.0]


def test_certify_honest_negative_exit1(ref_config_path, tmp_path):
    cfg = _patched_config(ref_config_path, tmp_path, {"schedule.chi_max": 0.45})
    out = tmp_path / "report.json"
    rc = main(["certify", "--config", str(cfg), "--output", str(out), "--quiet"])
    assert rc == 1
    doc = json.loads(out.read_text())
    assert doc["certified"] is False
    assert doc["margin"] < 0
    assert doc["p0"] == [1.0, 0.0, 0.0, 1.0]  # nothing found: the identity's margin


def test_certify_invalid_jitter_exit2(ref_config_path, tmp_path, capsys):
    cfg = _patched_config(ref_config_path, tmp_path, {"schedule.chi_max": 1.0})
    out = tmp_path / "report.json"
    rc = main(["certify", "--config", str(cfg), "--output", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_certify_semigroup_overflow_exit2(ref_config_path, tmp_path, capsys):
    cfg = _patched_config(ref_config_path, tmp_path, {
        "system.A": [800.0, 0.0, 0.0, -3.0],
        "system.B": [1e-300, 0.0, 0.0, 1.0],
    })
    out = tmp_path / "report.json"
    assert main(["certify", "--config", str(cfg), "--output", str(out)]) == 2
    assert not out.exists()
    assert "error: matrix exponential overflowed" in capsys.readouterr().err


# Phi = B e^(theta A) overflows at B = diag(1e200, 1); (pi mu / ell)^2 at mu = 1e160;
# B P0 at a valid P0 = 1e308 id and |B| ~ 10
HUGE_P0 = {"run.p0": [1e308, 0.0, 0.0, 1e308]}
CERTIFY_OVERFLOWS = {
    "p0": ({**HUGE_P0, "system.B": [10.0, 0.3, 0.1, 9.0]},
           "error: jump inequality overflowed at omega = 0.363914"),
    "phi": ({"system.A": [300.0, 0.0, 0.0, -3.0], "system.B": [1e200, 0.0, 0.0, 1.0]},
            "error: monodromy B e^(theta A) overflowed at theta = 1"),
    "rate": ({"pde.mu": 1e160, "pde.ell": 1.0},
             "error: diffusive rate times theta overflowed at mu = 1e+160, ell = 1"),
}


@pytest.mark.parametrize("case", sorted(CERTIFY_OVERFLOWS))
def test_certify_overflow_exit2(ref_config_path, tmp_path, capsys, case):
    patches, message = CERTIFY_OVERFLOWS[case]
    cfg = _patched_config(ref_config_path, tmp_path, patches)
    out = tmp_path / "report.json"
    assert main(["certify", "--config", str(cfg), "--output", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


@pytest.mark.parametrize("patches", [
    {"pde.mu": 10.0, "pde.ell": 1.0},
    {"system.A": [300.0, 0.0, 0.0, -3.0], "system.B": [1e-300, 0.0, 0.0, 1.0],
     "schedule.chi_max": 0.99},
], ids=["strong_diffusion", "fast_flow"])
def test_certify_large_exponents_certified(ref_config_path, tmp_path, patches):
    # exp(rate theta) and e^(t A) on [0, theta + 2 chi_max] leave float64 here,
    # but nothing the verdict reads does
    cfg = _patched_config(ref_config_path, tmp_path, patches)
    out = tmp_path / "report.json"
    assert main(["certify", "--config", str(cfg), "--output", str(out), "--quiet"]) == 0
    doc = json.loads(out.read_text())
    assert doc["certified"] is True
    assert np.log(doc["spectral_radius"]) < doc["log_threshold"]
    assert doc["margin"] > 0


def test_certify_needs_pde_section(ref_config_path, tmp_path):
    cfg = _patched_config(ref_config_path, tmp_path, drop=("pde",))
    assert main(["certify", "--config", str(cfg)]) == 2


def test_missing_config_exit2(tmp_path, capsys):
    rc = main(["certify", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_config_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text, message in (("{not json", "is not valid JSON"), ("[1, 2]", "must be a JSON object")):
        bad.write_text(text, encoding="utf-8")
        assert main(["certify", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config {bad} {message}")


def test_simulate_parabolic_unit_data_decays(ref_config_path, tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--config", str(ref_config_path), "--output", str(out), "--quiet"])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,l2_norm,is_post_jump"
    first = float(lines[1].split(",")[1])
    final = float(lines[-1].split(",")[1])
    assert first == pytest.approx(1.0, rel=1e-12)
    assert final < first


def test_simulate_reruns_byte_identical(ref_config_path, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["simulate", "--config", str(ref_config_path), "--output", str(a), "--quiet"])
    main(["simulate", "--config", str(ref_config_path), "--output", str(b), "--quiet"])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_seed_flag_changes_run(ref_config_path, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["simulate", "--config", str(ref_config_path), "--output", str(a), "--seed", "1", "--quiet"])
    main(["simulate", "--config", str(ref_config_path), "--output", str(b), "--seed", "2", "--quiet"])
    assert a.read_bytes() != b.read_bytes()


def test_simulate_vector_flow_without_pde(ref_config_path, tmp_path):
    cfg = _patched_config(
        ref_config_path,
        tmp_path,
        {
            "system.A": [-1.0, 0.0, 0.0, -1.0],
            "system.B": [0.5, 0.0, 0.0, 0.5],
            "run.t_end": 5.0,
            "run.sample_dt": 0.25,
        },
        drop=("pde",),
    )
    out = tmp_path / "ode.csv"
    assert main(["simulate", "--config", str(cfg), "--output", str(out), "--quiet"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,norm,is_post_jump,state_0,state_1"
    assert float(lines[-1].split(",")[1]) < float(lines[1].split(",")[1])


def test_simulate_explicit_initial_state(ref_config_path, tmp_path):
    cfg = _patched_config(
        ref_config_path, tmp_path, {"run.x0": [1.0, 0.0]}, drop=("pde",)
    )
    out = tmp_path / "ode.csv"
    assert main(["simulate", "--config", str(cfg), "--output", str(out), "--quiet"]) == 0
    first = out.read_text().strip().split("\n")[1].split(",")
    assert float(first[3]) == 1.0
    assert float(first[4]) == 0.0


def test_simulate_per_mode_exports(ref_config_path, tmp_path):
    mode_dir = tmp_path / "modes"
    cfg = _patched_config(
        ref_config_path,
        tmp_path,
        {"run.per_mode_dir": str(mode_dir), "run.t_end": 3.0},
    )
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(cfg), "--output", str(out), "--quiet"]) == 0
    files = sorted(p.name for p in mode_dir.iterdir())
    assert len(files) == 32
    assert files[0] == "mode_001.csv"
    assert files[-1] == "mode_032.csv"
    head = (mode_dir / "mode_001.csv").read_text().split("\n", 1)[0]
    assert head == "t,norm,is_post_jump,c_0,c_1"


def test_mr_check_reference_passes(ref_config_path, tmp_path):
    out = tmp_path / "mr.txt"
    rc = main(["mr-check", "--config", str(ref_config_path), "--output", str(out), "--quiet"])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("matching residual over k = 2..20:")
    assert "within tolerance" in text


def test_mr_check_rejects_short_horizon(ref_config_path, tmp_path):
    cfg = _patched_config(ref_config_path, tmp_path, {"run.k": 1})
    assert main(["mr-check", "--config", str(cfg)]) == 2


def test_gen_times_document_roundtrip(ref_config_path, tmp_path):
    out = tmp_path / "sched.json"
    assert main(["gen-times", "--config", str(ref_config_path), "--output", str(out), "--quiet"]) == 0
    doc = json.loads(out.read_text())
    sched = st.schedule_from_doc(doc)
    assert st.validate_schedule(sched).passed
    assert len(sched) == 40
    out2 = tmp_path / "sched2.json"
    main(["gen-times", "--config", str(ref_config_path), "--output", str(out2), "--quiet"])
    assert out.read_bytes() == out2.read_bytes()


def test_gen_times_late_only_variant(ref_config_path, tmp_path):
    cfg = _patched_config(ref_config_path, tmp_path, {"schedule.variant": "adt_plus"})
    out = tmp_path / "sched.json"
    assert main(["gen-times", "--config", str(cfg), "--output", str(out), "--quiet"]) == 0
    doc = json.loads(out.read_text())
    assert doc["variant"] == "adt_plus"
    assert min(doc["chis"]) >= 0.0


def test_gen_times_inline_schedule_passthrough(ref_config_path, tmp_path):
    inline = {"tau0": 0.0, "theta": 1.0, "chi_max": 0.1, "variant": "adt",
              "chis": [0.0, 0.05, -0.02]}
    cfg = _patched_config(ref_config_path, tmp_path, {"schedule.chis": inline["chis"]})
    out = tmp_path / "sched.json"
    assert main(["gen-times", "--config", str(cfg), "--output", str(out), "--quiet"]) == 0
    doc = json.loads(out.read_text())
    assert doc["chis"] == inline["chis"]


def test_gen_times_rejects_non_finite_deviation(ref_config_path, tmp_path, capsys):
    cfg = _patched_config(ref_config_path, tmp_path, {"schedule.chis": [0.0, float("nan")]})
    assert "NaN" in cfg.read_text()
    out = tmp_path / "sched.json"
    assert main(["gen-times", "--config", str(cfg), "--output", str(out)]) == 2
    assert not out.exists()
    assert "deviation_bound" in capsys.readouterr().err


@pytest.mark.parametrize("jitter, code", [(None, 0), (0.45, 1)], ids=["reference", "negative"])
def test_certify_forms_omega_and_flow_once(ref_config_path, tmp_path, record_calls, jitter, code):
    base = json.loads(ref_config_path.read_text(encoding="utf-8"))
    theta = base["schedule"]["theta"]
    A, B = (np.reshape(np.asarray(base["system"][k], dtype=float), (2, 2)) for k in "AB")
    patches = None if jitter is None else {"schedule.chi_max": jitter * theta}
    cfg = _patched_config(ref_config_path, tmp_path, patches)
    # omega and the lift amplification each walk {B, A^m}, and the system
    # memo forms each chunk of it once
    chunks = record_calls(commutators._chunk)
    flows = record_calls(linalg.expm)
    out = tmp_path / "report.json"
    assert main(["certify", "--config", str(cfg), "--output", str(out), "--quiet"]) == code
    period_flows = [
        args for args, kwargs in flows
        if theta in np.atleast_1d(args[1] if len(args) > 1 else kwargs.get("t", 1.0))
        and np.array_equal(args[0], A)
    ]
    system = commutators._system(A, B)
    assert 0 < len(chunks) == len(system.chunks)
    assert len(flows) == len(period_flows) == 1


def test_omega_table(ref_config_path, tmp_path):
    out = tmp_path / "omega.txt"
    assert main(["omega", "--config", str(ref_config_path), "--output", str(out), "--quiet"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("omega = 0.1726")
    assert lines[1] == "m,commutator_norm,contribution"
    first_row = lines[2].split(",")
    assert first_row[0] == "1"
    assert abs(float(first_row[1]) - 0.5505) <= 5e-5


def test_commutators_table(ref_config_path, tmp_path):
    out = tmp_path / "comm.csv"
    assert main(["commutators", "--config", str(ref_config_path), "--output", str(out), "--quiet"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "m,norm"
    assert len(lines) == 14  # orders 0..12 from the bundled config
    B = np.array([[0.2, 0.1], [-0.1, 1.5]])
    assert float(lines[1].split(",")[1]) == pytest.approx(
        np.linalg.norm(B, 2), rel=1e-12
    )


SUBCOMMANDS = ["certify", "simulate", "omega", "mr-check", "gen-times", "commutators"]

# the first words of each subcommand's one-line summary on the bundled config
SUMMARY_STARTS = {
    "certify": "certified: spectral radius 0.665525 vs log threshold 1, margin 0.108483, ",
    "simulate": "659 samples, 29 impulses, final norm ",
    "omega": "omega = 0.1726",
    "mr-check": "residual ",
    "gen-times": "40 instants on [0, ",
    "commutators": "computed nested commutators up to order 12",
}


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_stdout_when_no_output_given(ref_config_path, tmp_path, capsys, sub):
    out = tmp_path / "artifact"
    assert main([sub, "--config", str(ref_config_path), "--output", str(out), "--quiet"]) == 0
    capsys.readouterr()
    assert main([sub, "--config", str(ref_config_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text(encoding="utf-8")
    assert captured.err == ""


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_quiet_suppresses_chatter(ref_config_path, tmp_path, capsys, sub):
    out = tmp_path / "artifact"
    assert main([sub, "--config", str(ref_config_path), "--output", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert out.stat().st_size > 0


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_chatter_goes_to_stdout_with_output(ref_config_path, tmp_path, capsys, sub):
    quiet, chatty = tmp_path / "quiet", tmp_path / "chatty"
    assert main([sub, "--config", str(ref_config_path), "--output", str(quiet), "--quiet"]) == 0
    assert main([sub, "--config", str(ref_config_path), "--output", str(chatty)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(SUMMARY_STARTS[sub])
    assert out.endswith("\n") and out.count("\n") == 1
    assert chatty.read_bytes() == quiet.read_bytes()


@pytest.mark.parametrize("magnitude, chi_max", [(1e200, 0.1), (1e155, 0.001)], ids=["omega", "phi"])
def test_certify_inequality_overflow_exit2(ref_config_path, tmp_path, capsys, magnitude, chi_max):
    cfg = _patched_config(ref_config_path, tmp_path, {
        "system.A": [1.0, 0.0, 0.0, -1.0],
        "system.B": [0.0, magnitude, magnitude, 0.0],
        "schedule.chi_max": chi_max,
    })
    out = tmp_path / "report.json"
    assert main(["certify", "--config", str(cfg), "--output", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: jump inequality overflowed at omega = \S+\n", captured.err)


def test_certify_huge_p0_scales_the_margin(ref_config_path, tmp_path):
    # the inequality is homogeneous in P0, and no step of it overflows here
    # (an overflow warning would be an error under the pytest settings)
    unit, huge = tmp_path / "unit.json", tmp_path / "huge.json"
    cfg = _patched_config(ref_config_path, tmp_path, {"run.p0": [1.0, 0.0, 0.0, 1.0]})
    assert main(["certify", "--config", str(cfg), "--output", str(unit), "--quiet"]) == 0
    cfg = _patched_config(ref_config_path, tmp_path, HUGE_P0, name="huge_cfg.json")
    assert main(["certify", "--config", str(cfg), "--output", str(huge), "--quiet"]) == 0
    margin = json.loads(huge.read_text())["margin"]
    assert margin == pytest.approx(1e308 * json.loads(unit.read_text())["margin"], rel=1e-12)


def test_output_is_only_file_written(ref_config_path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["certify", "--config", str(ref_config_path), "--output", "report.json", "--quiet"])
    assert rc == 0
    assert [p.name for p in Path(".").iterdir()] == ["report.json"]


def test_commutators_overflow_exit2(ref_config_path, tmp_path, capsys):
    cfg = _patched_config(ref_config_path, tmp_path, {
        "system.A": [50.0, 40.0, -30.0, -60.0],
        "run.m_max": 400,
    })
    out = tmp_path / "comm.csv"
    assert main(["commutators", "--config", str(cfg), "--output", str(out)]) == 2
    assert not out.exists()
    assert re.fullmatch(r"error: commutator of order \d+ overflowed\n", capsys.readouterr().err)


def test_mr_check_running_sum_overflow_exit2(ref_config_path, tmp_path, capsys):
    # the lift's series sums finite terms s^m/m! 1e308 to e^s 1e308; a
    # subnormal x0 lets the original run survive its two jumps by 1e308
    cfg = _patched_config(ref_config_path, tmp_path, {
        "system.A": [0.5, 0.0, 0.0, -0.5],
        "system.B": [0.0, 1e308, 1e308, 0.0],
        "schedule.theta": 3.0,
        "schedule.chi_max": 0.85,
        "run.k": 2,
        "run.x0": [1e-310, 0.0],
    })
    out = tmp_path / "mr.txt"
    assert main(["mr-check", "--config", str(cfg), "--output", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: commutator series: running sum overflowed\n"


def test_mr_check_lifted_state_overflow_exit2(ref_config_path, tmp_path, capsys):
    # the original run stays finite; its lift is 1.47e308 times e^0.35 past the flow
    cfg = _patched_config(ref_config_path, tmp_path, {
        "system.A": [-0.5, 0.0, 0.0, 0.5],
        "system.B": [0.0, 1e308, 0.0, 0.0],
        "schedule.chi_max": 0.3,
        "schedule.count": 6,
        "schedule.seed": 0,
        "run.k": 3,
        "run.x0": [0.0, 1.0],
    })
    out = tmp_path / "mr.txt"
    assert main(["mr-check", "--config", str(cfg), "--output", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: lifted initial state overflowed\n"


def test_omega_running_sum_overflow_exit2(ref_config_path, tmp_path, capsys):
    # each term (2 chi_max)^m/m! 1e308 is finite, the sum e^1.7 1e308 is not
    cfg = _patched_config(ref_config_path, tmp_path, {
        "system.A": [0.5, 0.0, 0.0, -0.5],
        "system.B": [0.0, 1e308, 1e308, 0.0],
        "schedule.chi_max": 0.85,
    })
    out = tmp_path / "omega.txt"
    assert main(["omega", "--config", str(cfg), "--output", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: correction bound: running sum overflowed\n"


@pytest.mark.parametrize("drop", [(), ("pde",)], ids=["parabolic", "vector"])
def test_simulate_overflow_exit2(ref_config_path, tmp_path, capsys, drop):
    cfg = _patched_config(ref_config_path, tmp_path, {
        "system.A": [0.0, 0.0, 0.0, 0.0],
        "system.B": [1e200, 0.0, 0.0, 1e200],
    }, drop=drop)
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 2
    assert not out.exists()
    assert re.fullmatch(r"error: trajectory norm overflowed at t = \S+\n", capsys.readouterr().err)


@pytest.mark.parametrize("sub", ["certify", "simulate", "omega", "mr-check", "commutators"])
def test_other_rel_tol_exit2(ref_config_path, tmp_path, capsys, sub):
    cfg = _patched_config(ref_config_path, tmp_path, {"run.rel_tol": 1e-10})
    assert main([sub, "--config", str(cfg), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: run.rel_tol is fixed at 1e-12, got 1e-10\n"


def test_fixed_rel_tol_is_accepted(ref_config_path, tmp_path):
    cfg = _patched_config(ref_config_path, tmp_path, {"run.rel_tol": 1e-12})
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["certify", "--config", str(cfg), "--output", str(a), "--quiet"]) == 0
    assert main(["certify", "--config", str(ref_config_path), "--output", str(b), "--quiet"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_certify_ignores_seed(ref_config_path, tmp_path):
    # strong shear: the identity fails, so P0 is the Stein solution
    cfg = _patched_config(ref_config_path, tmp_path, {
        "system.A": [0.0, 12.0, 0.0, 0.0],
        "system.B": [0.3, 0.0, 0.0, 0.3],
        "schedule.chi_max": 0.0,
    })
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["certify", "--config", str(cfg), "--output", str(a), "--seed", "1", "--quiet"]) == 0
    assert main(["certify", "--config", str(cfg), "--output", str(b), "--seed", "2", "--quiet"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["p0"] != [1.0, 0.0, 0.0, 1.0]


BUNDLED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reaction_diffusion.json"

# every section.key of the bundled config, some optional keys, and whole sections
CONFIG_KEYS = [
    ("system", "n"), ("system", "A"), ("system", "B"),
    ("pde", "mu"), ("pde", "ell"), ("pde", "n_modes"),
    ("schedule", "tau0"), ("schedule", "theta"), ("schedule", "chi_max"),
    ("schedule", "count"), ("schedule", "variant"), ("schedule", "seed"),
    ("schedule", "chis"), ("schedule", "taus"),
    ("run", "t_end"), ("run", "sample_dt"), ("run", "seed"), ("run", "k"),
    ("run", "m_max"), ("run", "p0"), ("run", "x0"), ("run", "init_modes"), ("run", "rel_tol"),
    ("system", None), ("pde", None), ("schedule", None), ("run", None),
]
MALFORMED = [
    "x", "", None, [], ["a"], [1.0, "b"], [[1.0], [1.0, 2.0]], {}, {"a": 1},
    -1, -2.5, float("nan"), float("inf"), float("-inf"),
]


@settings(max_examples=80, deadline=None)
@given(
    sub=hs.sampled_from(SUBCOMMANDS),
    where=hs.sampled_from(CONFIG_KEYS),
    value=hs.sampled_from(MALFORMED),
    vector=hs.booleans(),
)
def test_malformed_config_value_exits_cleanly(sub, where, value, vector):
    cfg = json.loads(BUNDLED_CONFIG.read_text(encoding="utf-8"))
    cfg["run"]["t_end"] = 2.0  # keeps simulate short
    if vector:
        del cfg["pde"]  # simulate then runs the plain vector flow
    section, key = where
    if key is None:
        cfg[section] = value
    else:
        cfg.setdefault(section, {})[key] = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([sub, "--config", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")


# each whole-number key of the bundled config, with a subcommand that reads it
WHOLE_NUMBER_KEYS = {
    "system.n": "omega", "schedule.count": "gen-times", "schedule.seed": "gen-times",
    "run.seed": "mr-check", "run.k": "mr-check", "run.m_max": "commutators",
    "pde.n_modes": "simulate",
}


@pytest.mark.parametrize("dotted", sorted(WHOLE_NUMBER_KEYS))
def test_whole_number_keys_refuse_fractions_bools_and_strings(dotted, tmp_path, capsys):
    # int() would read 2.9 as 2, true as 1 and "2" as 2; 2.0 stays valid
    sub = WHOLE_NUMBER_KEYS[dotted]
    section, key = dotted.split(".")
    cfg = json.loads(BUNDLED_CONFIG.read_text(encoding="utf-8"))
    value = cfg[section][key]

    def run(v, name):
        path = _patched_config(BUNDLED_CONFIG, tmp_path, {"run.t_end": 2.0, dotted: v}, name=name)
        out = tmp_path / f"{name}.out"
        return main([sub, "--config", str(path), "--output", str(out), "--quiet"]), out

    for bad in (value + 0.5, True, str(value)):
        capsys.readouterr()
        assert run(bad, "bad.json")[0] == 2
        assert capsys.readouterr().err == f"error: {dotted} has an invalid value {bad!r}\n"
    (code, whole), (code_float, as_float) = run(value, "int.json"), run(float(value), "float.json")
    assert code == code_float
    assert whole.read_bytes() == as_float.read_bytes()


def test_seed_beyond_float_precision_is_read_exactly(tmp_path):
    # float(2**60 + 1) == 2**60, so a reader that goes through float would merge the seeds
    docs = []
    for seed in (2**60, 2**60 + 1):
        path = _patched_config(BUNDLED_CONFIG, tmp_path, {"schedule.seed": seed}, name=f"{seed}.json")
        out = tmp_path / f"{seed}.out"
        assert main(["gen-times", "--config", str(path), "--output", str(out), "--quiet"]) == 0
        docs.append(out.read_bytes())
    assert docs[0] != docs[1]


# each float key of the bundled config, a subcommand that reads it, and a whole value it accepts
FLOAT_KEYS = {
    "schedule.tau0": ("gen-times", 0), "schedule.theta": ("certify", 1),
    "schedule.chi_max": ("omega", 0), "pde.mu": ("certify", 1), "pde.ell": ("certify", 3),
    "run.t_end": ("simulate", 2), "run.sample_dt": ("simulate", 1),
}


@pytest.mark.parametrize("dotted", sorted(FLOAT_KEYS))
def test_float_keys_refuse_bools_and_strings(dotted, tmp_path, capsys):
    # float() would read true as 1.0 and "1.0" as 1.0
    sub, whole = FLOAT_KEYS[dotted]
    section, key = dotted.split(".")
    value = json.loads(BUNDLED_CONFIG.read_text(encoding="utf-8"))[section][key]

    def run(v, name):
        path = _patched_config(BUNDLED_CONFIG, tmp_path, {"run.t_end": 2.0, dotted: v}, name=name)
        out = tmp_path / f"{name}.out"
        return main([sub, "--config", str(path), "--output", str(out), "--quiet"]), out

    for bad in (True, str(value)):
        capsys.readouterr()
        assert run(bad, "bad.json")[0] == 2
        assert capsys.readouterr().err == f"error: {dotted} has an invalid value {bad!r}\n"
    (code, as_int), (code_float, as_float) = run(whole, "int.json"), run(float(whole), "float.json")
    assert code == code_float
    assert as_int.read_bytes() == as_float.read_bytes()


# each array key, with a subcommand that reads it and a valid value
ARRAY_KEYS = {
    "system.A": ("omega", [1.2, 0.1, 0.1, -3.0]),
    "system.B": ("omega", [0.2, 0.1, -0.1, 1.5]),
    "run.x0": ("mr-check", [1.0, 0.0]),
    "run.p0": ("certify", [1.0, 0.0, 0.0, 1.0]),
    "run.init_modes": ("simulate", [[1.0, 0.0]] + [[0.0, 0.0]] * 31),
}


@pytest.mark.parametrize("dotted", sorted(ARRAY_KEYS))
@pytest.mark.parametrize("entry", [True, "1.0"], ids=["bool", "string"])
def test_array_keys_refuse_bool_and_string_entries(dotted, entry, tmp_path, capsys):
    # np.asarray(..., dtype=float) would read true as 1.0 and "1.0" as 1.0
    sub, good = ARRAY_KEYS[dotted]
    bad = json.loads(json.dumps(good))
    row = bad[0] if isinstance(bad[0], list) else bad
    row[0] = entry

    def run(v, name):
        path = _patched_config(BUNDLED_CONFIG, tmp_path, {"run.t_end": 2.0, dotted: v}, name=name)
        return main([sub, "--config", str(path), "--output", str(tmp_path / f"{name}.out"), "--quiet"])

    assert run(good, "good.json") in (0, 1)
    capsys.readouterr()
    assert run(bad, "bad.json") == 2
    assert capsys.readouterr().err == f"error: {dotted} has an invalid value {bad!r}\n"


# the subcommands that read each schedule key, from a generator or an inline section
SCHEDULE_READERS = {
    "theta": ("certify", "simulate", "mr-check", "gen-times"),
    "chi_max": ("certify", "simulate", "omega", "mr-check", "gen-times"),
    "tau0": ("simulate", "mr-check", "gen-times"),
    "chis": ("simulate", "mr-check", "gen-times"),
}
# patches that turn the bundled generator section into an inline one
INLINE_SCHEDULE = {"schedule.count": None, "schedule.chis": [0.0] * 22}


def test_generator_keys_other_than_tau0_have_no_default(tmp_path, capsys):
    def run(sub, patches, name):
        path = _patched_config(BUNDLED_CONFIG, tmp_path, {"run.t_end": 2.0, **patches}, name=name)
        out = tmp_path / f"{name}.out"
        return main([sub, "--config", str(path), "--output", str(out), "--quiet"]), out

    code, bare = run("gen-times", {"schedule.tau0": None}, "bare.json")
    code_zero, zero = run("gen-times", {"schedule.tau0": 0.0}, "zero.json")
    assert code == code_zero == 0
    assert bare.read_bytes() == zero.read_bytes()
    # an inline section reads tau0 too, with no default
    for section, keys in (({}, ("theta", "chi_max")),
                          (INLINE_SCHEDULE, ("theta", "chi_max", "tau0"))):
        for key in keys:
            for sub in SCHEDULE_READERS[key]:
                capsys.readouterr()
                patches = {**section, f"schedule.{key}": None}
                assert run(sub, patches, "missing.json")[0] == 2, (section, key, sub)
                assert capsys.readouterr().err == f"error: schedule section missing {key!r}\n"


def test_negative_zero_deviation_bound_runs_as_zero(tmp_path):
    # -0.0 passes 0 <= chi_max; each subcommand that draws a schedule writes
    # what it writes at +0.0
    for sub in ("gen-times", "simulate", "mr-check"):
        outs = []
        for chi_max in (-0.0, 0.0):
            name = f"{sub}{chi_max}"
            path = _patched_config(BUNDLED_CONFIG, tmp_path, {"run.t_end": 2.0, "schedule.chi_max": chi_max},
                                   name=f"{name}.json")
            out = tmp_path / f"{name}.out"
            assert main([sub, "--config", str(path), "--output", str(out), "--quiet"]) == 0, sub
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], sub


def test_gen_times_reports_initial_deviation_as_a_number(tmp_path, capsys):
    patches = {"schedule.count": None, "schedule.chis": [0.1, 0.0]}
    path = _patched_config(BUNDLED_CONFIG, tmp_path, patches)
    assert main(["gen-times", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: invalid schedule (initial_deviation): chi_0 = 0.1, expected 0\n"


INTP_MAX = np.iinfo(np.intp).max

# a value past float64 or the index range, with a subcommand that reads it,
# whether to drop the pde section, and the one-line error
PAST_RANGE = {
    "t_end": ({"run.t_end": 1e308}, "simulate", False,
              "run of inf samples is beyond the index range"),
    "t_end-vector": ({"run.t_end": 1e308}, "simulate", True,
                     "run of inf samples is beyond the index range"),
    "sample_dt": ({"run.sample_dt": 1e-300}, "simulate", False,
                  "run of 3e+301 samples is beyond the index range"),
    "sample_dt-vector": ({"run.sample_dt": 1e-300}, "simulate", True,
                         "run of 3e+301 samples is beyond the index range"),
    # 3e18 samples fit the index range, but their 8-byte floats do not
    "sample_dt-bytes": ({"run.sample_dt": 1e-17}, "simulate", False,
                        "run of 3e+18 samples takes 2.4e+19 bytes, beyond the index range"),
    "mu": ({"pde.mu": 1e160}, "simulate", False,
           "diffusive rate overflowed at mu = 1e+160, ell = 3.14159, j = 1"),
    "ell": ({"pde.ell": 1e-300}, "simulate", False,
            "diffusive rate overflowed at mu = 1, ell = 1e-300, j = 1"),
    "m_max": ({"run.m_max": 10**30}, "commutators", False,
              f"m_max must be in 0..{INTP_MAX - 1}, got {10**30}"),
    "n_modes": ({"pde.n_modes": 10**30}, "simulate", False,
                f"n_modes must be in 1..{INTP_MAX}, got {10**30}"),
    "n_modes-certify": ({"pde.n_modes": 10**30}, "certify", False,
                        f"n_modes must be in 1..{INTP_MAX}, got {10**30}"),
}


@pytest.mark.parametrize("case", sorted(PAST_RANGE))
def test_values_past_the_range_exit2(tmp_path, capsys, case):
    patches, sub, vector, message = PAST_RANGE[case]
    path = _patched_config(BUNDLED_CONFIG, tmp_path, patches, drop=("pde",) if vector else ())
    out = tmp_path / "out"
    assert main([sub, "--config", str(path), "--output", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_run_that_does_not_fit_in_memory_exits2(ref_config_path, tmp_path, capsys, monkeypatch):
    # exit 1 is the honest negative, so running out of memory must not read as one
    def out_of_memory(cfg, seed):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_simulate", out_of_memory)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(ref_config_path), "--output", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr() == ("", "error: simulate does not fit in memory\n")


# the config readers' own input checks, each with the arguments that reach it
CONFIG_CHECKS = {
    "system.n": ({"system.n": 0}, ["omega"], "system.n must be >= 1, got 0"),
    "system.A": ({"system.A": [1.0, 2.0, 3.0]}, ["omega"], "matrix 'A' must have 4 entries, got 3"),
    "seed-flag": ({}, ["gen-times", "--seed", "-1"], "seeds must be >= 0, got -1"),
    "schedule.seed": ({"schedule.seed": -1}, ["gen-times"], "seeds must be >= 0, got -1"),
    "no-generator": ({"schedule.count": None}, ["gen-times"],
                     "schedule section needs 'chis'/'taus' or generator parameters with 'count'"),
    "run.m_max": ({"run.m_max": -1}, ["commutators"], "m_max must be "),
    "pde.n_modes": ({"pde.n_modes": 0}, ["simulate"], "n_modes must be "),
}


@pytest.mark.parametrize("case", sorted(CONFIG_CHECKS))
def test_config_checks_exit2(tmp_path, capsys, case):
    patches, args, start = CONFIG_CHECKS[case]
    path = _patched_config(BUNDLED_CONFIG, tmp_path, patches)
    assert main([*args, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {start}") and err.count("\n") == 1


# a bad value of each schedule key; "entry" and "string" are inline-only
SCHEDULE_ERRORS = {
    "entry": ("chis", [0.0, "x"]), "string": ("chis", "000"),
    "theta": ("theta", "1"), "chi_max": ("chi_max", True), "tau0": ("tau0", "0"),
}


@pytest.mark.parametrize("case", sorted(SCHEDULE_ERRORS))
def test_schedule_number_errors_name_the_key(tmp_path, capsys, case):
    # generator and inline sections give one message per bad key, in every subcommand
    key, bad = SCHEDULE_ERRORS[case]
    for section in (INLINE_SCHEDULE,) if key == "chis" else ({}, INLINE_SCHEDULE):
        path = _patched_config(BUNDLED_CONFIG, tmp_path, {**section, f"schedule.{key}": bad})
        for sub in SCHEDULE_READERS[key]:
            assert main([sub, "--config", str(path)]) == 2, (section, sub)
            message = f"error: schedule.{key} has an invalid value {bad!r}\n"
            assert capsys.readouterr().err == message


def test_options_may_come_before_the_command(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen-times", "--config", str(BUNDLED_CONFIG), "--output", str(a), "--quiet"]) == 0
    assert main(["--config", str(BUNDLED_CONFIG), "--quiet", "--output", str(b), "gen-times"]) == 0
    assert a.read_bytes() == b.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = capsys.readouterr().out.split("commands:\n", 1)[1].splitlines()
    assert [line.split()[0] for line in listed] == SUBCOMMANDS


def test_dumps_renders_the_shapes_of_the_documents_and_refuses_others():
    doc = {"ok": True, "n": 2, "x": 0.1, "name": 'a"b', "v": [1.0, -0.0], "inner": {"k": [3]}}
    assert serialize.dumps(doc) == (
        '{\n  "ok": true,\n  "n": 2,\n  "x": 0.10000000000000001,\n  "name": "a\\"b",\n'
        '  "v": [1, -0],\n  "inner": {\n    "k": [3]\n  }\n}\n'
    )
    for value in (None, np.zeros(2), {1.0}):
        with pytest.raises(TypeError, match="^cannot serialize object of type"):
            serialize.dumps({"value": value})
