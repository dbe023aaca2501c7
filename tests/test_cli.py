import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import adtstab as st
from adtstab import commutators, linalg
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


# Phi = B e^(theta A) overflows at B = diag(1e200, 1); (pi mu / ell)^2 at mu = 1e160
CERTIFY_OVERFLOWS = {
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
    bad.write_text("{not json", encoding="utf-8")
    assert main(["certify", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


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


def _record_calls(monkeypatch, func, calls: list) -> None:
    """Route every adtstab binding of func through a wrapper logging its arguments."""

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "adtstab" or name.startswith("adtstab."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, wrapper)


@pytest.mark.parametrize("jitter, code", [(None, 0), (0.45, 1)], ids=["reference", "negative"])
def test_certify_forms_omega_and_flow_once(ref_config_path, tmp_path, monkeypatch, jitter, code):
    base = json.loads(ref_config_path.read_text(encoding="utf-8"))
    theta = base["schedule"]["theta"]
    A = np.reshape(base["system"]["A"], (2, 2))
    patches = None if jitter is None else {"schedule.chi_max": jitter * theta}
    cfg = _patched_config(ref_config_path, tmp_path, patches)
    bounds, flows = [], []
    _record_calls(monkeypatch, commutators.correction_bound, bounds)
    _record_calls(monkeypatch, linalg.expm, flows)
    out = tmp_path / "report.json"
    assert main(["certify", "--config", str(cfg), "--output", str(out), "--quiet"]) == code
    period_flows = [
        args for args, kwargs in flows
        if (args[1] if len(args) > 1 else kwargs.get("t", 1.0)) == theta
        and np.array_equal(args[0], A)
    ]
    assert len(bounds) == 1
    assert len(period_flows) == 1


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
        st.spectral_norm(B), rel=1e-12
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
