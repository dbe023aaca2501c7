import json
import math
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import adtstab as st
from conftest import REPO_ROOT


def test_generate_deterministic():
    a = st.generate_schedule(0.0, 1.0, 0.1, 50, st.ADT, seed=4)
    b = st.generate_schedule(0.0, 1.0, 0.1, 50, st.ADT, seed=4)
    assert a == b
    c = st.generate_schedule(0.0, 1.0, 0.1, 50, st.ADT, seed=5)
    assert a != c


def test_generate_bounds_symmetric_variant():
    s = st.generate_schedule(0.5, 0.8, 0.2, 200, st.ADT, seed=1)
    chis = np.asarray(s.chis)
    assert chis[0] == 0.0
    assert np.all(np.abs(chis) <= 0.2)
    assert np.all(np.diff(s.taus) > 0)
    assert st.validate_schedule(s).passed


def test_generate_bounds_late_only_variant():
    s = st.generate_schedule(0.0, 1.0, 0.3, 200, st.ADT_PLUS, seed=2)
    chis = np.asarray(s.chis)
    assert np.all(chis >= 0.0)
    assert np.all(chis <= 0.3)
    # a late-only draw is admissible for the symmetric variant too
    relaxed = st.ImpulseSchedule(s.tau0, s.theta, s.chi_max, st.ADT, s.chis)
    assert st.validate_schedule(relaxed).passed


def test_generate_large_jitter_keeps_increase():
    s = st.generate_schedule(0.0, 1.0, 0.8, 500, st.ADT, seed=3)
    assert np.all(np.diff(s.taus) > 0)
    assert np.all(np.diff(s.taus) <= 1.0 + 2 * 0.8 + 1e-12)
    assert st.validate_schedule(s).passed


def test_generate_rejection_path_deterministic():
    a = st.generate_schedule(0.0, 1.0, 0.9, 300, st.ADT, seed=8)
    b = st.generate_schedule(0.0, 1.0, 0.9, 300, st.ADT, seed=8)
    assert a == b


def test_generate_parameter_validation():
    with pytest.raises(st.InputError):
        st.generate_schedule(0.0, 1.0, 1.0, 5)
    with pytest.raises(st.InputError):
        st.generate_schedule(0.0, 0.0, 0.0, 5)
    with pytest.raises(st.InputError):
        st.generate_schedule(0.0, 1.0, -0.1, 5)
    with pytest.raises(st.InputError):
        st.generate_schedule(0.0, 1.0, 0.1, 0)
    with pytest.raises(st.InputError):
        st.generate_schedule(0.0, 1.0, 0.1, 5, variant="weekly")
    with pytest.raises(st.InputError):
        st.generate_schedule(float("nan"), 1.0, 0.1, 5)


def _count_arguments(ref):
    """Each library count argument: its name in errors, its lowest value and
    a call at a value whose result can be compared with ==."""
    system = st.ImpulsiveSystem(A=ref.A, B=ref.B)
    model = st.ParabolicModel(A=ref.A, B=ref.B, mu=ref.mu, ell=ref.ell, n_modes=4)
    sched = st.generate_schedule(0.0, ref.theta, ref.chi_max, 6, st.ADT, seed=1)
    traj = st.simulate_parabolic(model, sched, np.eye(4, 2), 2.0, 0.5)
    return {
        "generate-count": ("count", 1, lambda v: st.generate_schedule(0.0, 1.0, 0.1, v)),
        "generate-seed": ("seed", 0, lambda v: st.generate_schedule(0.0, 1.0, 0.1, 4, seed=v)),
        "nested_commutators": ("m_max", 0, lambda v: st.nested_commutators(ref.A, ref.B, v).norms),
        "ParabolicModel": ("n_modes", 1, lambda v: repr(
            st.ParabolicModel(A=ref.A, B=ref.B, mu=ref.mu, ell=ref.ell, n_modes=v))),
        "decay_rate": ("mode index j", 1, model.decay_rate),
        "mode_csv": ("mode index j", 1, lambda v: st.mode_csv(traj, v)),
        "simulate_comparison": ("K", 1, lambda v: st.simulate_comparison(
            system, sched, [1.0, 0.0], v).states.tobytes()),
        "matching_residual": ("K", 2, lambda v: st.matching_residual(system, sched, [1.0, 0.0], v)),
    }


@pytest.mark.parametrize("site", [
    "generate-count", "generate-seed", "nested_commutators", "ParabolicModel", "decay_rate",
    "mode_csv", "simulate_comparison", "matching_residual",
])
def test_count_arguments_take_whole_numbers_only(ref, site):
    # int() would read 2.5 as 2 and True as 1; a whole float or numpy integer reads as the int
    name, lo, call = _count_arguments(ref)[site]
    for bad in (True, "3", 2.5, math.nan, math.inf, lo - 1):
        with pytest.raises(st.InputError, match=f"^{re.escape(name)} must be in "):
            call(bad)
    expected = call(3)
    for whole in (np.float64(3.0), np.int64(3), 3.0):
        assert call(whole) == expected


def test_taus_encode_deviations():
    s = st.ImpulseSchedule(2.0, 0.5, 0.1, st.ADT, (0.0, 0.05, -0.1))
    assert np.allclose(s.taus, [2.0, 2.55, 2.9], atol=1e-15)
    assert len(s) == 3


def test_validate_flags_deviation_bound():
    s = st.schedule_from_doc(
        {"theta": 1.0, "chi_max": 0.1, "variant": "adt", "taus": [0.0, 1.2, 1.9]}
    )
    report = st.validate_schedule(s)
    assert not report.passed
    failing = {c.name: c for c in report.failures()}
    assert set(failing) == {"deviation_bound"}
    assert failing["deviation_bound"].worst_index == 1


def test_validate_flags_decrease():
    s = st.ImpulseSchedule(0.0, 1.0, 0.95, st.ADT, (0.0, 0.9, -0.5))
    report = st.validate_schedule(s)
    failing = {c.name: c for c in report.failures()}
    assert set(failing) == {"strictly_increasing"}
    assert failing["strictly_increasing"].worst_index == 2


def test_validate_flags_gap():
    # an over-long gap needs a deviation outside its window, so the
    # deviation check alone names it
    s = st.ImpulseSchedule(0.0, 1.0, 0.1, st.ADT, (0.0, -0.3, 0.4))
    report = st.validate_schedule(s)
    failing = {c.name: c for c in report.failures()}
    assert set(failing) == {"deviation_bound"}
    assert failing["deviation_bound"].worst_index == 2


def test_validate_rejects_non_finite_deviation(ref_system):
    doc = '{"tau0": 0.0, "theta": 1.0, "chi_max": 0.1, "chis": [0.0, NaN, 0.05]}'
    for s in (
        st.ImpulseSchedule(0.0, 1.0, 0.1, st.ADT, (0.0, float("nan"), 0.05)),
        st.schedule_from_doc(json.loads(doc)),
    ):
        report = st.validate_schedule(s)
        failing = {c.name: c for c in report.failures()}
        assert set(failing) == {"deviation_bound"}
        assert failing["deviation_bound"].worst_index == 1
        assert "chi_1 = nan" in failing["deviation_bound"].detail
        with pytest.raises(st.InputError):
            st.simulate_ode(ref_system, s, [1.0, 0.0], t_end=2.5, sample_dt=0.5)


@hs.composite
def _schedules(draw):
    chi_max = draw(hs.floats(0.0, 0.9))
    variant = draw(hs.sampled_from([st.ADT, st.ADT_PLUS]))
    special = hs.sampled_from([0.0, chi_max, -chi_max, math.nan, math.inf, -math.inf])
    chis = draw(hs.lists(hs.one_of(hs.floats(-1.5, 1.5), special), min_size=1, max_size=8))
    return st.ImpulseSchedule(draw(hs.floats(-5.0, 5.0)), 1.0, chi_max, variant, tuple(chis))


@settings(max_examples=300, deadline=None)
@given(_schedules())
def test_validate_matches_definition(s):
    lo = -s.chi_max if s.variant == st.ADT else 0.0
    taus = [s.tau0 + k * s.theta + c for k, c in enumerate(s.chis)]
    admissible = (
        s.chis[0] == 0.0
        and all(math.isfinite(c) and lo <= c <= s.chi_max for c in s.chis)
        and all(b > a for a, b in zip(taus, taus[1:]))
    )
    assert st.validate_schedule(s).passed == admissible


@hs.composite
def _parameters(draw):
    theta = draw(hs.floats(0.05, 5.0))
    chi_max = draw(hs.floats(0.0, 0.99)) * theta
    return draw(hs.floats(-5.0, 5.0)), theta, chi_max, draw(hs.sampled_from([st.ADT, st.ADT_PLUS]))


@settings(max_examples=200, deadline=None)
@given(_parameters(), hs.lists(hs.floats(-1.5, 1.5), min_size=1, max_size=8))
def test_doc_roundtrip_property(params, chis):
    s = st.ImpulseSchedule(*params, tuple(chis))
    assert st.schedule_from_doc(json.loads(json.dumps(st.schedule_to_doc(s)))) == s
    doc = {"theta": s.theta, "chi_max": s.chi_max, "variant": s.variant, "taus": list(s.taus)}
    assert np.allclose(st.schedule_from_doc(doc).taus, s.taus, rtol=0.0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(_parameters(), hs.integers(1, 64), hs.integers(0, 2**32 - 1))
def test_generate_output_validates(params, count, seed):
    tau0, theta, chi_max, variant = params
    s = st.generate_schedule(tau0, theta, chi_max, count, variant, seed)
    assert len(s) == count and s.variant == variant
    assert st.validate_schedule(s).passed


@hs.composite
def _uncut_parameters(draw):
    """A window that strict increase never cuts: "adt_plus", or "adt" with theta > 2 chi_max."""
    theta = draw(hs.floats(0.05, 5.0))
    variant = draw(hs.sampled_from([st.ADT, st.ADT_PLUS]))
    chi_max = draw(hs.floats(0.0, 0.4999 if variant == st.ADT else 0.99)) * theta
    return draw(hs.floats(-5.0, 5.0)), theta, chi_max, variant


@settings(max_examples=200, deadline=None)
@given(_uncut_parameters(), hs.integers(1, 64), hs.integers(0, 2**32 - 1))
def test_generate_on_an_uncut_window_is_one_uniform_call_per_instant(params, count, seed):
    tau0, theta, chi_max, variant = params
    rng, lo = np.random.default_rng(seed), -chi_max if variant == st.ADT else 0.0
    expected = [0.0] + [float(rng.uniform(lo, chi_max)) for _ in range(count - 1)]
    s = st.generate_schedule(tau0, theta, chi_max, count, variant, seed)
    assert np.array(s.chis).tobytes() == np.array(expected).tobytes()


def _ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate((a, b))
    return float(np.max(np.abs(
        np.searchsorted(a, grid, "right") / len(a) - np.searchsorted(b, grid, "right") / len(b)
    )))


def test_generate_on_a_cut_window_keeps_increase_and_the_rejection_law():
    # theta < 2 chi_max: strict increase cuts the "adt" window below chi_(k-1) - theta,
    # here whenever chi_(k-1) > 0.1, so for 4 in 9 values of chi_1
    theta, chi_max = 1.0, 0.9
    for seed in range(50):
        chis = st.generate_schedule(0.0, theta, chi_max, 60, st.ADT, seed).chis
        assert all(a - theta < b <= chi_max and b >= -chi_max for a, b in zip(chis, chis[1:]))
    # chi_2 given a chi_1 that cuts the window, against redrawing chi_2 on the whole
    # window until chi_2 > chi_1 - theta; both as their fraction of the cut window
    reference, drawn, redrawn = np.random.default_rng(2**40), [], []
    for seed in range(6000):
        chi_1, chi_2 = st.generate_schedule(0.0, theta, chi_max, 3, st.ADT, seed).chis[1:]
        low = chi_1 - theta
        if low > -chi_max:
            chi = -math.inf
            while not chi > low:
                chi = reference.uniform(-chi_max, chi_max)
            drawn.append((chi_2 - low) / (chi_max - low))
            redrawn.append((chi - low) / (chi_max - low))
    # Smirnov's two-sample critical value at level 1e-3, c sqrt(2 / n) with
    # c = sqrt(-ln(1e-3 / 2) / 2): 0.054 at the n = 2612 cut draws here.  The
    # statistic reads 0.022; clipping a whole-window draw up to the cut reads 0.22
    n = len(drawn)
    assert n > 2500
    assert _ks_distance(drawn, redrawn) < math.sqrt(-math.log(1e-3 / 2) / n)


def test_validate_flags_nonzero_initial_deviation():
    s = st.ImpulseSchedule(0.0, 1.0, 0.2, st.ADT, (0.1, 0.0))
    report = st.validate_schedule(s)
    assert not report.passed
    assert "initial_deviation" in {c.name for c in report.failures()}
    assert all(type(c.passed) is bool for c in report.checks)


def test_validate_flags_bad_parameters():
    s = st.ImpulseSchedule(0.0, 1.0, 1.5, st.ADT, (0.0,))
    report = st.validate_schedule(s)
    assert not report.passed
    assert report.checks[0].name == "parameters"
    assert not report.checks[0].passed


def test_validate_report_fields_are_pinned():
    def fields(s):
        return [(c.name, bool(c.passed), c.worst_index, c.detail) for c in st.validate_schedule(s).checks]

    passing = [(name, True, None, "") for name in
               ("parameters", "initial_deviation", "deviation_bound", "strictly_increasing")]
    assert fields(st.ImpulseSchedule(0.0, 1.0, 0.2, st.ADT, (0.0, 0.1, -0.2))) == passing
    assert fields(st.ImpulseSchedule(0.0, 1.0, 0.2, st.ADT, (0.0,))) == passing
    assert fields(st.ImpulseSchedule(0.0, 1.0, 0.95, st.ADT, (0.1, 1.2, -0.5))) == [
        ("parameters", True, None, ""),
        ("initial_deviation", False, 0, "chi_0 = 0.1, expected 0"),
        ("deviation_bound", False, 1, "chi_1 = 1.2 outside [-0.95, 0.95]"),
        ("strictly_increasing", False, 2, "tau_2 - tau_1 = -0.7 <= 0"),
    ]
    # tau_2 = 2 * 1e308 leaves float64, and inf - 1e308 > 0 would pass as a gap
    assert fields(st.generate_schedule(0.0, 1e308, 0.0, 3)) == passing[:3] + [
        ("strictly_increasing", False, 2, "tau_2 = inf is not finite"),
    ]
    assert fields(st.ImpulseSchedule(0.0, 1.0, 1.5, st.ADT, (0.0,))) == [
        ("parameters", False, None, "need 0 <= chi_max < theta"),
    ]
    assert fields(st.ImpulseSchedule(0.0, 1.0, 0.2, st.ADT, ())) == [
        ("parameters", False, None, "schedule must contain at least tau_0"),
    ]


def test_validate_passes_generated_draws():
    for seed in range(5):
        s = st.generate_schedule(-2.0, 0.7, 0.3, 64, st.ADT, seed)
        assert st.validate_schedule(s).passed


def test_single_instant_schedule_is_valid():
    s = st.ImpulseSchedule(0.0, 1.0, 0.1, st.ADT, (0.0,))
    assert st.validate_schedule(s).passed


def test_doc_roundtrip():
    s = st.generate_schedule(1.5, 0.9, 0.2, 23, st.ADT_PLUS, seed=6)
    doc = st.schedule_to_doc(s)
    back = st.schedule_from_doc(json.loads(json.dumps(doc)))
    assert back == s


def test_doc_accepts_explicit_instants():
    s0 = st.generate_schedule(0.25, 1.1, 0.2, 17, st.ADT, seed=9)
    doc = {
        "theta": 1.1,
        "chi_max": 0.2,
        "variant": "adt",
        "taus": [float(t) for t in s0.taus],
    }
    back = st.schedule_from_doc(doc)
    assert back.tau0 == pytest.approx(0.25)
    assert np.allclose(back.chis, s0.chis, atol=1e-12)
    assert st.validate_schedule(back).passed


def test_doc_missing_fields():
    with pytest.raises(st.InputError, match="^schedule document must be a JSON object$"):
        st.schedule_from_doc([])
    with pytest.raises(st.InputError, match="^schedule section missing 'chi_max'$"):
        st.schedule_from_doc({"theta": 1.0})
    with pytest.raises(st.InputError, match="^schedule section missing 'tau0'$"):
        st.schedule_from_doc({"theta": 1.0, "chi_max": 0.1, "chis": [0.0]})
    with pytest.raises(st.InputError, match="^schedule document needs either 'chis' or 'taus'$"):
        st.schedule_from_doc({"tau0": 0.0, "theta": 1.0, "chi_max": 0.1})
    with pytest.raises(st.InputError, match="^schedule document has an empty 'taus' list$"):
        st.schedule_from_doc({"tau0": 0.0, "theta": 1.0, "chi_max": 0.1, "taus": []})
    with pytest.raises(st.InputError, match="^schedule.chis has an invalid value 'abc'$"):
        st.schedule_from_doc({"tau0": 0.0, "theta": 1.0, "chi_max": 0.1, "chis": "abc"})
    with pytest.raises(st.InputError, match="^schedule.theta has an invalid value None$"):
        st.schedule_from_doc({"tau0": 0.0, "theta": None, "chi_max": 0.1, "chis": [0.0]})


def test_doc_reads_numpy_scalars():
    doc = {"tau0": np.int64(1), "theta": np.float32(1.5), "chi_max": np.float64(0.25),
           "chis": [np.float32(0.0), np.float64(0.125), np.int64(0)]}
    s = st.schedule_from_doc(doc)
    assert s == st.ImpulseSchedule(1.0, 1.5, 0.25, st.ADT, (0.0, 0.125, 0.0))
    assert all(type(v) is float for v in (s.tau0, s.theta, s.chi_max, *s.chis))
    del doc["chis"]
    doc["taus"] = [np.int64(1), np.float32(2.625)]
    assert st.schedule_from_doc(doc).chis == (0.0, 0.125)


@pytest.mark.parametrize("patch", [
    {"chis": "000"}, {"chis": [0.0, "x"]}, {"theta": True}, {"taus": ["0", "1"]}, {"tau0": "0"},
], ids=["chis-string", "chis-entry", "theta-bool", "taus-strings", "tau0-string"])
def test_doc_refuses_bools_and_strings(patch):
    # float() would read "000" as three zero deviations, true as 1.0 and "0" as 0.0;
    # the error names the key and its whole value
    doc = {"tau0": 0.0, "theta": 1.0, "chi_max": 0.1, "chis": [0.0, 0.05], **patch}
    if "taus" in patch:
        del doc["chis"]
    ((key, value),) = patch.items()
    message = f"schedule.{key} has an invalid value {value!r}"
    with pytest.raises(st.InputError, match=f"^{re.escape(message)}$"):
        st.schedule_from_doc(doc)


# Each child runs under an address-space limit and a timeout.  A count drawn
# one instant at a time would fill the limit before its MemoryError, so the
# peak resident size tells a refusal before the first draw from one at the limit.
_CHILD_AS_BYTES = 2**29
_LIMITED_CHILD = """
import resource, sys
import adtstab
from adtstab.cli import main
try:
    outcome = repr(eval(sys.argv[1]))
except Exception as exc:
    outcome = f"{type(exc).__name__}: {exc}"
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024, outcome)  # MiB: KiB on Linux
"""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_CHILD_AS_BYTES, _CHILD_AS_BYTES))


def _limited(expression: str) -> tuple[int, str, str]:
    """Evaluate expression in a child with adtstab and cli.main imported;
    returns its peak resident MiB, its value or exception, and its stderr."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", _LIMITED_CHILD, expression], env=env, capture_output=True,
        text=True, timeout=20, preexec_fn=_limit_address_space,
    )
    peak, outcome = out.stdout.rstrip("\n").split(" ", 1)
    return int(peak), outcome, out.stderr


def test_huge_count_is_refused_before_the_first_draw(tmp_path, ref_config_path):
    peak, outcome, _ = _limited("adtstab.generate_schedule(0.0, 1.0, 0.1, 10**18)")
    assert outcome.startswith("MemoryError: ") and peak < 256
    cfg = json.loads(ref_config_path.read_text(encoding="utf-8"))
    cfg["schedule"]["count"] = 10**18
    (tmp_path / "huge.json").write_text(json.dumps(cfg), encoding="utf-8")
    args = ["gen-times", "--config", str(tmp_path / "huge.json")]
    peak, outcome, stderr = _limited(f"main({args!r})")
    assert (outcome, stderr) == ("2", "error: gen-times does not fit in memory\n")
    assert peak < 256


def test_count_past_the_array_byte_range_is_refused():
    # 8 bytes an instant: a larger count cannot be one float64 array
    top = np.iinfo(np.intp).max // 8
    peak, outcome, _ = _limited(f"adtstab.generate_schedule(0.0, 1.0, 0.1, {top + 1})")
    assert outcome == f"InputError: count must be in 1..{top}, got {top + 1}"
    assert peak < 256
