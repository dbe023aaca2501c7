"""Golden artifacts: every CLI subcommand on the bundled config, byte for byte.

tests/golden/ holds the outputs of certify, omega, mr-check, gen-times and
commutators, and in simulate.sha256 (sha256sum format) the digests of the
simulate CSV and its 32 per-mode CSVs.  All come from
configs/reaction_diffusion.json with its own seeds; gen-times-cut.json is
gen-times with schedule.chi_max = 0.8, where strict increase cuts the "adt"
deviation window, so it pins the seeded draws from a cut window.  They were
captured with numpy 2.4.6 (Python 3.11, x86-64 OpenBLAS); adtstab imports no
scipy, so the bits depend on numpy's build alone.  Another numpy or BLAS build may change
last bits, and then this test fails even though the numerics are sound.

A change that alters an artifact on purpose rewrites the golden files in the
same commit:  PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from adtstab.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = REPO_ROOT / "tests" / "golden"
CONFIG = REPO_ROOT / "configs" / "reaction_diffusion.json"
ARTIFACTS = {
    "certify": "certify.json",
    "omega": "omega.txt",
    "mr-check": "mr-check.txt",
    "gen-times": "gen-times.json",
    "commutators": "commutators.txt",
}


def _patched(work: Path, name: str, section: str, **values) -> str:
    """CONFIG with values set in one of its sections, written to work / name."""
    cfg = json.loads(CONFIG.read_text(encoding="utf-8"))
    cfg[section].update(values)
    (work / name).write_text(json.dumps(cfg), encoding="utf-8")
    return str(work / name)


def _capture(work: Path) -> dict[str, bytes]:
    """Golden artifacts of the current code by file name, built inside work."""
    for sub, name in ARTIFACTS.items():
        assert main([sub, "--config", str(CONFIG), "--output", str(work / name), "--quiet"]) == 0
    cut = work / "gen-times-cut.json"
    cut_cfg = _patched(work, "cut.json", "schedule", chi_max=0.8)
    assert main(["gen-times", "--config", cut_cfg, "--output", str(cut), "--quiet"]) == 0
    sim_cfg = _patched(work, "simulate.json", "run", per_mode_dir=str(work / "modes"))
    csv = work / "simulate.csv"
    assert main(["simulate", "--config", sim_cfg, "--output", str(csv), "--quiet"]) == 0
    found = {name: (work / name).read_bytes() for name in [*ARTIFACTS.values(), cut.name]}
    found["simulate.sha256"] = "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
        for p in [csv] + sorted((work / "modes").glob("mode_*.csv"))
    ).encode()
    return found


def test_cli_artifacts_match_golden_files(tmp_path):
    found = _capture(tmp_path)
    assert len(found["simulate.sha256"].splitlines()) == 33
    for name, data in found.items():
        assert data == (GOLDEN / name).read_bytes(), name


# run in a fresh interpreter where every scipy import raises ImportError
WITHOUT_SCIPY = """
import json, sys
from pathlib import Path
sys.modules["scipy"] = None
from test_golden import CONFIG, _capture
from adtstab.cli import main
work = Path(sys.argv[1])
(work / "run").mkdir()
for name, data in _capture(work / "run").items():
    (work / name).write_bytes(data)
# strong shear: the identity fails, so certify takes the Stein solve
cfg = json.loads(CONFIG.read_text(encoding="utf-8"))
cfg["system"].update(A=[0.0, 12.0, 0.0, 0.0], B=[0.3, 0.0, 0.0, 0.3])
cfg["schedule"]["chi_max"] = 0.0
(work / "shear.json").write_text(json.dumps(cfg), encoding="utf-8")
out = work / "shear.out"
assert main(["certify", "--config", str(work / "shear.json"), "--output", str(out), "--quiet"]) == 0
"""


def test_cli_artifacts_match_golden_files_without_scipy(tmp_path):
    path = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run(
        [sys.executable, "-W", "error", "-c", WITHOUT_SCIPY, str(tmp_path)], env=env, check=True
    )
    for path in GOLDEN.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
    assert json.loads((tmp_path / "shear.out").read_text())["p0"] != [1.0, 0.0, 0.0, 1.0]


def test_python_m_adtstab_reproduces_mr_check(tmp_path):
    # the package's __main__, in a fresh interpreter with warnings as errors
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONWARNINGS": "error"}
    out = tmp_path / "mr.txt"
    args = ["mr-check", "--config", str(CONFIG), "--output", str(out), "--quiet"]
    subprocess.run([sys.executable, "-m", "adtstab", *args], env=env, check=True)
    assert out.read_bytes() == (GOLDEN / "mr-check.txt").read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        for name, data in _capture(Path(work)).items():
            (GOLDEN / name).write_bytes(data)
