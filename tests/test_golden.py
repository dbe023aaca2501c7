"""Golden artifacts: every CLI subcommand on the bundled config, byte for byte.

tests/golden/ holds the outputs of certify, omega, mr-check, gen-times and
commutators, and in simulate.sha256 (sha256sum format) the digests of the
simulate CSV and its 32 per-mode CSVs.  All come from
configs/reaction_diffusion.json with its own seeds.  They were captured with
numpy 2.4.6 and scipy 1.17.1 (Python 3.11, x86-64 OpenBLAS).  Another numpy,
scipy or BLAS build may change last bits, and then this test fails even
though the numerics are sound.

A change that alters an artifact on purpose rewrites the golden files in the
same commit:  PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
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


def _capture(work: Path) -> dict[str, bytes]:
    """Golden artifacts of the current code by file name, built inside work."""
    for sub, name in ARTIFACTS.items():
        assert main([sub, "--config", str(CONFIG), "--output", str(work / name), "--quiet"]) == 0
    cfg = json.loads(CONFIG.read_text(encoding="utf-8"))
    cfg["run"]["per_mode_dir"] = str(work / "modes")
    sim_cfg = work / "simulate.json"
    sim_cfg.write_text(json.dumps(cfg), encoding="utf-8")
    csv = work / "simulate.csv"
    assert main(["simulate", "--config", str(sim_cfg), "--output", str(csv), "--quiet"]) == 0
    found = {name: (work / name).read_bytes() for name in ARTIFACTS.values()}
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        for name, data in _capture(Path(work)).items():
            (GOLDEN / name).write_bytes(data)
