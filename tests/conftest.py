import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import adtstab as st
from adtstab import certify, commutators, linalg

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def ref():
    """Bundled 2-species reaction-diffusion benchmark instance."""
    return SimpleNamespace(
        A=np.array([[1.2, 0.1], [0.1, -3.0]]),
        B=np.array([[0.2, 0.1], [-0.1, 1.5]]),
        theta=1.0,
        chi_max=0.1,
        mu=1.0,
        ell=float(np.pi),
    )


@pytest.fixture
def ref_system(ref):
    return st.ImpulsiveSystem(A=ref.A, B=ref.B)


@pytest.fixture
def ref_model(ref):
    return st.ParabolicModel(A=ref.A, B=ref.B, mu=ref.mu, ell=ref.ell, n_modes=32)


@pytest.fixture
def ref_config_path():
    return REPO_ROOT / "configs" / "reaction_diffusion.json"


@pytest.fixture(autouse=True)
def _fresh_problem_memo():
    """Start every test without a remembered CertificateProblem, system
    record or matrix power, so a test that counts calls does not depend on
    which test ran before it."""
    certify._memo.cache_clear()
    commutators._system.cache_clear()
    linalg._powers.cache_clear()


@pytest.fixture
def record_calls(monkeypatch):
    """record(func) routes every adtstab binding of func through a wrapper
    that logs its (args, kwargs), and returns the log."""

    def record(func) -> list:
        calls = []

        def wrapper(*args, **kwargs):
            calls.append((args, kwargs))
            return func(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "adtstab" or name.startswith("adtstab."):
                for attr, value in list(vars(module).items()):
                    if value is func:
                        monkeypatch.setattr(module, attr, wrapper)
        return calls

    return record
