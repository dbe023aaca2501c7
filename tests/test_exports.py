"""Every name a module exports resolves, in the package and in each submodule,
and the README's library example runs.

A stale entry in __all__ fails only at `from adtstab... import *` time, so
this catches one left behind when a function is removed.
"""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import adtstab

README = Path(__file__).resolve().parent.parent / "README.md"

# __main__ runs the CLI on import
MODULES = ["adtstab"] + [
    f"adtstab.{m.name}" for m in pkgutil.iter_modules(adtstab.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    # every adtstab name the README's Python blocks call resolves
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert [n for n in re.findall(r"\bst\.(\w+)", "".join(blocks)) if not hasattr(adtstab, n)] == []
    example = re.search(r"## Library example\s+```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    certified, residual = out.getvalue().splitlines()
    assert certified.startswith("True 0.108")
    assert 0.0 <= float(residual) < 1e-12
