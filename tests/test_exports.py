"""Every name a module exports resolves, in the package and in each submodule.

A stale entry in __all__ fails only at `from adtstab... import *` time, so
this catches one left behind when a function is removed.
"""

import importlib
import pkgutil

import pytest

import adtstab

# __main__ runs the CLI on import
MODULES = ["adtstab"] + [
    f"adtstab.{m.name}" for m in pkgutil.iter_modules(adtstab.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
