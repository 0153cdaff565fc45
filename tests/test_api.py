"""Every name a module exports exists, so ``from nsbl.<module> import *``
works and no deleted name is left behind in an ``__all__``."""

import importlib
import pkgutil

import pytest

import nsbl

MODULES = sorted(m.name for m in pkgutil.iter_modules(nsbl.__path__))


def test_modules_found():
    assert {"audit", "checkpoint", "harness", "solver", "spectral"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"nsbl.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is exported twice"
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from nsbl.{name} import *", namespace)
    assert set(exported) <= set(namespace)
