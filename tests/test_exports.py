"""Every exported name resolves, so a deleted name cannot stay exported."""

import importlib
import pkgutil

import pytest

import relshock

MODULES = ["relshock"] + [f"relshock.{m.name}"
                          for m in pkgutil.iter_modules(relshock.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
