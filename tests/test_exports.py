"""Every name a ``pdrslink`` module exports resolves, and none is listed twice.

A removal that leaves its name behind in ``__all__`` breaks ``from pdrslink.x import *``
only when someone runs it; this catches it on every run.
"""

import importlib
import pkgutil

import pytest

import pdrslink

MODULES = ["pdrslink"] + [f"pdrslink.{m.name}" for m in pkgutil.iter_modules(pdrslink.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        assert name.rsplit(".", 1)[-1].startswith("_"), f"public module {name} has no __all__"
        return
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names what it does not define: {missing}"
