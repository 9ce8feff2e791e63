"""Every name in the ``__all__`` of an ``orlicz`` module resolves.

Tools that wrap the public functions look each listed name up with
``getattr``, so a stale entry breaks them even though ``import`` works.
"""

import importlib
import pkgutil

import pytest

import orlicz

MODULES = sorted(m.name for m in pkgutil.iter_modules(orlicz.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"orlicz.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
