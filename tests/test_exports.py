"""The public surface of ``orlicz``: exported names and import footprint.

Tools that wrap the public functions look each listed name up with
``getattr``, so a stale entry breaks them even though ``import`` works.
"""

import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import orlicz
from orlicz.norms import lebesgue_norm, luxemburg_norm, modular, weak_norm
from orlicz.numerics import integrate

MODULES = sorted(m.name for m in pkgutil.iter_modules(orlicz.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"orlicz.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("fn, params", [
    (integrate, ["f", "a", "b", "breaks"]),
    (luxemburg_norm, ["N", "f"]),
    (weak_norm, ["N", "f"]),
    (modular, ["N", "f", "k"]),
    (lebesgue_norm, ["f", "p"]),
])
def test_numeric_api_takes_no_tolerance(fn, params):
    # accuracies are module constants, the same for every caller
    assert list(inspect.signature(fn).parameters) == params


def test_import_loads_no_third_party_module():
    # pyproject.toml declares no runtime dependency; the test extras stay optional
    src = str(Path(orlicz.__file__).resolve().parents[1])
    code = ("import sys, orlicz; "
            "print(sorted({'scipy', 'mpmath', 'hypothesis', 'numpy'} & set(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
