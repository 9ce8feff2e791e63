"""The loader of ``tools/ab.py``: two copies of the library in one process.

An A/A comparison is only as good as the separation of its two sides, so
the tree is loaded twice here under two package names: the copies must
hold distinct classes, leave ``orlicz`` itself alone, and give the same
outputs on the benchmark's ops.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def ab(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # workloads.py imports oracles
    spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    before = set(sys.modules)
    yield module
    for name in set(sys.modules) - before:
        del sys.modules[name]


def test_two_loads_are_separate_and_agree(ab):
    import orlicz

    package = ROOT / "src" / "orlicz"
    (lib_a, work_a), (lib_b, work_b) = ab.load(package, "orlicz_aa"), ab.load(package, "orlicz_bb")
    assert lib_a.norms.YoungFunction is not lib_b.norms.YoungFunction
    assert sys.modules["orlicz"] is orlicz
    assert work_a.norms is lib_a.norms and work_b.norms is lib_b.norms
    ops_a = work_a.build("analytic-norms", 1)[:18]
    ops_b = work_b.build("analytic-norms", 1)[:18]
    assert [ab.run(op)[0] for op in ops_a] == [ab.run(op)[0] for op in ops_b]
