"""The loader of ``tools/ab.py``: two copies of the library in one process.

An A/A comparison is only as good as the separation of its two sides, so
the tree is loaded twice here under two package names: the copies must
hold distinct classes, leave ``orlicz`` itself alone, and give the same
outputs on the benchmark's ops.
"""

import importlib.util
import json
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


@pytest.fixture
def twice(ab, monkeypatch):
    """``ab.main`` with this tree on both sides, each op list cut to its first six ops.

    Returns the workloads built, and a set: an op list named in it gets a
    first op whose output on side B differs from side A's.
    """
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts bench/ on the path
    monkeypatch.setattr(ab, "extract", lambda rev: ROOT / "src" / "orlicz")
    load, built, changed = ab.load, [], set()

    def cut(package, name):
        lib, work = load(package, name)
        full = work.build

        def build(workload, seed):
            ops = full(workload, seed)[:6]
            built.append(workload)
            if name == "orlicz_b" and workload in changed:
                call = ops[0].call
                ops[0].call = lambda: (call(), "changed")
            return ops

        work.build = build
        return lib, work

    monkeypatch.setattr(ab, "load", cut)
    return built, changed


def test_all_runs_each_workload_and_same_outputs_exit_0(ab, twice, capsys):
    built, _ = twice
    assert ab.main(["--base", "HEAD", "--workload", "all", "--seeds", "1", "--passes", "1"]) == 0
    out = capsys.readouterr().out
    assert built == [w for w in ("step-norms", "embed-report", "analytic-norms") for _ in range(2)]
    for workload in ("step-norms", "embed-report", "analytic-norms"):
        assert f"{workload} seed 1: " in out and f"{workload} total: " in out
    assert "differs" not in out


def test_a_differing_output_exits_1(ab, twice, capsys):
    _, changed = twice
    changed.add("analytic-norms")
    assert ab.main(["--base", "HEAD", "--workload", "all", "--seeds", "1", "--passes", "1"]) == 1
    out = capsys.readouterr().out
    assert out.count("differs: ") == 1
    assert "analytic-norms seed 1: " in out and "1 differ\n" in out


def test_json_counts_each_class_at_or_above_the_p90_of_a(ab, twice, capsys, tmp_path):
    built, _ = twice
    path = tmp_path / "ab.json"
    assert ab.main(["--base", "HEAD", "--workload", "all", "--seeds", "1", "--passes", "1",
                    "--json", str(path)]) == 0
    out = capsys.readouterr().out
    workloads = json.loads(path.read_text())["workloads"]
    assert sorted(workloads) == sorted(set(built))
    for rows in workloads.values():
        classes = rows["1"]["classes"]
        # six ops per list, so at most six lie at or above any cost
        assert all(isinstance(c["at_p90_of_a"], int) for c in classes.values())
        assert 0 <= sum(c["at_p90_of_a"] for c in classes.values()) <= 6
    assert out.count("at or above A's p90") == sum(
        len(rows["1"]["classes"]) for rows in workloads.values())


def test_p90_count_per_class(ab):
    # A's costs are 1..20 ms: its p90 is 18.9 ms, so the ops at 19 and 20
    # ms are counted, both of class "b"; B is 10% faster everywhere
    cost_a = [i * 1e-3 for i in range(1, 21)]
    kinds = ["a" if i < 15 else "b" for i in range(20)]
    row = ab.summary({"cost": [cost_a, [c * 0.9 for c in cost_a]], "kinds": kinds,
                      "differ": []})
    assert row["p90_ms"][0] == pytest.approx(18.9)
    assert {k: c["at_p90_of_a"] for k, c in row["classes"].items()} == {"a": 0, "b": 2}
    assert row["classes"]["a"]["change"] == pytest.approx(-10.0)
