"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py -q

Op lists are shrunk to one block per workload so that the suite runs in
seconds; the library itself is untouched.
"""

from __future__ import annotations

import json
import math

import pytest

import run  # imports orlicz from this checkout's src/
import oracles
import speed
import tracing
import workloads

SMALL = {"step-norms": 120, "embed-report": 20, "analytic-norms": 18}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small_lists(monkeypatch):
    for name, size in SMALL.items():
        monkeypatch.setitem(workloads.LIST_SIZE, name, size)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "IMPORT_RUNS", 1)


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_counts_repeat_exactly(small_lists, workload):
    counts = []
    for _ in range(2):
        _, _, layer = run.traced_pass(workload, 7, tracing.Tracer())
        counts.append({k: v for k, v in layer.items() if not k.endswith("_ms")})
    assert counts[0] == counts[1]


def test_step_norms_run_no_quadrature(small_lists):
    _, _, layer = run.traced_pass("step-norms", 7, tracing.Tracer())
    assert layer["numerics.integrate.calls"] == 0
    assert layer["numerics.integrand_evals"] == 0
    assert layer["norms.luxemburg_norm.calls"] == 1
    assert layer["norms.modular.calls"] > 1


def test_integrate_is_patched_everywhere_and_restored():
    assert tracing.installed_wrappers() == []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = set(tracing.installed_wrappers())
    finally:
        tracer.uninstall()
    for module in ("numerics", "norms", "embedding", "expfamily"):
        assert f"orlicz.{module}.integrate" in wrapped
    assert "YoungFunction.__call__" in wrapped
    assert tracing.installed_wrappers() == []


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_declared_metric(small_lists, capsys, trace):
    assert run.main(["--workload", "step-norms", "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = last_json(capsys)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: m["unit"] for k, m in result["metrics"].items()}
    size = SMALL["step-norms"]
    if trace:  # one untraced and one traced pass
        assert result["attempted"] == 2 * size
    else:  # whole passes, at least MIN_PASSES of them
        assert result["attempted"] % size == 0
        assert result["attempted"] // size >= run.MIN_PASSES
    assert result["failed"] == 0 and result["correct"]
    assert tracing.installed_wrappers() == []


def test_only_known_defects_leave_a_run_correct(small_lists):
    ops = workloads.build("analytic-norms", 1)
    outcome = run.Outcome("analytic-norms", ops)
    for i, op in enumerate(ops):
        outcome.add(i, *run.call(op)[:2])
    # known defects are counted apart and lower the pass share
    assert outcome.known > 0 and outcome.failed == 0 and outcome.correct
    assert outcome.passed + outcome.known == outcome.attempted
    i = next(i for i, op in enumerate(ops) if op.kind == "analytic/power/extremal/weak")
    outcome.add(i, 0.5, None)  # a new failure outside every known defect
    assert outcome.failed == 1 and not outcome.correct


def test_speed_scale_reads_times_at_the_reference_probe():
    probes = [speed.REFERENCE_S * f for f in (2.0, 1.0, 0.5, 2.0, 1.0, 0.5) * 2]
    assert speed.scale(probes) == pytest.approx(2.0)  # 10th percentile: 0.5 * REFERENCE_S
    assert speed.scale(probes[:1]) == pytest.approx(0.5)
    assert 0.0 < speed.probe() < 1.0


def test_seed_fixes_the_inputs(small_lists):
    labels = [[op.label for op in workloads.build("analytic-norms", s)] for s in (1, 1, 2)]
    assert labels[0] == labels[1] != labels[2]


def test_tracing_does_not_change_results(small_lists):
    ops = workloads.build("embed-report", 5)
    plain = [run.call(op)[:2] for op in ops]
    traced, _, _ = run.traced_pass("embed-report", 5, tracing.Tracer())
    assert repr(plain) == repr([r[:2] for r in traced])


@pytest.mark.parametrize("m", [1.0, 1.5, 2.0, 3.0, 100.0])
def test_exp_k0_oracle_reduces_to_beta0_on_unit_mass(m):
    assert oracles.exp_k0(m, 1.0) == pytest.approx(oracles.BETA0 ** (-1.0 / m), rel=1e-14)


def test_step_weak_norm_oracle_on_an_indicator():
    # indicator of mass a: weak norm 1 / N^{-1}(1/a)
    _, inv = oracles.young("exp_m", 2.0)
    assert oracles.step_weak_norm(inv, [(1.0, 0.5)], 1.0) == 1.0 / inv(2.0)
    assert math.isinf(oracles.power_tail_weak(1.5, "power", 2.0))
