"""Benchmark of the orlicz library: seeded workloads, oracle-checked ops.

    python3 bench/run.py --workload step-norms --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One caller runs the workload's ops in a closed loop in this process (no
threads, no workers); each op is timed alone and checked against an
independent oracle outside its timed region.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced pass
over the op list, next to an untraced pass of the same list.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it list every
input that failed its oracle.  An op that misses its oracle through one of
the known library defects that ``workloads.known_defect`` names is counted
and listed, and lowers ``pass_share``; ``failed`` counts the other failed
ops, and ``correct`` is false if there is any.  ``--workload all`` runs each
workload in its own process and prints one row per workload.

The library is imported from ``src/`` of the checkout that holds this
file; without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

SETUP_RUNS = 7  # fresh processes per setup_s; the median is reported
IMPORT_RUNS = 3  # fresh processes per import time
MIN_OPS = 100  # distinct ops per list, so that at least 10 lie beyond p90
MIN_PASSES = 3  # every op is timed at least this often; its fastest time counts
DIGITS_CAP = 15.0


def use_checkout() -> None:
    """Import orlicz from this checkout's src/, or exit nonzero."""
    if not (SRC / "orlicz" / "__init__.py").is_file():
        sys.exit(f"bench: no orlicz sources at {SRC / 'orlicz'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import orlicz

    if Path(orlicz.__file__).resolve().parent != SRC / "orlicz":
        sys.exit(f"bench: imported orlicz from {orlicz.__file__}, not from {SRC}")


use_checkout()
import speed  # noqa: E402
import tracing  # noqa: E402  (both import orlicz)
import workloads  # noqa: E402


def fresh_python(code: str) -> tuple:
    """Run ``code`` in a fresh interpreter on this checkout: (wall s, stdout)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    t0 = perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, check=True, text=True,
    ).stdout
    return perf_counter() - t0, out


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import orlicz and build the inputs."""
    code = f"import workloads; workloads.build({workload!r}, {seed!r})"
    return statistics.median(fresh_python(code)[0] for _ in range(SETUP_RUNS))


def import_seconds(module: str) -> float:
    """Median in-process time of ``import module`` in fresh processes."""
    code = (f"from time import perf_counter as c; t = c(); import {module}; "
            f"print(c() - t)")
    return statistics.median(float(fresh_python(code)[1]) for _ in range(IMPORT_RUNS))


def call(op) -> tuple:
    """(summary, exception, seconds) of one op; a raising op is a failed op."""
    t0 = perf_counter()
    try:
        summary, exc = op.call(), None
    except Exception as e:  # the op failed; the loop goes on
        summary, exc = None, e
    return summary, exc, perf_counter() - t0


def closed_loop(ops, seconds: float, outcome):
    """Run whole passes over ``ops`` until ``seconds`` of op time and
    MIN_PASSES passes are done, so that every run measures exactly the
    seeded mix.  Each result goes to ``outcome`` outside its op's timed
    region, and so does a speed probe every ``speed.PROBE_EVERY`` seconds of
    op time.  Returns (the times of each op, one per pass; the probe times;
    op seconds)."""
    if len(ops) < MIN_OPS:
        raise ValueError(f"{len(ops)} ops in the list, fewer than {MIN_OPS}")
    times = [[] for _ in ops]
    probes = []
    busy = next_probe = 0.0
    while busy < seconds or len(times[0]) < MIN_PASSES:
        for i, op in enumerate(ops):
            if busy >= next_probe:
                probes.append(speed.probe())
                next_probe = busy + speed.PROBE_EVERY
            summary, exc, dt = call(op)
            outcome.add(i, summary, exc)
            busy += dt
            times[i].append(dt)
    return times, probes, busy


class Outcome:
    """Oracle verdicts over many results; failures are kept per input."""

    def __init__(self, workload: str, ops):
        self.workload, self.ops = workload, ops
        self.attempted = self.passed = self.failed = 0
        self.errors = {}  # op index -> worst relative error of its passing results
        self.failures = {}  # op index -> [times failed, reason, known defect or None]
        self._cache = {}

    def add(self, i: int, summary, exc) -> None:
        """Check one result of op ``i`` against its oracle."""
        if exc is not None:
            known = workloads.known_defect(self.workload, self.ops[i], None, exc)
            return self.fail(i, f"raised {type(exc).__name__}: {exc}", known)
        key = (i, repr(summary))
        if key not in self._cache:
            verdict = workloads.check(self.workload, self.ops[i], summary)
            known = None if verdict[0] else workloads.known_defect(
                self.workload, self.ops[i], summary, None)
            self._cache[key] = verdict + (known,)
        ok, err, reason, known = self._cache[key]
        if not ok:
            return self.fail(i, reason, known)
        self.attempted += 1
        self.passed += 1
        if err is not None:
            self.errors[i] = max(err, self.errors.get(i, 0.0))

    def fail(self, i: int, reason: str, known=None) -> None:
        self.attempted += 1
        self.failed += known is None
        self.failures.setdefault(i, [0, reason, known])[0] += 1

    @property
    def known(self) -> int:
        """Failed ops that show a known library defect."""
        return self.attempted - self.passed - self.failed

    @property
    def correct(self) -> bool:
        """No failure outside the known library defects."""
        return self.failed == 0

    def digits_p10(self) -> float:
        """Correct digits that 90% of the inputs with a passing result and a finite
        oracle reach: 10th percentile of -log10(relative error), capped at DIGITS_CAP."""
        digits = [DIGITS_CAP if e == 0.0 else min(DIGITS_CAP, -math.log10(e))
                  for e in self.errors.values()]
        return statistics.quantiles(digits, n=10)[0] if len(digits) > 1 else 0.0

    def report(self) -> None:
        print(f"oracle check ({self.workload}): {self.passed} of {self.attempted} ops"
              f" passed; {self.known} missed their oracle through a known library"
              f" defect and {self.failed} failed otherwise, on {len(self.failures)}"
              f" distinct inputs")
        for i, (times, reason, known) in sorted(self.failures.items()):
            op = self.ops[i]
            tag = f"known defect: {known}" if known else "UNEXPECTED"
            print(f"  FAIL x{times} [{op.kind}] {op.label}: {reason} ({tag})")
        if self.errors:
            err, i = max((e, i) for i, e in self.errors.items())
            print(f"worst relative error of a passing op: {err:.3e}"
                  f" [{self.ops[i].kind}] {self.ops[i].label}")


def timings(cost) -> dict:
    """ops_per_s, op_p50_ms and op_p90_ms over the per-op costs."""
    return {
        "ops_per_s": (len(cost) / math.fsum(cost), "1/s"),
        "op_p50_ms": (statistics.median(cost) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(cost, n=10)[8] * 1e3, "ms"),
    }


def end_to_end(workload: str, seed: int, seconds: float):
    ops = workloads.build(workload, seed)
    setup_raw = setup_seconds(workload, seed)
    outcome = Outcome(workload, ops)
    times, probes, busy = closed_loop(ops, seconds, outcome)
    # An op's cost is its fastest pass, as timeit takes it, so a pass slowed
    # by a collection or by a burst of load on the host does not count.
    raw = [min(t) for t in times]
    # The set-up processes ran just before the loop, so the loop's probes
    # scale their time too.
    scale = speed.scale(probes)
    cost = [c * scale for c in raw]
    print(f"{len(ops)} ops timed {len(times[0])} times each in {busy:.3f} s of op time;"
          f" p50 and p90 over the {len(cost)} per-op costs"
          f" ({len(cost) - math.ceil(0.9 * len(cost))} beyond p90)")
    print(f"speed probe: 10th percentile {speed.low(probes) * 1e3:.4g} ms"
          f" of {len(probes)},"
          f" times scaled to {speed.REFERENCE_S * 1e3:.4g} ms; as measured:"
          f" setup_s = {setup_raw:.6g} s, "
          + ", ".join(f"{k} = {v:.6g} {u}" for k, (v, u) in timings(raw).items()))
    metrics = {
        "setup_s": (setup_raw * scale, "s"),
        **timings(cost),
        "pass_share": (outcome.passed / outcome.attempted, "share"),
        "digits_p10": (outcome.digits_p10(), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return outcome, metrics


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    return "count"


def traced_pass(workload: str, seed: int, tracer):
    """Build the inputs and run every op once under ``tracer``; returns
    (results, op seconds, per-layer metrics)."""
    tracer.install()
    try:
        ops = workloads.build(workload, seed)  # so input-owned reference tails count
        tracer.reset()
        results = [call(op) for op in ops]
    finally:
        tracer.uninstall()
    layer = tracer.metrics(len(ops))
    tracer.reset()
    return results, sum(r[2] for r in results), layer


def per_layer(workload: str, seed: int, seconds: float):
    ops = workloads.build(workload, seed)
    outcome = Outcome(workload, ops)
    imports = {
        "import.orlicz_s": import_seconds("orlicz"),
        "import.scipy_optimize_s": import_seconds("scipy.optimize"),
    }
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    layers = []
    start = perf_counter()
    while not layers or perf_counter() - start < seconds:
        plain = [call(op) for op in ops]
        traced, t_s, layer = traced_pass(workload, seed, tracer)
        plain_s += sum(r[2] for r in plain)
        traced_s += t_s
        layers.append(layer)
        for i, (a, b) in enumerate(zip(plain, traced)):
            outcome.add(i, *a[:2])
            if repr(a[:2]) == repr(b[:2]):
                outcome.add(i, *b[:2])
            else:
                outcome.fail(i, f"traced result {b[:2]!r} differs from untraced {a[:2]!r}")
    print(f"{len(layers)} untraced and traced passes over {len(ops)} ops")
    metrics = {k: (statistics.median(l[k] for l in layers), layer_unit(k)) for k in layers[0]}
    metrics.update((k, (v, "s")) for k, v in imports.items())
    metrics["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "share")
    return outcome, metrics


def run_one(args) -> int:
    measure = per_layer if args.trace else end_to_end
    outcome, metrics = measure(args.workload, args.seed, args.seconds)
    outcome.report()
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one row of metrics per workload."""
    rows = []
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True,
                             text=True).stdout.splitlines()
        print("\n".join(out[:-1]))
        rows.append((workload, json.loads(out[-1])))
    for workload, res in rows:
        cells = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items()]
        print(f"{workload}: " + ", ".join(cells)
              + f", attempted={res['attempted']}, failed={res['failed']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
