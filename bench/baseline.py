"""Re-measure the single-call probes quoted as the ROADMAP item 1 baseline.

    python3 bench/baseline.py

Traces embedding_report(exp_m(2), 1) and the Luxemburg norm of the
exp_m(2) extremal function with the benchmark's tracer, and times the
imports of orlicz and scipy.optimize in fresh processes.  Counts are
deterministic; times are medians of ``REPEATS`` untraced calls.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import run
import tracing
from orlicz import embedding, norms, young

REPEATS = 5


def probe(label: str, fn) -> None:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    m = tracer.metrics(1)
    print(f"{label}: {statistics.median(times) * 1e3:.1f} ms untraced (median of {REPEATS}),"
          f" {m['numerics.integrand_evals']:.0f} integrand evaluations,"
          f" {m['numerics.integrate.calls']:.0f} integrate calls,"
          f" {m['embedding.embedding_modular.calls']:.0f} Q evaluations,"
          f" {m['norms.modular.calls']:.0f} modular evaluations")


def main() -> None:
    N = young.exp_young(2.0)
    probe("embedding_report(exp_m(2), 1)", lambda: embedding.embedding_report(N, 1.0))
    g = embedding.extremal_function(N, 1.0)
    probe("luxemburg_norm(exp_m(2), extremal)", lambda: norms.luxemburg_norm(N, g))
    print(f"import orlicz: {run.import_seconds('orlicz'):.3f} s,"
          f" import scipy.optimize: {run.import_seconds('scipy.optimize'):.3f} s"
          f" (medians of {run.IMPORT_RUNS} fresh processes)")


if __name__ == "__main__":
    main()
