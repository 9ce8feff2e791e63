"""A speed probe of the host, so that op times are read at one host speed.

Other tenants of a shared host can slow every process on it for seconds or
for minutes, by up to 2x.  ``probe()`` times a fixed piece of the
benchmark's own work: float arithmetic from the oracles, plus building,
sorting and searching a few thousand floats, so that it also allocates and
touches memory the way the ops do.  It shares no code with the library: a
change to the library cannot move it, but a slower host slows it along
with the ops.  A run probes every PROBE_EVERY seconds of op time and
scales its op costs by REFERENCE_S / (10th percentile of its probes).
Like an op's cost, the fastest of its passes, the low percentile leaves
out bursts of load and follows load that lasts the whole run.  A scaled
time is the op's time on a host on which the probe takes REFERENCE_S,
about what it takes on a quiet 2-vCPU x86 VM.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from time import perf_counter
from typing import List

import oracles

REFERENCE_S = 3.4e-3
PROBE_EVERY = 0.25  # seconds of op time between two probes

_N, _INV = oracles.young("exp_m", 2.0)
_PIECES = [(0.1 * i + 0.05, 0.01) for i in range(40)]
_SPREAD = [(10.0 ** (0.1 * i - 3.0), 0.003) for i in range(60)]


def probe() -> float:
    """Seconds that the fixed probe work takes now."""
    t0 = perf_counter()
    oracles.exp_k0(1.7, 2.7)
    for k in range(20):
        oracles.step_modular(_N, _PIECES, 1.0 + 0.05 * k)
    oracles.step_weak_norm(_INV, _SPREAD, 1.0)
    xs = [math.exp(-0.001 * i) * math.log1p(i) for i in range(3000)]
    ys = sorted(xs)
    [bisect_left(ys, x) for x in xs[::7]]
    {round(x, 6): i for i, x in enumerate(xs[:1500])}
    return perf_counter() - t0


def low(probes: List[float]) -> float:
    """The 10th percentile of ``probes``, as an order statistic."""
    return sorted(probes)[len(probes) // 10]


def scale(probes: List[float]) -> float:
    """The factor that reads times taken along with ``probes`` at REFERENCE_S."""
    return REFERENCE_S / low(probes)
