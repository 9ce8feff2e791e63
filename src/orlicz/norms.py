"""Modulars, the Luxemburg norm, the weak Orlicz norm, Lebesgue-Riesz norms.

Everything is computed from tail representations.  For a step tail the
modular is an exact finite sum over the jump structure; for an analytic
tail it is the integration-by-parts form

    int_0^inf T(t) d N(t/k) = int_0^inf T(t) N'(t/k) / k dt,

whose boundary terms vanish whenever the result is finite, evaluated by
the quadrature kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from .errors import BudgetExceeded, Inconclusive, NotDominated
from .numerics import (DEFAULT_SPEC, FiniteOrDivergent, LadderTrace, QuadratureSpec,
                       find_root, integrate)
from .tails import StepTail, TailRepFunction, chebyshev_tail, tail_norm
from .young import YoungFunction

__all__ = [
    "NormResult",
    "modular",
    "luxemburg_norm",
    "weak_norm",
    "lebesgue_norm",
    "coupling_check",
    "CouplingReport",
    "NORM_CAP",
]

NORM_CAP = 2.0 ** 64


class _ModularOverflow(Exception):
    """Integrand exceeded the floating-point range at a sample point."""


@dataclass(frozen=True)
class NormResult:
    """A computed norm with the modular at the returned scale and a method trace."""

    value: float
    modular_at_value: Optional[float]
    trace: Dict[str, object]

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)


def modular(N: YoungFunction, f: TailRepFunction, k: float,
            spec: Optional[QuadratureSpec] = None) -> FiniteOrDivergent:
    """The quantity int N(|f|/k) dmu computed through the tail of f.

    Exact sum over (value, mass) pieces for step tails; kernel quadrature
    of T(t) N'(t/k)/k for analytic tails.  Divergence verdicts propagate.
    """
    if not (k > 0.0):
        raise ValueError("modular scale k must be positive")
    tail = f.tail
    if isinstance(tail, StepTail):
        total = 0.0
        for v, m in tail.pieces():
            total += N(v / k) * m
        if math.isinf(total):
            return FiniteOrDivergent.divergent(
                LadderTrace((), note=f"exact modular sum overflows at k={k:g}")
            )
        return FiniteOrDivergent.finite(total)

    def integrand(t: float) -> float:
        T = tail.value(t)
        if T == 0.0:
            return 0.0
        d = N.derivative(t / k)
        if d == 0.0:
            return 0.0
        v = T * d / k
        if v == math.inf:
            # at small k the growth of N' overtakes the tail's decay while
            # both factors are still representable separately: the modular
            # is far beyond 1 there, which is all the callers need to know
            raise _ModularOverflow(t)
        return v

    try:
        return integrate(integrand, 0.0, math.inf, spec or DEFAULT_SPEC)
    except _ModularOverflow as exc:
        return FiniteOrDivergent.divergent(
            LadderTrace((), note=f"integrand overflow near t={exc.args[0]:g} at k={k:g}")
        )


def luxemburg_norm(N: YoungFunction, f: TailRepFunction,
                   rel_tol: float = 1e-12,
                   spec: Optional[QuadratureSpec] = None) -> NormResult:
    """The strong (Luxemburg) norm inf{k > 0 : modular(f, k) <= 1}.

    The modular is non-increasing in k.  Doubling or halving k from 1
    gives a bracket lo < hi with modular(lo) > 1 >= modular(hi); if the
    modular stays above 1 while k doubles up to 2^64 the norm is infinite,
    if it stays at or below 1 down to 2^-64 it is 0 (the cap is recorded
    in the trace).  While the modular at lo is divergent (or 0 at hi) the
    bracket is bisected, and if that bisection narrows it to ``rel_tol``
    first its upper end is returned.  Otherwise Brent's method on log
    modular solves the bracket to 4 ulp.  Modular values are cached by k,
    and the returned k is the end of the final bracket where the modular
    is at most 1.  An inconclusive modular anywhere aborts with
    BudgetExceeded rather than silently guessing a side; a root search
    that stalls raises NonConvergence.
    """
    tail = f.tail
    if isinstance(tail, StepTail) and tail.is_zero:
        return NormResult(0.0, 0.0, {"modular_evaluations": 0, "note": "zero function"})

    cache: Dict[float, float] = {}

    def mod(k: float) -> float:
        """modular(f, k), with +inf standing for a divergent modular."""
        if k not in cache:
            try:
                r = modular(N, f, k, spec)
            except (BudgetExceeded, Inconclusive) as exc:
                raise BudgetExceeded(
                    f"modular at k={k:g} could not be classified: {exc}"
                ) from exc
            cache[k] = r.value if r.is_finite else math.inf
        return cache[k]

    def capped(value: float, note: str) -> NormResult:
        return NormResult(value, None, {"modular_evaluations": len(cache), "note": note})

    hi = 1.0
    while mod(hi) > 1.0:
        hi *= 2.0
        if hi > NORM_CAP:
            return capped(math.inf, f"modular above 1 up to cap {NORM_CAP:g}")
    lo = hi * 0.5
    if hi == 1.0:
        while not mod(lo) > 1.0:
            hi = lo
            lo *= 0.5
            if lo < 1.0 / NORM_CAP:
                return capped(0.0, "modular below 1 down to cap")

    def result() -> NormResult:
        return NormResult(
            hi, cache[hi], {"modular_evaluations": len(cache), "bracket": (lo, hi)}
        )

    # log modular needs finite, positive values at both ends
    while mod(lo) == math.inf or mod(hi) == 0.0:
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel_tol * hi or not lo < mid < hi:
            return result()
        if mod(mid) > 1.0:
            lo = mid
        else:
            hi = mid

    def log_mod(k: float) -> float:
        nonlocal lo, hi
        m = mod(k)
        if m > 1.0:
            lo = max(lo, k)
        else:
            hi = min(hi, k)
        return math.log(m) if m > 0.0 else -math.inf

    find_root(log_mod, (lo, hi), tol=4.0 * math.ulp(hi))
    return result()


def weak_norm(N: YoungFunction, f: TailRepFunction,
              rel_tol: float = 1e-12) -> NormResult:
    """The weak Orlicz norm: scaling norm of T[f] against the Chebyshev tail.

    For a step tail it is the closed form max_i t_i / N^{-1}(1/level_i):
    the levels are held on left-open intervals, so domination by
    min(mass, 1/N(t/K)) binds at each threshold t_i.  A level is capped at
    the total mass, which it may exceed by rounding.  Analytic tails go
    through ``tail_norm``.
    """
    theta = chebyshev_tail(N, f.total_mass)
    tail = f.tail
    if isinstance(tail, StepTail):
        mass = f.total_mass
        value = max(
            (t / N.inverse(1.0 / min(level, mass))
             for t, level in zip(tail.thresholds, tail.levels)),
            default=0.0,
        )
    else:
        value = tail_norm(tail, theta, rel_tol)
    return NormResult(value, None, {"reference": theta.label})


def lebesgue_norm(f: TailRepFunction, p: float,
                  spec: Optional[QuadratureSpec] = None) -> FiniteOrDivergent:
    """(int |f|^p dmu)^(1/p) through the tail: (p int t^(p-1) T(t) dt)^(1/p)."""
    if not (p >= 1.0):
        raise ValueError("Lebesgue exponent must satisfy p >= 1")
    tail = f.tail
    if isinstance(tail, StepTail):
        if tail.is_zero:
            return FiniteOrDivergent.finite(0.0)
        total = 0.0
        for v, m in tail.pieces():
            total += v ** p * m
        if math.isinf(total):
            return FiniteOrDivergent.divergent(
                LadderTrace((), note="exact moment sum overflows")
            )
        return FiniteOrDivergent.finite(total ** (1.0 / p))

    def integrand(t: float) -> float:
        T = tail.value(t)
        if T == 0.0:
            return 0.0
        return p * t ** (p - 1.0) * T

    r = integrate(integrand, 0.0, math.inf, spec or DEFAULT_SPEC)
    if r.is_divergent:
        return r
    return FiniteOrDivergent.finite(r.value ** (1.0 / p))


@dataclass(frozen=True)
class CouplingReport:
    """Monotone-coupling check: dominated tails give dominated modulars."""

    modular_dominated: FiniteOrDivergent
    modular_dominating: FiniteOrDivergent
    holds: bool


def coupling_check(N: YoungFunction, f: TailRepFunction, g: TailRepFunction,
                   spec: Optional[QuadratureSpec] = None) -> CouplingReport:
    """Verify T[f] <= T[g] pointwise, then modular(f) <= modular(g) at k = 1.

    Raises NotDominated when the pointwise precondition fails.  A divergent
    dominating modular dominates everything; a divergent dominated modular
    can only be matched by a divergent dominating one.
    """
    ft, gt = f.tail, g.tail
    if isinstance(ft, StepTail) and isinstance(gt, StepTail):
        probes = sorted(set(ft.thresholds) | set(gt.thresholds))
    else:
        probes = [10.0 ** (e / 4.0) for e in range(-48, 49)]
    for t in probes:
        if ft.value(t) > gt.value(t) * (1.0 + 1e-12):
            raise NotDominated(f"T[f]({t:g}) = {ft.value(t):g} exceeds T[g]({t:g}) = {gt.value(t):g}")

    mf = modular(N, f, 1.0, spec)
    mg = modular(N, g, 1.0, spec)
    if mg.is_divergent:
        holds = True
    elif mf.is_divergent:
        holds = False
    else:
        holds = mf.value <= mg.value * (1.0 + 1e-12) + 1e-15
    return CouplingReport(mf, mg, holds)
