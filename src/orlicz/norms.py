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
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .errors import BudgetExceeded, Inconclusive, NotDominated
from .numerics import NORM_CAP, FiniteOrDivergent, LadderTrace, _unit_crossing, integrate
from .tails import StepTail, TailRepFunction, _reference_label
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


def modular(N: YoungFunction, f: TailRepFunction, k: float) -> FiniteOrDivergent:
    """The quantity int N(|f|/k) dmu computed through the tail of f.

    Exact sum over (value, mass) pieces for step tails; kernel quadrature
    of T(t) N'(t/k)/k for analytic tails, split at the tail's breaks.
    Divergence verdicts propagate.
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
        return integrate(integrand, 0.0, math.inf, breaks=tail.breaks)
    except _ModularOverflow as exc:
        return FiniteOrDivergent.divergent(
            LadderTrace((), note=f"integrand overflow near t={exc.args[0]:g} at k={k:g}")
        )


def luxemburg_norm(N: YoungFunction, f: TailRepFunction,
                   rel_tol: float = 1e-12) -> NormResult:
    """The strong (Luxemburg) norm inf{k > 0 : modular(f, k) <= 1}.

    The weak norm w is a lower bound: modular(f, k) >= T(t) N(t/k) for
    every t (Chebyshev), and that exceeds 1 for some t at every k < w.
    So ``weak_norm`` runs first.  If w exceeds 2^64 (NORM_CAP), as it
    does whenever it is +inf, the norm is +inf with no modular evaluated.
    Under power(p), modular(k) = k^-p modular(1) diverges at every k or
    at none, so a divergent modular at the start point makes the norm
    +inf.  Otherwise the modular, non-increasing in k, goes to the shared
    crossing solver from w (from 1 if w is 0), a divergent modular
    counting as +inf: the norm is +inf if the modular stays above 1 up to
    2^64, 0 if it stays at or below 1 down to 2^-64 (the cap is recorded
    in the trace), and else the end of the final bracket where the
    modular is at most 1.  Modular values are cached by k.  The trace
    records ``modular_evaluations`` and w as ``weak_lower_bound``.  An
    inconclusive modular anywhere aborts with BudgetExceeded rather than
    silently guessing a side; a root search that stalls raises
    NonConvergence.
    """
    tail = f.tail
    if isinstance(tail, StepTail) and tail.is_zero:
        return NormResult(0.0, 0.0, {"modular_evaluations": 0, "weak_lower_bound": 0.0,
                                     "note": "zero function"})

    cache: Dict[float, float] = {}
    w = weak_norm(N, f, rel_tol).value

    def mod(k: float) -> float:
        """modular(f, k), with +inf standing for a divergent modular."""
        if k not in cache:
            try:
                r = modular(N, f, k)
            except (BudgetExceeded, Inconclusive) as exc:
                raise BudgetExceeded(
                    f"modular at k={k:g} could not be classified: {exc}"
                ) from exc
            cache[k] = r.value if r.is_finite else math.inf
        return cache[k]

    def capped(value: float, note: str) -> NormResult:
        return NormResult(value, None, {"modular_evaluations": len(cache),
                                        "weak_lower_bound": w, "note": note})

    if w > NORM_CAP:
        return capped(math.inf, f"weak norm (a lower bound) above cap {NORM_CAP:g}")
    start = w if w > 0.0 else 1.0
    if N.family == "power" and mod(start) == math.inf:
        return capped(math.inf, f"modular divergent at k={start:g}, so at every k under "
                                f"power: above cap {NORM_CAP:g}")
    lo, hi = _unit_crossing(mod, start, rel_tol)
    if hi == math.inf:
        return capped(math.inf, f"modular above 1 up to cap {NORM_CAP:g}")
    if lo == 0.0:
        return capped(0.0, "modular below 1 down to cap")
    return NormResult(hi, cache[hi], {"modular_evaluations": len(cache),
                                      "weak_lower_bound": w, "bracket": (lo, hi)})


_GRID_PER_DECADE = 20  # weak-norm sample nodes t = 10^(j/20)
_GRID_FIRST = (-15 * _GRID_PER_DECADE, 16 * _GRID_PER_DECADE)  # t in [1e-15, 1e16]
_GRID_LIMIT = 300 * _GRID_PER_DECADE  # the grid grows by decades up to t = 1e+-300
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_FLOAT_MAX = sys.float_info.max


def _log_t_sup(g: Callable[[float], float],
               rel_tol: float) -> Tuple[float, Optional[float], int]:
    """(sup, argmax, evaluations) of g over t > 0, sampled in x = log10 t.

    g is sampled on the nodes x = j/20 for t in [1e-15, 1e16].  While the
    sample at an end node exceeds every other sample by more than the
    factor 1 + ``rel_tol`` (so rounding noise on a flat g does not count),
    the grid grows by a whole decade at that end, up to t = 1e+-300; past
    the last node where T vanishes g is 0, so the upper end stops there by
    itself.  A golden-section search (Kiefer, 1953) then refines over the
    two cells beside the largest node until they are ``rel_tol`` wide in
    t.  The largest value evaluated is returned, +inf once it exceeds
    NORM_CAP.

    The result is the sup to ``rel_tol`` when g is unimodal near its
    largest node.  Otherwise a peak in another cell can be missed, but as
    T is nonincreasing, g(t) <= 10^(1/20) g(t_j) on each cell [t_j,
    t_j 10^(1/20)], so the result is within that factor of the sup over
    the sampled range.  A larger peak beyond a dip (or a flat stretch)
    past the ends of the grid is not seen.
    """
    best, argmax, count = 0.0, None, 0

    def at(x: float) -> float:
        nonlocal best, argmax, count
        t = 10.0 ** x
        v = g(t)
        count += 1
        if v > best:
            best, argmax = v, t
        return v

    step = _GRID_PER_DECADE
    lo, hi = _GRID_FIRST
    vals = [at(j / step) for j in range(lo, hi + 1)]
    margin = 1.0 + rel_tol
    while best <= NORM_CAP:
        if vals[0] > margin * max(vals[1:]) and lo > -_GRID_LIMIT:
            lo -= step
            vals[:0] = [at(j / step) for j in range(lo, lo + step)]
        elif vals[-1] > margin * max(vals[:-1]) and hi < _GRID_LIMIT:
            vals += [at(j / step) for j in range(hi + 1, hi + step + 1)]
            hi += step
        else:
            break
    if best > NORM_CAP:
        return math.inf, argmax, count

    i = vals.index(max(vals))
    a = (lo + max(i - 1, 0)) / step
    b = (lo + min(i + 1, len(vals) - 1)) / step
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    gc, gd = at(c), at(d)
    width = rel_tol / math.log(10.0)
    while b - a > width and a < c < d < b:
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - _INV_PHI * (b - a)
            gc = at(c)
        else:
            a, c, gc = c, d, gd
            d = a + _INV_PHI * (b - a)
            gd = at(d)
    return (math.inf if best > NORM_CAP else best), argmax, count


def weak_norm(N: YoungFunction, f: TailRepFunction,
              rel_tol: float = 1e-12) -> NormResult:
    """The weak Orlicz norm: scaling norm of T[f] against the Chebyshev tail.

    T(t) <= min(mass, 1/N(t/K)) holds iff t/K <= N^{-1}(1/min(T(t), mass)),
    so the norm is sup_t g(t) with g(t) = t / N^{-1}(1/min(T(t), mass)),
    and no search over K is needed.  A level is capped at the total mass,
    which a step level may exceed by rounding, and at the largest float.
    A level of +inf is what 1/N(t) gives wherever N(t) underflows, and a
    tail value that raises OverflowError reads as +inf too, so such a
    level stands for one just beyond the float range; it gives the norm
    +inf at every t above 2^64 N^{-1}(1/max_float).  A level
    of 0 gives g = 0.  On a step tail the levels are held on left-open
    intervals, so the sup is the maximum over the thresholds t_i.  On an
    analytic tail it is taken by ``_log_t_sup``, whose docstring states
    what its grid can miss.  The trace records the number of g
    evaluations and the t where the returned value was attained (None
    for 0).
    """
    mass = f.total_mass
    tail = f.tail
    cap = min(mass, _FLOAT_MAX)

    def g(t: float, level: float) -> float:
        if level == 0.0:
            return 0.0
        u = N.inverse(1.0 / min(level, cap))
        return t / u if u > 0.0 else math.inf

    def g_analytic(t: float) -> float:
        try:
            level = tail.value(t)
        except OverflowError:
            level = math.inf
        return g(t, level)

    if isinstance(tail, StepTail):
        value, argmax = 0.0, None
        for t, level in zip(tail.thresholds, tail.levels):
            v = g(t, level)
            if v > value:
                value, argmax = v, t
        count = len(tail.thresholds)
    else:
        value, argmax, count = _log_t_sup(g_analytic, rel_tol)
    return NormResult(value, None, {
        "reference": _reference_label(N),
        "evaluations": count,
        "argmax_t": argmax,
    })


def lebesgue_norm(f: TailRepFunction, p: float) -> FiniteOrDivergent:
    """(int |f|^p dmu)^(1/p) through the tail: (p int t^(p-1) T(t) dt)^(1/p).

    On a step tail this is the exact sum top (sum_j (v_j/top)^p m_j)^(1/p)
    over the (value, mass) pieces, scaled by the largest value top so that
    v^p neither overflows nor underflows; a norm beyond the float range
    reads +inf.
    """
    if not (p >= 1.0):
        raise ValueError("Lebesgue exponent must satisfy p >= 1")
    tail = f.tail
    if isinstance(tail, StepTail):
        if tail.is_zero:
            return FiniteOrDivergent.finite(0.0)
        top = tail.thresholds[-1]
        total = sum((v / top) ** p * m for v, m in tail.pieces())
        return FiniteOrDivergent.finite(top * total ** (1.0 / p))

    def integrand(t: float) -> float:
        T = tail.value(t)
        if T == 0.0:
            return 0.0
        return p * t ** (p - 1.0) * T

    r = integrate(integrand, 0.0, math.inf, breaks=tail.breaks)
    if r.is_divergent:
        return r
    return FiniteOrDivergent.finite(r.value ** (1.0 / p))


@dataclass(frozen=True)
class CouplingReport:
    """Monotone-coupling check: dominated tails give dominated modulars."""

    modular_dominated: FiniteOrDivergent
    modular_dominating: FiniteOrDivergent
    holds: bool


def coupling_check(N: YoungFunction, f: TailRepFunction, g: TailRepFunction) -> CouplingReport:
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

    mf = modular(N, f, 1.0)
    mg = modular(N, g, 1.0)
    if mg.is_divergent:
        holds = True
    elif mf.is_divergent:
        holds = False
    else:
        holds = mf.value <= mg.value * (1.0 + 1e-12) + 1e-15
    return CouplingReport(mf, mg, holds)
