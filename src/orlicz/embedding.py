"""Coincidence criterion, embedding constant, extremal function, reports.

The strong and weak Orlicz spaces over a given measure coincide (with
equivalent norms) exactly when some scaling C > 0 makes the integral of
N(C t) against the differential of the Chebyshev reference tail finite.
When they coincide, the optimal constant in strong <= k * weak is the
unique root k0 > 1 of Q(k) = 1, where Q is the embedding modular

    Q(k) = int N(t/k) N'(t) / N(t)^2 dt    over (t0, infinity),

t0 = N^{-1}(1/total_mass) (zero for infinite mass), i.e. the modular of
the extremal function (whose tail IS the reference tail) at scale k.
The integral is taken on the t-axis, as one exp of two log differences
of N, which also keeps its value where N itself overflows; the
substituted form over w = N(t) decays too slowly for the cutoff ladder
when N grows like exp((ln t)^D).  Q is continuous, strictly decreasing,
infinite at 1+ and vanishing at infinity, and the bound is attained by
that extremal function; k0 is its Luxemburg norm.  For exp_m on a finite
mass k0 has a closed form (``expfamily``), which one numeric Q certifies;
otherwise it is found by the crossing solver the Luxemburg norm uses off
power.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import (BadParameter, BudgetExceeded, DivergentModular,
                     Inconclusive, NonConvergence, NonEvaluable)
from .expfamily import exp_embedding_constant
from .numerics import FiniteOrDivergent, _IntegrandOverflow, _unit_crossing, integrate
from .tails import TailRepFunction, chebyshev_tail
from .young import YoungFunction

__all__ = [
    "unit_threshold",
    "embedding_modular",
    "coincidence_criterion",
    "CriterionResult",
    "embedding_constant",
    "extremal_function",
    "embedding_report",
    "EmbeddingReport",
    "C_LADDER",
    "Q_TOL",
    "ANALYTIC_VERDICTS",
]

# decreasing scalings C tried by the coincidence criterion, from C = 1
C_LADDER = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)
Q_TOL = 1e-8  # k0 is accepted when |Q(k0) - 1| <= Q_TOL

# Builtin families have known verdicts on finite-mass spaces; the numeric
# classifier runs anyway and the report records whether it concurred.
ANALYTIC_VERDICTS = {
    "power": "non-coincident",
    "exp_m": "coincident",
    "delta": "coincident",
}

COINCIDENT = "coincident"
NON_COINCIDENT = "non-coincident"
INCONCLUSIVE = "inconclusive"


def unit_threshold(N: YoungFunction, total_mass: float) -> float:
    """The argument where N crosses 1/total_mass; 0 on infinite-mass spaces.

    This is where the Chebyshev reference tail leaves its plateau.
    """
    if not (total_mass > 0.0):
        raise ValueError("total mass must be positive (may be inf)")
    if math.isinf(total_mass):
        return 0.0
    if math.isinf(1.0 / total_mass):
        raise BadParameter(f"total mass {total_mass!r} is too small: 1/total_mass overflows")
    return N.inverse(1.0 / total_mass)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _criterion_integrand(N: YoungFunction, c: float):
    """t -> N(ct) N'(t) / N(t)^2, as one exp where N supplies its log form.

    A value past the float range makes the integral divergent.
    """
    def overflow(t: float) -> _IntegrandOverflow:
        return _IntegrandOverflow(f"integrand overflow near t={t:g} at scaling {c:g}")

    if N.log_criterion is not None:
        log_f = N.log_criterion(c)

        def f(t: float) -> float:
            e = log_f(t)
            if e > _LOG_FLOAT_MAX:
                raise overflow(t)
            return math.exp(e)

        return f

    def direct(t: float) -> float:
        n = N(t)
        if not (0.0 < n < math.inf):
            raise NonEvaluable(f"{N.describe()}({t!r}) = {n!r} leaves the float range")
        v = (N(c * t) / n) * (N.derivative(t) / n)
        if v == math.inf:
            raise overflow(t)
        return v

    return direct


def embedding_modular(N: YoungFunction, k: float, total_mass: float) -> FiniteOrDivergent:
    """Q(k): the modular of the extremal function at scale k.

    Computed on the t-axis as int N(t/k) N'(t) / N(t)^2 dt from the unit
    threshold t0 (zero for infinite mass, where the integrand may also
    diverge at the lower end and the classifier runs there too).  It is
    the criterion integral at scaling C = 1/k.
    """
    if not (k > 0.0):
        raise ValueError("scale k must be positive")
    t0 = unit_threshold(N, total_mass)
    return integrate(_criterion_integrand(N, 1.0 / k), t0, math.inf)


@dataclass(frozen=True)
class CriterionResult:
    """Numeric coincidence verdict with the scaling trail that produced it.

    Each trail entry is (C, tag, detail): the integral's value for tag
    "finite", None for "divergent", the reason for "inconclusive".
    """

    verdict: str
    witness: Optional[float]
    trail: Tuple[Tuple[float, str, object], ...]


def coincidence_criterion(N: YoungFunction, total_mass: float) -> CriterionResult:
    """Scan the decreasing scalings C of C_LADDER for a finite criterion integral.

    At C = 1 the integral is log N(inf) - log N(t0) = +inf for every
    Young function, so that entry is recorded as divergent without a
    ladder.  Finiteness propagates downward in C, so the scan stops at the
    first (largest) finite witness.  The integrand is positive, so a value
    of exactly 0.0 means it underflowed: that scaling is recorded as
    inconclusive, never as a finite witness.  Non-coincident requires a
    conclusive divergent verdict at every tested C; anything mixed stays
    inconclusive, never silently resolved.
    """
    t0 = unit_threshold(N, total_mass)
    trail: List[Tuple[float, str, object]] = [(C_LADDER[0], "divergent", None)]
    saw_inconclusive = False
    for c in C_LADDER[1:]:
        try:
            r = integrate(_criterion_integrand(N, c), t0, math.inf)
        except (BudgetExceeded, Inconclusive) as exc:
            trail.append((c, INCONCLUSIVE, str(exc)))
            saw_inconclusive = True
            continue
        if r.is_finite and r.value == 0.0:
            trail.append((c, INCONCLUSIVE, f"integral of a positive integrand underflowed "
                                           f"to 0.0 at scaling {c:g}"))
            saw_inconclusive = True
            continue
        if r.is_finite:
            trail.append((c, "finite", r.value))
            return CriterionResult(COINCIDENT, c, tuple(trail))
        trail.append((c, "divergent", None))
    if saw_inconclusive:
        return CriterionResult(INCONCLUSIVE, None, tuple(trail))
    return CriterionResult(NON_COINCIDENT, None, tuple(trail))


def _resolve_verdict(
    N: YoungFunction, total_mass: float, numeric: str
) -> Tuple[str, Optional[str], Optional[str]]:
    """Combine the numeric verdict with the analytic family override.

    Overrides apply only on finite-mass spaces: with infinite total mass
    the reference tail blows up at 0 and no builtin family coincides, so
    the numeric verdict stands on its own.
    """
    override = None
    if math.isfinite(total_mass):
        override = ANALYTIC_VERDICTS.get(N.family)
    if override is None:
        return numeric, None, None
    if numeric == override:
        agreement = "agreed"
    elif numeric == INCONCLUSIVE:
        agreement = "inconclusive"
    else:
        agreement = "disagreed"
    return override, override, agreement


def _unsettled(trace: List[Tuple[float, str, object]], k: float, reason: str) -> NonConvergence:
    trace.append((k, INCONCLUSIVE, reason))
    return NonConvergence(f"embedding modular at k={k!r} unsettled: {reason}")


def _q_function(
    N: YoungFunction,
    total_mass: float,
    criterion_trail: Sequence[Tuple[float, str, object]],
    trace: List[Tuple[float, str, object]],
) -> Callable[[float], float]:
    """Q(k) with +inf standing for a divergent Q, memoised by k.

    Q(1/C) is already known at every scaling C of the criterion trail,
    and those values are reused.  Every new Q evaluation is appended to
    ``trace`` as (k, tag, value); an unsettled Q (budget, inconclusive
    ladder) raises NonConvergence via ``_unsettled``.
    """
    cache: Dict[float, Tuple[str, object]] = {
        1.0 / c: (tag, value) for c, tag, value in criterion_trail
    }

    def q(k: float) -> float:
        if k not in cache:
            try:
                r = embedding_modular(N, k, total_mass)
            except (BudgetExceeded, Inconclusive) as exc:
                cache[k] = (INCONCLUSIVE, str(exc))
            else:
                cache[k] = (r.tag, r.value)
                trace.append((k, r.tag, r.value))
        tag, value = cache[k]
        if tag == INCONCLUSIVE:
            raise _unsettled(trace, k, value)
        return value if tag == "finite" else math.inf

    return q


def _k0_crossing(q: Callable[[float], float]) -> float:
    """Root of Q(k) = 1 by the shared crossing solver, started at k = 2.

    The result is the end of the final bracket where Q <= 1, as for the
    Luxemburg norm off power.  DivergentModular is raised when Q stays
    above 1 up to the solver's cap.
    """
    # a Q that jumps from +inf to below 1 is bisected to NORM_REL_TOL and
    # then fails Q_TOL at the upper end
    _, k0 = _unit_crossing(q, 2.0)
    if k0 == math.inf:
        raise DivergentModular("embedding modular stayed above 1 up to the cap")
    return k0


def _k0_search(
    N: YoungFunction,
    total_mass: float,
    criterion_trail: Sequence[Tuple[float, str, object]],
    trace: List[Tuple[float, str, object]],
) -> Tuple[float, float]:
    """Root k0 of Q(k) = 1, with the numeric Q(k0) that certifies it.

    exp_m on a finite mass takes k0 = alpha*(M)^(-1/m) from ``expfamily``
    and evaluates Q once, at k0; the returned Q(k0) satisfies
    |Q(k0) - 1| <= Q_TOL, on either side of 1.  Every other family runs
    ``_k0_crossing`` on Q, and 1 - Q_TOL <= Q(k0) <= 1.

    Every new Q evaluation is appended to ``trace`` as (k, tag, value).
    When Q cannot be settled on the way (budget, inconclusive ladder, or a
    k0 that misses Q_TOL) the last trace entry is (k, "inconclusive",
    reason) and NonConvergence is raised, with no fallback from the closed
    form to the search.
    """
    q = _q_function(N, total_mass, criterion_trail, trace)
    if N.family == "exp_m" and math.isfinite(total_mass):
        k0 = exp_embedding_constant(N.param, total_mass)
    else:
        k0 = _k0_crossing(q)
    value = q(k0)
    if not abs(value - 1.0) <= Q_TOL:
        raise _unsettled(trace, k0, f"|Q - 1| = {abs(value - 1.0):.3g} exceeds {Q_TOL:g}")
    return k0, value


def embedding_constant(N: YoungFunction, total_mass: float) -> float:
    """The exact constant k0 in strong <= k0 * weak, when the spaces coincide.

    Raises DivergentModular when the coincidence criterion fails (the
    constant is then infinite) and NonConvergence when Q cannot be
    settled on the way to k0.
    """
    crit = coincidence_criterion(N, total_mass)
    verdict, _, _ = _resolve_verdict(N, total_mass, crit.verdict)
    if verdict != COINCIDENT:
        raise DivergentModular(
            f"criterion verdict for {N.describe()} at mass {total_mass:g} is {verdict}"
        )
    k0, _ = _k0_search(N, total_mass, crit.trail, [])
    if k0 <= 1.0:
        raise NonConvergence(f"computed embedding constant {k0!r} not above 1")
    return k0


def extremal_function(N: YoungFunction, total_mass: float) -> TailRepFunction:
    """The function whose tail is exactly the Chebyshev reference tail.

    It has unit weak norm, and when the spaces coincide its strong norm
    equals the embedding constant (the bound is attained).
    """
    return TailRepFunction(chebyshev_tail(N, total_mass), total_mass)


@dataclass(frozen=True)
class EmbeddingReport:
    family: str
    param: Optional[float]
    total_mass: float
    unit_threshold: float
    verdict: str
    numeric_verdict: str
    override_verdict: Optional[str]
    classifier_agreement: Optional[str]
    witness_constant: Optional[float]
    embedding_constant: Optional[float]
    embedding_constant_modular: Optional[float]
    sharp: bool
    criterion_trail: Tuple[Tuple[float, str, object], ...]
    q_trace: Tuple[Tuple[float, str, object], ...]

    def __post_init__(self):
        has_k0 = self.embedding_constant is not None
        if has_k0 != (self.verdict == COINCIDENT):
            raise ValueError("embedding constant present iff verdict is coincident")
        if has_k0 and not (1.0 < self.embedding_constant < math.inf):
            raise ValueError("embedding constant must lie in (1, inf)")

    def to_dict(self) -> Dict[str, object]:
        def num(x):
            if x is None:
                return None
            return "inf" if math.isinf(x) else x

        return {
            "family": self.family,
            "param": self.param,
            "total_mass": num(self.total_mass),
            "unit_threshold": self.unit_threshold,
            "verdict": self.verdict,
            "numeric_verdict": self.numeric_verdict,
            "override_verdict": self.override_verdict,
            "classifier_agreement": self.classifier_agreement,
            "witness_constant": self.witness_constant,
            "embedding_constant": self.embedding_constant,
            "embedding_constant_modular": self.embedding_constant_modular,
            "sharp": self.sharp,
            "criterion_trail": [list(x) for x in self.criterion_trail],
            "q_trace": [list(x) for x in self.q_trace],
        }


def embedding_report(N: YoungFunction, total_mass: float) -> EmbeddingReport:
    """Full coincidence report: verdict, witness, constant, evaluation traces.

    A coincident verdict whose k0 cannot be settled is reported as
    inconclusive, with no constant; ``q_trace`` then ends with the
    unsettled evaluation as (k, "inconclusive", reason).
    """
    crit = coincidence_criterion(N, total_mass)
    verdict, override, agreement = _resolve_verdict(N, total_mass, crit.verdict)

    k0 = None
    q_at_k0 = None
    trace: List[Tuple[float, str, object]] = []
    if verdict == COINCIDENT:
        try:
            k0, q_at_k0 = _k0_search(N, total_mass, crit.trail, trace)
        except NonConvergence:
            verdict = INCONCLUSIVE

    return EmbeddingReport(
        family=N.family,
        param=N.param,
        total_mass=total_mass,
        unit_threshold=unit_threshold(N, total_mass),
        verdict=verdict,
        numeric_verdict=crit.verdict,
        override_verdict=override,
        classifier_agreement=agreement,
        witness_constant=crit.witness,
        embedding_constant=k0,
        embedding_constant_modular=q_at_k0,
        sharp=verdict == COINCIDENT,
        criterion_trail=crit.trail,
        q_trace=tuple(trace),
    )
