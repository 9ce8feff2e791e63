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
that extremal function; k0 is its Luxemburg norm.  One function,
``_k0_search``, finds k0 from a Q memoised over the criterion's trail.
For exp_m on a finite mass k0 has a closed form (``expfamily``), which
one numeric Q certifies; otherwise it is found by the crossing solver
the Luxemburg norm uses off power.

The integrals of one report sample the integrand at the same nodes t
again and again, at different scalings.  So ``embedding_report`` (whose
constant ``embedding_constant`` returns) and ``coincidence_criterion``
each work on a copy of N whose log form carries a node memo of its own
(``_with_node_memo``): a dict, by t, of the terms of N's log form that do
not depend on the scaling, which delta's log form fills and reads.  The
copy is passed to the calls the report makes, so its criterion and k0
search share one memo, and it is dropped with the call; the caller's N
keeps nothing.  The terms are the same floats either way, so every
integral is too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (BudgetExceeded, DivergentModular, Inconclusive, NonConvergence,
                     NonEvaluable)
from .expfamily import exp_embedding_constant
from .numerics import FiniteOrDivergent, _IntegrandOverflow, _unit_crossing, integrate
from .tails import TailRepFunction, _check_mass, chebyshev_tail
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
    _check_mass(total_mass)
    if math.isinf(total_mass):
        return 0.0
    return N.inverse(1.0 / total_mass)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _with_node_memo(N: YoungFunction) -> YoungFunction:
    """A copy of N whose log form keeps one node memo of its own, or N without one.

    The copy's log form ignores a memo passed to it, so a copy of the copy
    shares the first copy's memo.
    """
    if N.log_criterion is None:
        return N
    nodes: dict = {}
    return replace(N, log_criterion=lambda c, _=None: N.log_criterion(c, nodes))


def _criterion_integrand(N: YoungFunction, c: float):
    """t -> N(ct) N'(t) / N(t)^2, as one exp where N supplies its log form.

    A value past the float range makes the integral divergent.
    """
    def overflow(t: float) -> _IntegrandOverflow:
        return _IntegrandOverflow(f"integrand overflow near t={t:g} at scaling {c:g}")

    if N.log_criterion is not None:
        log_f = N.log_criterion(c)
        exp = math.exp
        top = _LOG_FLOAT_MAX

        def f(t: float) -> float:
            e = log_f(t)
            if e > top:
                raise overflow(t)
            return exp(e)

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
    if not 0.0 < k < math.inf:
        raise ValueError("scale k must be positive and finite")
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
    inconclusive, never silently resolved.  The scalings share the node
    memo of a copy of N (``_with_node_memo``); a report passes its own
    copy, whose memo its k0 search then shares.
    """
    N = _with_node_memo(N)
    t0 = unit_threshold(N, total_mass)
    trail: List[Tuple[float, str, object]] = [(C_LADDER[0], "divergent", None)]
    for c in C_LADDER[1:]:
        try:
            r = integrate(_criterion_integrand(N, c), t0, math.inf)
        except (BudgetExceeded, Inconclusive) as exc:
            trail.append((c, INCONCLUSIVE, str(exc)))
            continue
        if r.is_finite and r.value == 0.0:
            trail.append((c, INCONCLUSIVE, f"integral of a positive integrand underflowed "
                                           f"to 0.0 at scaling {c:g}"))
            continue
        if r.is_finite:
            trail.append((c, "finite", r.value))
            return CriterionResult(COINCIDENT, c, tuple(trail))
        trail.append((c, "divergent", None))
    verdict = INCONCLUSIVE if any(e[1] == INCONCLUSIVE for e in trail) else NON_COINCIDENT
    return CriterionResult(verdict, None, tuple(trail))


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


def _k0_search(
    N: YoungFunction,
    total_mass: float,
    criterion_trail: Sequence[Tuple[float, str, object]],
    trace: List[Tuple[float, str, object]],
) -> Tuple[float, float]:
    """Root k0 of Q(k) = 1, with the numeric Q(k0) that certifies it.

    Q is memoised by k, +inf standing for a divergent Q.  Q(1/C) is
    already known at every scaling C of the criterion trail, and those
    values are reused; every new Q evaluation is appended to ``trace`` as
    (k, tag, value).  Each new Q goes through ``embedding_modular`` on
    the N it is given, which a report passes as its copy with a node memo:
    at a node that the criterion or an earlier Q sampled, delta's terms
    free of the scaling cost one dict read.  exp_m on a finite mass takes
    k0 = alpha*(M)^(-1/m) from ``expfamily`` and evaluates Q once, at k0;
    the returned Q(k0) satisfies |Q(k0) - 1| <= Q_TOL, on either side of
    1.  Every other family (a relabelled copy of exp_m included) runs the
    shared crossing solver on Q from k = 2, as the Luxemburg norm does off
    power, and k0 is the end of the final bracket where Q <= 1, so
    1 - Q_TOL <= Q(k0) <= 1.  A Q that jumps from +inf to below 1 is
    bisected to NORM_REL_TOL and then fails Q_TOL at that end.

    DivergentModular is raised when Q stays above 1 up to the solver's
    cap.  When Q cannot be settled on the way (budget, inconclusive
    ladder, or a k0 that misses Q_TOL) the last trace entry is (k,
    "inconclusive", reason) and NonConvergence is raised, with no fallback
    from the closed form to the search.
    """
    cache: Dict[float, Tuple[str, object]] = {
        1.0 / c: (tag, value) for c, tag, value in criterion_trail
    }

    def unsettled(k: float, reason: object) -> NonConvergence:
        trace.append((k, INCONCLUSIVE, reason))
        return NonConvergence(f"embedding modular at k={k!r} unsettled: {reason}")

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
            raise unsettled(k, value)
        return value if tag == "finite" else math.inf

    if N.family == "exp_m" and math.isfinite(total_mass):
        k0 = exp_embedding_constant(N.param, total_mass)
    else:
        _, k0 = _unit_crossing(q, 2.0)
        if k0 == math.inf:
            raise DivergentModular("embedding modular stayed above 1 up to the cap")
    value = q(k0)
    if not abs(value - 1.0) <= Q_TOL:
        raise unsettled(k0, f"|Q - 1| = {abs(value - 1.0):.3g} exceeds {Q_TOL:g}")
    return k0, value


def embedding_constant(N: YoungFunction, total_mass: float) -> float:
    """The exact constant k0 in strong <= k0 * weak, when the spaces coincide.

    It is the constant of ``embedding_report``.  Raises NonConvergence
    where the k0 search ended on an unsettled Q (the last entry of the
    report's ``q_trace``), and DivergentModular where the verdict is not
    coincident (the constant is then infinite, or the verdict open) or Q
    stays above 1 up to the crossing solver's cap.
    """
    report = embedding_report(N, total_mass)
    if report.embedding_constant is not None:
        return report.embedding_constant
    if report.q_trace:  # the k0 search ran and stopped at this unsettled Q
        k, _, reason = report.q_trace[-1]
        raise NonConvergence(f"embedding modular at k={k!r} unsettled: {reason}")
    raise DivergentModular(
        f"criterion verdict for {N.describe()} at mass {total_mass:g} is {report.verdict}"
    )


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
        """Every field, for JSON: each trail as a list of lists, an infinite mass as "inf"."""
        out: Dict[str, object] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = [list(x) for x in v] if isinstance(v, tuple) else _json_number(v)
        return out


def _json_number(x):
    """x, or "inf" where x is an infinite float, which JSON cannot hold."""
    return "inf" if isinstance(x, float) and math.isinf(x) else x


def embedding_report(N: YoungFunction, total_mass: float) -> EmbeddingReport:
    """Full coincidence report: verdict, witness, constant, evaluation traces.

    A coincident verdict whose k0 cannot be settled is reported as
    inconclusive, with no constant; ``q_trace`` then ends with the
    unsettled evaluation as (k, "inconclusive", reason).
    """
    k0 = None
    q_at_k0 = None
    trace: List[Tuple[float, str, object]] = []
    N = _with_node_memo(N)  # the criterion and the k0 search share its memo
    crit = coincidence_criterion(N, total_mass)
    verdict, override, agreement = _resolve_verdict(N, total_mass, crit.verdict)
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
