"""Young-Orlicz functions: builtin families and custom wrappers.

A Young function N is even, continuous, convex, N(0) = 0, strictly
increasing to infinity, with N(u)/u -> 0 at 0 and -> infinity at infinity.
Three parametric families are built in:

    power(p):   |u|^p                          p > 1
    exp_m(m):   exp(|u|^m / m) - 1             m > 0
    delta(D):   exp((ln(1 + |u|))^D) - 1       D > 1

Note exp_m(1) fails the small-argument limit (N(u)/u -> 1, not 0); it is
admitted anyway because the embedding machinery only needs monotonicity
and the inverse, and the exponential family is used down to m = 1.
Custom functions are not audited for convexity or the limit ratios
either; only the inverse round-trip, which every computation relies on,
is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import BadParameter

__all__ = [
    "YoungFunction",
    "make_young",
    "power_young",
    "exp_young",
    "delta_young",
    "custom_young",
]

_EXP_CAP = 700.0  # exp overflows just above 709; keep headroom
_ROUNDTRIP_REL = 1e-10  # N(N^{-1}(w)) = w to this, relative, for w = 1e-6 ... 1e12


# log(1 - e^-x) is below rounding (e^-x < 3e-18) once log x exceeds this
_LOG1MEXP_NEGLIGIBLE = 3.7


def _log1mexp(log_x: float) -> float:
    """log(1 - e^-x) from log x, accurate at both ends."""
    if log_x > _LOG1MEXP_NEGLIGIBLE:
        return 0.0
    if log_x < -690.0:
        return log_x  # x < 1e-299: the correction -x/2 is below rounding
    x = math.exp(log_x)
    if x < 0.6931471805599453:
        return math.log(-math.expm1(-x))
    return math.log1p(-math.exp(-x))


@dataclass(frozen=True, eq=False, slots=True)
class YoungFunction:
    """A validated Young-Orlicz function with evaluator, inverse, derivative.

    Evaluation goes through abs(u), so evenness is exact by construction.
    The inverse must satisfy N(N^{-1}(w)) = w to 1e-10 relative on a log
    grid; builtin families have analytic inverses and derivatives, custom
    functions may omit the derivative.  Central differences of N then
    stand in for it, with the step h = u 1e-6 raised to one ulp of u,
    where u 1e-6 underflows (u below about 5e-318).  The difference reads
    0 where N(u +- h) underflows: under u^2 that is u = 1e-300, whose
    true slope is 2e-300.
    A value past the float range reads as +inf: an OverflowError that the
    evaluator or the derivative raises is caught here, and nowhere
    downstream, and returns +inf.

    Builtin families also carry ``log_criterion``: given c > 0 it returns
    u -> log(N(cu) N'(u) / N(u)^2) for u > 0, the criterion integrand in
    log space, as the sum of the two log differences log N(cu) - log N(u)
    and log N'(u) - log N(u) written without cancellation, so that it
    stays exact where N itself overflows.  Custom functions leave it None.
    The library may pass an optional second argument, a dict it owns for
    one report, that keeps the terms free of c by u across calls with
    different c.  delta uses it, since its terms cost more than a dict
    read; power and exp_m ignore it.  Either way the log form is the same
    float, and nothing is kept on N.
    """

    family: str
    param: Optional[float]
    _evaluate: Callable[[float], float]
    _inverse: Callable[[float], float]
    _derivative: Optional[Callable[[float], float]] = None
    label: str = ""
    log_criterion: Optional[Callable[[float], Callable[[float], float]]] = None

    def __call__(self, u: float) -> float:
        try:
            return self._evaluate(abs(u))
        except OverflowError:
            return math.inf

    def inverse(self, w: float) -> float:
        if w < 0.0:
            raise ValueError("inverse argument must be non-negative")
        if w == 0.0:
            return 0.0
        return self._inverse(w)

    def derivative(self, u: float) -> float:
        u = abs(u)
        if self._derivative is not None:
            try:
                return self._derivative(u)
            except OverflowError:
                return math.inf
        if u == 0.0:
            return 0.0
        h = max(u * 1e-6, math.ulp(u))
        above = self(u + h)
        if above == math.inf:  # where both reads overflow, inf - inf would be NaN
            return math.inf
        return (above - self(u - h)) / (2.0 * h)

    def describe(self) -> str:
        if self.label:
            return self.label
        if self.param is None:
            return self.family
        return f"{self.family}({self.param:g})"


def _power_family(p: float) -> YoungFunction:
    def ev(u):
        return u ** p

    def inv(w):
        return w ** (1.0 / p)

    def der(u):
        if u == 0.0:
            return 0.0
        return p * u ** (p - 1.0)

    def log_criterion(c, nodes=None):
        # N(cu)/N(u) = c^p and N'(u)/N(u) = p/u
        const = p * math.log(c) + math.log(p)
        return lambda u: const - math.log(u)

    return YoungFunction("power", p, ev, inv, der, f"power({p:g})", log_criterion)


def _exp_family(m: float) -> YoungFunction:
    def ev(u):
        x = u ** m / m
        if x > _EXP_CAP:
            return math.inf
        return math.expm1(x)

    def inv(w):
        return (m * math.log1p(w)) ** (1.0 / m)

    def der(u):
        if u == 0.0:
            return 1.0 if m == 1.0 else 0.0
        x = u ** m / m
        if x > _EXP_CAP:
            return math.inf
        return u ** (m - 1.0) * math.exp(x)

    log_m = math.log(m)

    def log_criterion(c, nodes=None):
        # N = e^x (1 - e^-x) with x = u^m/m, and N(cu) has x scaled by c^m:
        #   log N(cu) - log N(u) = (c^m - 1) x + l(c^m x) - l(x)
        #   log N'(u) - log N(u) = (m - 1) ln u - l(x),  l(y) = log(1 - e^-y)
        log_cm = m * math.log(c)
        try:
            cm1 = math.expm1(log_cm)
        except OverflowError:
            cm1 = math.inf

        def g(u):
            log_u = math.log(u)
            log_x = m * log_u - log_m
            e = (m - 1.0) * log_u
            if cm1:  # at c = 1 the term is 0 even where x overflows to inf
                e += cm1 * (math.exp(log_x) if log_x < 709.0 else math.inf)
            # the l terms vanish below rounding once x and c^m x exceed 40;
            # two comparisons, not a min() call, on this per-node path
            lc = log_x + log_cm
            if log_x <= _LOG1MEXP_NEGLIGIBLE or lc <= _LOG1MEXP_NEGLIGIBLE:
                e += _log1mexp(lc) - 2.0 * _log1mexp(log_x)
            return e

        return g

    return YoungFunction("exp_m", m, ev, inv, der, f"exp_m({m:g})", log_criterion)


def _delta_family(d: float) -> YoungFunction:
    def ev(u):
        x = math.log1p(u) ** d
        if x > _EXP_CAP:
            return math.inf
        return math.expm1(x)

    def inv(w):
        return math.expm1(math.log1p(w) ** (1.0 / d))

    def der(u):
        if u == 0.0:
            return 0.0
        L = math.log1p(u)
        x = L ** d
        if x > _EXP_CAP:
            return math.inf
        return math.exp(x) * d * L ** (d - 1.0) / (1.0 + u)

    log_d = math.log(d)

    def log_criterion(c, nodes=None):
        # N = e^x (1 - e^-x) with x = L^d, L = ln(1 + u); under u -> cu, L
        # shifts by log1p((c - 1) u / (1 + u)) and x grows by the factor
        # e^(d r), r = log1p(shift / L), so that
        #   log N(cu) - log N(u) = x expm1(d r) + l(x e^(d r)) - l(x)
        #   log N'(u) - log N(u) = ln d + (d - 1) ln L - L - l(x)
        # The terms free of c (1 + u, L, log x, x, (d - 1) ln L and l(x))
        # are kept in the dict ``nodes`` by u, where one is passed, so that
        # the scalings of one report compute them once per node; the sums
        # take them in the same order either way.
        cm1 = c - 1.0

        def g(u):
            terms = None if nodes is None else nodes.get(u)
            if terms is None:
                L = math.log1p(u)
                log_L = math.log(L)
                one_u = 1.0 + u
                log_x = d * log_L
                x = math.exp(log_x)
                dl = (d - 1.0) * log_L
                l_x = _log1mexp(log_x)
                if nodes is not None:
                    nodes[u] = (one_u, L, log_x, x, dl, l_x)
            else:
                one_u, L, log_x, x, dl, l_x = terms
            dr = d * math.log1p(math.log1p(cm1 * u / one_u) / L)
            e = x * math.expm1(dr) + log_d + dl - L
            # the l terms vanish below rounding once x and x e^(d r) exceed 40;
            # two comparisons, not a min() call, on this per-node path
            lc = log_x + dr
            if log_x <= _LOG1MEXP_NEGLIGIBLE or lc <= _LOG1MEXP_NEGLIGIBLE:
                e += _log1mexp(lc) - 2.0 * l_x
            return e

        return g

    return YoungFunction("delta", d, ev, inv, der, f"delta({d:g})", log_criterion)


def _roundtrip_check(N: YoungFunction) -> None:
    for e in range(-6, 13):
        w = 10.0 ** e
        u = N.inverse(w)
        back = N(u)
        if not math.isfinite(back) or abs(back - w) > _ROUNDTRIP_REL * w:
            raise BadParameter(
                f"inverse inconsistent for {N.describe()}: N(N^-1({w:g})) = {back!r}"
            )


def make_young(family: str, param: float) -> YoungFunction:
    """Build a builtin family member; raises BadParameter out of range."""
    if family == "power":
        if not (param > 1.0 and math.isfinite(param)):
            raise BadParameter("power family requires p > 1")
        N = _power_family(float(param))
    elif family == "exp_m":
        if not (param > 0.0 and math.isfinite(param)):
            raise BadParameter("exp_m family requires m > 0")
        N = _exp_family(float(param))
    elif family == "delta":
        if not (param > 1.0 and math.isfinite(param)):
            raise BadParameter("delta family requires Delta > 1")
        N = _delta_family(float(param))
    else:
        raise BadParameter(f"unknown family {family!r}")
    _roundtrip_check(N)
    return N


def power_young(p: float) -> YoungFunction:
    return make_young("power", p)


def exp_young(m: float) -> YoungFunction:
    return make_young("exp_m", m)


def delta_young(d: float) -> YoungFunction:
    return make_young("delta", d)


def custom_young(
    evaluate: Callable[[float], float],
    inverse: Callable[[float], float],
    derivative: Optional[Callable[[float], float]] = None,
    label: str = "custom",
) -> YoungFunction:
    """Wrap user callables as a Young function.

    The inverse is mandatory (norm and embedding integrals are
    parameterized by it) and must round-trip to 1e-10 relative.  Convexity
    and the limit ratios are the caller's responsibility; they are not
    checked.
    """
    N = YoungFunction("custom", None, evaluate, inverse, derivative, label)
    if N(0.0) != 0.0:
        raise BadParameter("custom Young function must satisfy N(0) = 0")
    _roundtrip_check(N)
    return N
