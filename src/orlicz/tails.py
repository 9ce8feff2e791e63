"""Tail functions, the Chebyshev reference tail, dilation.

A tail function maps t > 0 to the measure of {|f| >= t}: left-continuous,
non-increasing, vanishing at infinity.  Functions are represented here
only through their tails (every quantity in this library is
rearrangement-invariant), either as finite step functions or as analytic
callables.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple, Union

from .errors import BadParameter, MassOverflow
from .numerics import _check_breaks
from .young import YoungFunction

__all__ = [
    "StepTail",
    "AnalyticTail",
    "TailFunction",
    "TailRepFunction",
    "step_tail",
    "chebyshev_tail",
    "dilate",
]


@dataclass(frozen=True, eq=False, slots=True)
class StepTail:
    """Left-continuous step tail: level ``levels[i]`` on (thresholds[i-1], thresholds[i]].

    ``thresholds`` are the distinct function values in increasing order;
    past the last threshold the tail is 0.  An empty step tail is the tail
    of the zero function.
    """

    thresholds: Tuple[float, ...]
    levels: Tuple[float, ...]
    # the piece masses levels[i] - levels[i+1] (the last level for the last
    # piece), taken once here rather than in every step sum; an array of
    # doubles takes a third of the memory of a tuple of floats
    _masses: array = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.thresholds) != len(self.levels):
            raise ValueError("thresholds and levels must have equal length")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if any(t <= 0.0 or not math.isfinite(t) for t in self.thresholds):
            raise ValueError("thresholds must be positive and finite")
        # negated comparisons, so that a NaN level fails them
        if any(not b < a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly decreasing")
        if self.levels and not self.levels[-1] > 0.0:
            raise ValueError("levels must be positive")
        if self.levels and math.isinf(1.0 / self.levels[-1]):
            raise BadParameter(f"tail level {self.levels[-1]!r} is too small: 1/level overflows")
        levels = self.levels
        object.__setattr__(self, "_masses", array("d", [
            a - b for a, b in zip(levels, levels[1:] + (0.0,))]))

    @staticmethod
    def from_pieces(pieces: Iterable[Tuple[float, float]]) -> "StepTail":
        """Tail of a simple function taking value v_j on mass m_j (v >= 0)."""
        masses = {}
        for v, m in pieces:
            if v < 0.0 or not math.isfinite(v):
                raise ValueError(f"piece value {v!r} must be finite and non-negative")
            if m <= 0.0 or not math.isfinite(m):
                raise ValueError(f"piece mass {m!r} must be finite and positive")
            if v > 0.0:
                masses[v] = masses.get(v, 0.0) + m
        values = sorted(masses)
        levels = []
        acc = 0.0
        for v in reversed(values):
            acc += masses[v]
            levels.append(acc)
        levels.reverse()
        return StepTail(tuple(values), tuple(levels))

    def value(self, t: float) -> float:
        if t <= 0.0:
            raise ValueError("tail functions are defined for t > 0")
        i = bisect_left(self.thresholds, t)
        if i == len(self.thresholds):
            return 0.0
        return self.levels[i]

    def pieces(self) -> List[Tuple[float, float]]:
        """Recover (value, mass) pairs from the jump structure."""
        return list(zip(self.thresholds, self._masses))

    @property
    def is_zero(self) -> bool:
        return not self.thresholds

    @property
    def top_level(self) -> float:
        return self.levels[0] if self.levels else 0.0


@dataclass(frozen=True, eq=False)
class AnalyticTail:
    """Tail given by a callable t -> measure{|f| >= t}, t > 0.

    ``breaks`` are the t where the tail has an interior kink or a jump
    (positive, finite, increasing); integrals over the tail split their
    panels there.  The ends of the support need no break: the end of the
    plateau where the tail equals a finite total mass, and the point
    where the tail drops to 0 for good (if it does so below 1e12).  The
    modular and the Lebesgue norm find both and integrate only between
    them; a drop to 0 from below 1e-300, where the tail leaves the float
    range, ends the range only where the integrand there is negligible,
    and is otherwise added to these breaks for that integral (see
    ``norms._analytic_modular``).  Any other undeclared kink is integrated
    as if the tail were smooth: the quadrature runs in s = ln t, and its
    error estimate does not see a kink that lies between a ladder cutoff
    and the nearest node.  Over 150 seeded tails min(M, t^-q) on infinite
    mass under power(p), with p in [1.2, 4], q - p in [0.3, 4] and M in
    [0.05, 20], the modular at k = 1 was up to 1.4e-5 off without a break
    at the kink and 3.4e-15 off with it.

    A value past the float range reads as +inf: an OverflowError that
    ``fn`` raises (t^-q near 0, say) is caught in ``value``, through
    which the library reads ``fn``, and returns +inf.

    ``_extremal`` is (N, M) on the tail of ``extremal_function(N, M)``,
    which alone sets it, and None on every other tail: the norms read it
    (``norms.weak_norm``, ``norms.luxemburg_norm`` and
    ``norms._support_ends``) in place of searching for what it gives.
    """

    fn: Callable[[float], float]
    label: str = ""
    breaks: Tuple[float, ...] = ()
    _extremal: Optional[Tuple[YoungFunction, float]] = field(default=None, repr=False)

    def __post_init__(self):
        _check_breaks(self.breaks)
        object.__setattr__(self, "breaks", tuple(self.breaks))

    def value(self, t: float) -> float:
        if t <= 0.0:
            raise ValueError("tail functions are defined for t > 0")
        try:
            v = self.fn(t)
        except OverflowError:
            v = math.inf
        if v != v or v < 0.0:
            raise ValueError(f"tail callable returned {v!r} at t={t!r}")
        return v

    @property
    def is_zero(self) -> bool:
        return False


TailFunction = Union[StepTail, AnalyticTail]


def _check_mass(total_mass: float) -> None:
    """Reject a total mass that is not positive, or whose reciprocal overflows."""
    if not (total_mass > 0.0):
        raise ValueError("total mass must be positive (may be inf)")
    if math.isinf(1.0 / total_mass):
        raise BadParameter(f"total mass {total_mass!r} is too small: 1/total_mass overflows")


@dataclass(frozen=True, eq=False, slots=True)
class TailRepFunction:
    """Canonical representation of a measurable function: tail + total mass."""

    tail: TailFunction
    total_mass: float

    def __post_init__(self):
        _check_mass(self.total_mass)
        if isinstance(self.tail, StepTail) and self.tail.levels:
            if self.tail.top_level > self.total_mass * (1.0 + 1e-12):
                raise MassOverflow(
                    f"tail carries mass {self.tail.top_level!r} above the total"
                    f" {self.total_mass!r}"
                )


def step_tail(
    pieces: Iterable[Tuple[float, float]], total_mass: float = 1.0
) -> TailRepFunction:
    """Tail representation of a simple function; MassOverflow if pieces exceed the total."""
    tail = StepTail.from_pieces(pieces)
    return TailRepFunction(tail, total_mass)


def chebyshev_tail(N: YoungFunction, total_mass: float) -> AnalyticTail:
    """The reference tail min(total_mass, 1/N(t)) from the Chebyshev bound.

    With infinite total mass this is 1/N(t); the min with infinity is the
    finite branch.  On finite mass the tail leaves its plateau at the unit
    threshold t0 = N^{-1}(1/total_mass); no break is declared there, as
    the modular and the Lebesgue norm take the plateau in closed form and
    integrate only past it.
    """
    _check_mass(total_mass)

    def fn(t: float) -> float:
        n = N(t)
        if n == 0.0:
            return total_mass
        inv = 1.0 / n
        return inv if inv < total_mass else total_mass

    return AnalyticTail(fn, label=f"min(mass, 1/{N.describe()})")


def dilate(T: TailFunction, c: float) -> TailFunction:
    """Tail of c*f when T is the tail of f: t -> T(t/c)."""
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError("dilation factor must be positive and finite")
    if isinstance(T, StepTail):
        return StepTail(tuple(t * c for t in T.thresholds), T.levels)
    # a break scaled out of the float range no longer lies inside any panel
    breaks = tuple(x for x in (x * c for x in T.breaks) if 0.0 < x < math.inf)
    return AnalyticTail(lambda t: T.value(t / c), label=f"dilate({T.label}, {c:g})",
                        breaks=breaks)
