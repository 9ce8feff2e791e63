"""Closed-form machinery for the exponential Young family exp(|u|^m/m) - 1.

The embedding modular of this family reduces to a one-parameter gauge

    gauge(alpha) = int_0^(1/2) (1 - z)^(-2) z^(-alpha) dz,   alpha < 1,

evaluable either by its geometric series

    sum_{n>=0} (n+1) 2^(alpha-n-1) / (n+1-alpha)

or by quadrature with the endpoint singularity absorbed exactly.  The
embedding constant of exp_m(m) on a unit-mass space is
critical_alpha()^(-1/m), where critical_alpha solves gauge(alpha) = 2.
This module is the independent oracle for the generic embedding code.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple

from .errors import BadAlpha, BadParameter, NonConvergence
from .numerics import find_root, integrate

__all__ = [
    "gauge_series",
    "gauge_quadrature",
    "critical_alpha",
    "exp_embedding_constant",
    "exp_embedding_modular",
    "gauge_slope_at_zero",
    "GAUGE_SLOPE",
]

GAUGE_SLOPE = 2.0 * math.log(2.0)  # d gauge / d alpha at alpha = 0

_BRACKET = (0.3, 0.6)  # fixed sign-change bracket for gauge = 2

# Series truncation: stop once a term falls below _SERIES_TOL.  Terms are
# positive with ratio approaching 1/2, so the truncation error is at most
# twice the last term retained.
_SERIES_TOL = 1e-14
_SERIES_MAX_TERMS = 10_000


def gauge_series(alpha: float) -> float:
    """Series value of the gauge; BadAlpha for alpha >= 1."""
    if not (alpha < 1.0):
        raise BadAlpha(f"gauge requires alpha < 1, got {alpha!r}")
    total = 0.0
    for n in range(_SERIES_MAX_TERMS):
        term = (n + 1) * 2.0 ** (alpha - n - 1) / (n + 1 - alpha)
        total += term
        if term < _SERIES_TOL and n >= 2:
            return total
    raise NonConvergence(
        f"gauge series did not reach tol={_SERIES_TOL:g} within {_SERIES_MAX_TERMS} terms"
    )


def gauge_quadrature(alpha: float) -> float:
    """Quadrature value of the gauge; the z^(-alpha) endpoint factor is
    absorbed by the kernel's exact substitution when alpha > 0."""
    if not (alpha < 1.0):
        raise BadAlpha(f"gauge requires alpha < 1, got {alpha!r}")
    regular = lambda z: (1.0 - z) ** -2.0
    if alpha > 0.0:
        return integrate(regular, 0.0, 0.5, lower_singularity=alpha).require_finite()
    if alpha == 0.0:
        return integrate(regular, 0.0, 0.5).require_finite()
    return integrate(lambda z: regular(z) * z ** (-alpha), 0.0, 0.5).require_finite()


@lru_cache(maxsize=32)
def critical_alpha(tol: float = 1e-10) -> float:
    """The unique alpha in (0, 1) with gauge(alpha) = 2.

    The gauge is 1 at 0, strictly increasing, unbounded as alpha -> 1, so
    the root exists and is unique; the bracket is fixed and its sign
    change is asserted up front.  Guarantees |gauge(root) - 2| <= tol.
    """
    if not (1e-12 <= tol <= 1e-2):
        raise BadParameter("tol must lie in [1e-12, 1e-2]")
    g = lambda a: gauge_series(a) - 2.0
    if not (g(_BRACKET[0]) < 0.0 < g(_BRACKET[1])):
        raise NonConvergence("gauge bracket lost its sign change")
    root = find_root(g, _BRACKET, tol=max(tol * 1e-2, 1e-13))
    if abs(gauge_series(root) - 2.0) > tol:
        raise NonConvergence(f"gauge residual above {tol:g} at alpha={root!r}")
    return root


def exp_embedding_constant(m: float) -> float:
    """Exact embedding constant of exp_m(m) on a unit-mass space.

    Strictly decreasing in m with limit 1 as m grows.
    """
    if not (m > 0.0 and math.isfinite(m)):
        raise BadParameter("exp family requires m > 0")
    return critical_alpha(1e-10) ** (-1.0 / m)


def exp_embedding_modular(m: float, k: float) -> float:
    """Closed form gauge(k^(-m)) - 1 for the embedding modular of exp_m(m)."""
    if not (m > 0.0 and math.isfinite(m)):
        raise BadParameter("exp family requires m > 0")
    if not (k > 1.0):
        raise BadParameter("closed form requires k > 1")
    return gauge_series(k ** (-m)) - 1.0


def gauge_slope_at_zero() -> Tuple[float, float]:
    """(quadrature, analytic) value of the gauge's slope at alpha = 0.

    The slope is int_0^(1/2) |ln z| (1-z)^(-2) dz = 2 ln 2; the quadrature
    side exercises the kernel on a logarithmic endpoint singularity.
    """
    quad = integrate(lambda z: abs(math.log(z)) * (1.0 - z) ** -2.0, 0.0, 0.5).require_finite()
    return quad, GAUGE_SLOPE
