"""Closed-form machinery for the exponential Young family exp(|u|^m/m) - 1.

The embedding modular of this family reduces to a one-parameter gauge

    gauge(alpha) = int_0^(1/2) (1 - z)^(-2) z^(-alpha) dz,   alpha < 1,

evaluable either by its geometric series

    sum_{n>=0} (n+1) 2^(alpha-n-1) / (n+1-alpha)

or by quadrature with the endpoint singularity substituted away.  On a
space of total mass M, with alpha = k^(-m) and z = M/(M+1), the
substitution s = 1/(1 + N(t)) turns the embedding modular into

    Q(k) = int_0^z (s^(-alpha) - 1) (1 - s)^(-2) ds,

which at M = 1 is gauge(alpha) - 1.  So the embedding constant of exp_m(m)
is k0 = alpha*(M)^(-1/m), where alpha*(M) solves Q = 1 and depends on the
mass alone.  The generic embedding code takes k0 from here and certifies
it with one numeric Q; the gauge's quadrature form and frozen mpmath
values are what check this module.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from .errors import BadAlpha, BadParameter, NonConvergence
from .numerics import find_root, integrate
from .young import _family

__all__ = [
    "gauge_series",
    "gauge_quadrature",
    "critical_alpha",
    "critical_alpha_at_mass",
    "exp_embedding_constant",
    "exp_embedding_modular",
    "gauge_slope_at_zero",
    "GAUGE_SLOPE",
]

GAUGE_SLOPE = 2.0 * math.log(2.0)  # d gauge / d alpha at alpha = 0

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
    """Quadrature value of the gauge.

    For alpha > 0 the z^(-alpha) endpoint factor is absorbed exactly by
    the substitution z = s^q, q = 1/(1 - alpha), which leaves q times the
    integral of the regular factor (1 - s^q)^(-2) over (0, 2^(alpha-1)).
    """
    if not (alpha < 1.0):
        raise BadAlpha(f"gauge requires alpha < 1, got {alpha!r}")
    regular = lambda z: (1.0 - z) ** -2.0
    if alpha > 0.0:
        q = 1.0 / (1.0 - alpha)
        r = integrate(lambda s: regular(s ** q), 0.0, 0.5 ** (1.0 - alpha))
        return q * r.require_finite()
    return integrate(lambda z: regular(z) * z ** (-alpha), 0.0, 0.5).require_finite()


# The mass series stop once a term falls below _MASS_SERIES_TOL times the
# first; their term ratio is at most about 1/2.
_MASS_SERIES_TOL = 1e-18
_ALPHA_TOL = 1e-20  # absolute; find_root adds 4 eps |alpha|


def _modular_at_alpha(alpha: float, total_mass: float) -> float:
    """Q = int_0^z (s^-alpha - 1)(1 - s)^-2 ds, z = M/(M+1), 0 <= alpha < 1.

    Up to w = min(z, 1/2) the integrand is expanded in s: the n-th term
    w^n (n expm1(-alpha ln w) + alpha) / (n - alpha), n >= 1, is positive
    and free of cancellation.  Past 1/2 (M > 1) it is expanded in u = 1 - s,
    (1 - u)^-alpha - 1 = sum_{j>=1} c_j u^j with c_1 = alpha, which gives
    alpha ln((M+1)/2) + sum_{j>=2} c_j (2^(1-j) - r^(j-1)) / (j-1) with
    r = 1/(M+1); the u^-2 term, M - 1 on its own, has cancelled against the
    -1.  Both series have positive terms with ratio at most about 1/2, so
    no mass needs more than about 60 of them.
    """
    w = total_mass / (total_mass + 1.0) if total_mass < 1.0 else 0.5
    e = math.expm1(-alpha * math.log(w))
    terms: List[float] = []
    wn = 1.0
    for n in range(1, _SERIES_MAX_TERMS):
        wn *= w
        terms.append(wn * (n * e + alpha) / (n - alpha))
        if terms[-1] <= _MASS_SERIES_TOL * terms[0]:
            break
    else:
        raise NonConvergence(f"mass series did not settle within {_SERIES_MAX_TERMS} terms")
    if total_mass > 1.0:
        r = 1.0 / (total_mass + 1.0)
        terms.append(alpha * math.log1p(0.5 * (total_mass - 1.0)))
        c = alpha * (alpha + 1.0) / 2.0
        half_j = r_j = 1.0
        for j in range(2, _SERIES_MAX_TERMS):
            half_j *= 0.5
            r_j *= r
            terms.append(c * (half_j - r_j) / (j - 1))
            if terms[-1] <= _MASS_SERIES_TOL * terms[0]:
                break
            c *= (alpha + j) / (j + 1)
        else:
            raise NonConvergence(f"mass series did not settle within {_SERIES_MAX_TERMS} terms")
    return math.fsum(terms)


def critical_alpha_at_mass(total_mass: float) -> float:
    """alpha*(M): the alpha in (0, 1) where the exp-family Q equals 1 at mass M.

    Q is 0 at alpha = 0, strictly increasing and unbounded as alpha -> 1,
    so the root is unique.  It is bracketed from (0, 1/2), the upper end
    halving its distance to 1 while Q stays at or below 1, and solved by
    ``find_root`` to 4 ulp.  At M = 1 it is the root of gauge(alpha) = 2.
    """
    if not (0.0 < total_mass < math.inf):
        raise BadParameter(f"closed form requires a finite positive mass, got {total_mass!r}")
    if math.isinf(1.0 / total_mass):
        raise BadParameter(f"total mass {total_mass!r} is too small: 1/total_mass overflows")
    g = lambda a: _modular_at_alpha(a, total_mass) - 1.0
    lo, hi = 0.0, 0.5
    while not g(hi) > 0.0:
        lo, hi = hi, 0.5 * (1.0 + hi)
        if hi == 1.0:
            raise NonConvergence(f"Q stays at or below 1 below alpha = 1 at mass {total_mass!r}")
    return find_root(g, (lo, hi), tol=_ALPHA_TOL)


def critical_alpha(tol: float = 1e-10) -> float:
    """The unique alpha in (0, 1) with gauge(alpha) = 2, alpha*(1).

    Guarantees |gauge_series(root) - 2| <= tol.
    """
    if not (1e-12 <= tol <= 1e-2):
        raise BadParameter("tol must lie in [1e-12, 1e-2]")
    root = critical_alpha_at_mass(1.0)
    if abs(gauge_series(root) - 2.0) > tol:
        raise NonConvergence(f"gauge residual above {tol:g} at alpha={root!r}")
    return root


def exp_embedding_constant(m: float, total_mass: float = 1.0) -> float:
    """Exact embedding constant alpha*(M)^(-1/m) of exp_m(m) at total mass M.

    Strictly decreasing in m with limit 1 as m grows.
    """
    _family("exp_m", m)
    return critical_alpha_at_mass(total_mass) ** (-1.0 / m)


def exp_embedding_modular(m: float, k: float, total_mass: float = 1.0) -> float:
    """Closed form of the embedding modular Q(k) of exp_m(m) at total mass M;
    gauge(k^(-m)) - 1 at M = 1."""
    _family("exp_m", m)
    if not (k > 1.0):
        raise BadParameter("closed form requires k > 1")
    if not (0.0 < total_mass < math.inf):
        raise BadParameter(f"closed form requires a finite positive mass, got {total_mass!r}")
    return _modular_at_alpha(k ** (-m), total_mass)


def gauge_slope_at_zero() -> Tuple[float, float]:
    """(quadrature, analytic) value of the gauge's slope at alpha = 0.

    The slope is int_0^(1/2) |ln z| (1-z)^(-2) dz = 2 ln 2; the quadrature
    side exercises the kernel on a logarithmic endpoint singularity.
    """
    quad = integrate(lambda z: abs(math.log(z)) * (1.0 - z) ** -2.0, 0.0, 0.5).require_finite()
    return quad, GAUGE_SLOPE
