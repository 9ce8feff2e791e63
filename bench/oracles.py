"""Independent oracles for the benchmark's ops.

Nothing here imports ``orlicz``: the Young functions, their inverses and
the closed forms below are written from the definitions, so an op is
checked against arithmetic that shares no code with the library.

Every check returns ``(ok, rel_err, reason)``.  ``rel_err`` is the
relative error against a finite oracle value, or None when the oracle is
+inf or only a predicate.
"""

from __future__ import annotations

import math

# Root of gauge(alpha) = 2, computed with mpmath at 30 digits
# (tests/oracle_values.py, BETA0); k0[exp_m(m), mass 1] = BETA0 ** (-1/m).
BETA0 = 0.4318705476715142

# Acceptance tolerances, taken from the repository's own gates.
TOL_WEAK = 1e-8  # weak norms of extremal and indicator functions (test_norms)
TOL_K0 = 1e-6  # generic k0 against its closed form (C04 / EM-01)
TOL_ATTAIN = 1e-4  # strong norm of the extremal function against k0 (C06 / EM-05)
TOL_STRONG = 1e-6  # quadrature-based strong norms of power tails
BELOW = 1.0 - 1e-9  # "just below" the returned Luxemburg norm


def young(family: str, param: float):
    """(N, N^{-1}) of a builtin family, written from its definition."""
    if family == "power":
        p = param

        def N(u):
            try:
                return u ** p
            except OverflowError:
                return math.inf

        def inv(w):
            return w ** (1.0 / p)

    elif family == "exp_m":
        m = param

        def N(u):
            try:
                return math.expm1(u ** m / m)
            except OverflowError:
                return math.inf

        def inv(w):
            return (m * math.log1p(w)) ** (1.0 / m)

    elif family == "delta":
        d = param

        def N(u):
            try:
                return math.expm1(math.log1p(u) ** d)
            except OverflowError:
                return math.inf

        def inv(w):
            return math.expm1(math.log1p(w) ** (1.0 / d))

    else:
        raise ValueError(f"unknown family {family!r}")
    return N, inv


def rel_err(x: float, exact: float) -> float:
    if math.isinf(x):
        return math.inf
    return abs(x - exact) / abs(exact)


def check_value(x: float, exact: float, tol: float, what: str):
    if math.isinf(exact):
        if math.isinf(x):
            return True, None, ""
        return False, None, f"{what} = {x!r}, exact +inf"
    if x != x:
        return False, None, f"{what} is NaN, exact {exact!r}"
    e = rel_err(x, exact)
    if e <= tol:
        return True, e, ""
    return False, e, f"{what} = {x!r}, exact {exact!r} (rel err {e:.2e} > {tol:g})"


# -- exponential family: embedding constant on any finite mass -------------

def _exp_gauge(alpha: float, z: float) -> float:
    """sum_n (n+1) z^(n+1-alpha) / (n+1-alpha) = int_0^z s^-alpha (1-s)^-2 ds."""
    total = 0.0
    n = 0
    while True:
        term = (n + 1) * z ** (n + 1 - alpha) / (n + 1 - alpha)
        total += term
        if term <= 1e-18 * total:
            return total
        n += 1


def exp_k0(m: float, mass: float) -> float:
    """k0 of exp_m(m) on a space of finite total mass M.

    With w = (1 - s)/s and alpha = k^-m the embedding modular becomes
    Q(k) = int_0^z (s^-alpha - 1)(1 - s)^-2 ds, z = M/(M+1), so Q(k) = 1
    iff the series above equals M + 1.  It equals M at alpha = 0 and grows
    without bound as alpha -> 1, so bisection on alpha finds the root.
    At M = 1 this is the gauge equation of BETA0.
    """
    z = mass / (mass + 1.0)
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _exp_gauge(mid, z) > mass + 1.0:
            hi = mid
        else:
            lo = mid
    return (0.5 * (lo + hi)) ** (-1.0 / m)


# -- step functions ----------------------------------------------------------

def step_modular(N, pieces, k: float) -> float:
    return math.fsum(N(v / k) * m for v, m in pieces)


def step_weak_norm(inv, pieces, total_mass: float) -> float:
    """max_i t_i / N^{-1}(1/level_i), level_i = mass of {f >= t_i}."""
    best = 0.0
    for v, _ in pieces:
        level = math.fsum(m for w, m in pieces if w >= v)
        if level > total_mass:
            level = total_mass
        best = max(best, v / inv(1.0 / level))
    return best


def _bisect_root(N, pieces, lo: float, hi: float) -> float:
    """Bisect step_modular = 1 inside [lo, hi] down to the last bit."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if step_modular(N, pieces, mid) > 1.0:
            lo = mid
        else:
            hi = mid


def check_step_strong(k: float, N, pieces):
    """The modular is <= 1 at the returned k and > 1 just below it; the
    relative error is then taken against the root inside that bracket."""
    if not (0.0 < k < math.inf):
        return False, None, f"strong norm = {k!r}"
    at = step_modular(N, pieces, k)
    below = step_modular(N, pieces, k * BELOW)
    if at > 1.0 + 1e-12:
        return False, None, f"modular at the returned k={k!r} is {at!r} > 1"
    if not below > 1.0:
        return False, None, f"modular just below k={k!r} is {below!r} <= 1"
    # N(u)/u grows, so the modular falls at least like 1/k past k
    root = _bisect_root(N, pieces, k * BELOW, k * (1.0 + 1e-9))
    return True, rel_err(k, root), ""


# -- power tails min(1, t^-q) on unit mass -----------------------------------

def power_tail_strong(q: float, family: str, p: float) -> float:
    """Luxemburg norm of min(1, t^-q) under N; the modular under power(p)
    is q / ((q - p) k^p)."""
    if family != "power" or q <= p:
        return math.inf
    return (q / (q - p)) ** (1.0 / p)


def power_tail_weak(q: float, family: str, p: float) -> float:
    """Weak norm of min(1, t^-q): 1 under power(p) when q >= p, else +inf;
    +inf under exp_m and delta, which outgrow every power."""
    if family != "power" or q < p:
        return math.inf
    return 1.0


def coincident(family: str, mass: float):
    """Expected verdict: True/False, or None where it is disputed (delta)."""
    if family == "delta":
        return None
    return family == "exp_m" and math.isfinite(mass)
