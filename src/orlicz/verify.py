"""Self-verification suites: every headline number and invariant, rechecked.

Each check produces a record (id, claim, expected, computed, tol, pass);
suites are deterministic for a fixed seed and never consult wall-clock
state, so two runs emit byte-identical reports.
"""

from __future__ import annotations

import math
import random
from dataclasses import astuple, dataclass, replace
from typing import Callable, Dict, List, Tuple

from .embedding import (
    COINCIDENT,
    NON_COINCIDENT,
    _k0_search,
    coincidence_criterion,
    embedding_modular,
    embedding_constant,
    embedding_report,
    extremal_function,
)
from .errors import NotDominated
from .expfamily import (
    GAUGE_SLOPE,
    critical_alpha,
    exp_embedding_constant,
    exp_embedding_modular,
    gauge_quadrature,
    gauge_series,
    gauge_slope_at_zero,
)
from .norms import coupling_check, luxemburg_norm, modular, weak_norm
from .tails import AnalyticTail, TailRepFunction, step_tail
from .young import YoungFunction, delta_young, exp_young, power_young

__all__ = [
    "CheckRecord",
    "VerifyReport",
    "run_suite",
    "SUITES",
    "DEFAULT_SEED",
    "random_step_pieces",
]

DEFAULT_SEED = 20230814

ORACLE_GRID_M = (1.0, 1.5, 2.0, 3.0, 5.0)
ORACLE_GRID_K = (1.2, 1.5, 2.0, 3.0)

# Frozen mpmath constants, copied from tests/oracle_values.py, which states
# how each was computed; none comes from this library.
#
# alpha*(M): the alpha in (0, 1) at which the embedding modular of exp_m is
# 1 on total mass M, so that k0[exp_m(m), M] = alpha*(M)^(-1/m).  With
# z = M/(M+1) it solves z^(1-alpha)/(1-alpha) 2F1(2, 1-alpha; 2-alpha; z)
# = M + 1, by bisection and ``findroot`` at 80 digits (again at 50, agreeing
# to 6.6e-28), rounded to the nearest double.  At M = 1 it is BETA0, the root
# of gauge(alpha) = 2, 0.43187054767151416293543853026... at 50 digits.
EXP_ALPHA_STAR = {
    0.25: 0.5521884650836356,
    1.0: 0.43187054767151417,
    4.0: 0.3167157865022013,
}
BETA0 = EXP_ALPHA_STAR[1.0]
# k0 of delta(2) by total mass: the mpmath ``findroot`` root of
# int_{t0}^inf N(t/k) |d 1/N(t)| = 1, t0 = N^{-1}(1/mass), at 30 digits,
# with the integral taken in L = ln(1 + t) and split at L0, L0 + 1/2,
# L0 + 1, 2, 4, ..., 128 (tanh-sinh quadrature).
DELTA2_K0 = {
    0.25: 1.9806971263250566,
    1.0: 2.2372639976900167,
    4.0: 2.5412224429593426,
}


# the columns of a check's CSV row and the keys of its JSON object; the
# claim is written as "anchor"
_COLUMNS = ("id", "anchor", "expected", "computed", "tol", "pass")


@dataclass(frozen=True)
class CheckRecord:
    id: str
    claim: str
    expected: str
    computed: str
    tol: str
    passed: bool

    def row(self) -> List[str]:
        return [*astuple(self)[:-1], "pass" if self.passed else "FAIL"]


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    seed: int
    records: Tuple[CheckRecord, ...]

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.records if r.passed)

    @property
    def n_fail(self) -> int:
        return len(self.records) - self.n_pass

    def to_dict(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "checks": [dict(zip(_COLUMNS, astuple(r))) for r in self.records],
            "summary": {
                "total": len(self.records),
                "passed": self.n_pass,
                "failed": self.n_fail,
            },
        }

    def csv_rows(self) -> List[List[str]]:
        return [list(_COLUMNS)] + [r.row() for r in self.records]


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


class _Collector:
    def __init__(self):
        self.records: List[CheckRecord] = []

    def add(self, cid, claim, expected, computed, tol, passed):
        self.records.append(
            CheckRecord(cid, claim, _fmt(expected), _fmt(computed), _fmt(tol), bool(passed))
        )

    def close(self, cid, claim, expected, computed, tol):
        err = abs(computed - expected)
        self.add(cid, claim, expected, computed, tol, err <= tol)

    def within(self, cid, claim, worst, tol):
        """A check that the worst error over its cases is at most tol (expected "<= 1e-8")."""
        bound = f"{tol:g}".replace("e-0", "e-")
        self.add(cid, claim, f"<= {bound}", worst, tol, worst <= tol)

    def holds(self, cid, claim, ok):
        """A check of a property: ok is True."""
        self.add(cid, claim, True, ok, "-", ok)


# ---------------------------------------------------------------------------
# seeded generators shared with the property tests


def random_step_pieces(rng: random.Random, max_pieces: int = 8) -> List[Tuple[float, float]]:
    """Pieces of a simple function with total mass strictly below 1."""
    n = rng.randint(1, max_pieces)
    budget = rng.uniform(0.05, 0.95)
    raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
    scale = budget / sum(raw)
    return [
        (10.0 ** rng.uniform(-3.0, 3.0), r * scale)
        for r in raw
    ]


def _random_dominated_pair(rng: random.Random):
    pieces = random_step_pieces(rng, max_pieces=5)
    f = step_tail(pieces, 1.0)
    scale = rng.uniform(1.0, 4.0)
    g_pieces = [(v * scale, m) for v, m in pieces]
    spare = 1.0 - sum(m for _, m in pieces)
    if spare > 0.02 and rng.random() < 0.5:
        g_pieces.append((10.0 ** rng.uniform(-3.0, 3.0), spare * rng.uniform(0.1, 0.9)))
    g = step_tail(g_pieces, 1.0)
    return f, g


# ---------------------------------------------------------------------------
# suites


def _suite_expfamily(col: _Collector, seed: int) -> None:
    a0 = critical_alpha(1e-10)
    col.add(
        "EF-01", "gauge(alpha)=2 root near 0.431870", "[0.431865, 0.431875]",
        a0, "interval", 0.431865 <= a0 <= 0.431875,
    )
    col.close("EF-02", "gauge residual at the root", 2.0, gauge_series(a0), 1e-10)
    col.close("EF-03", "gauge(0) = 1", 1.0, gauge_series(0.0), 1e-12)
    quad, analytic = gauge_slope_at_zero()
    col.close("EF-04", "int |ln z|/(1-z)^2 over (0,1/2) = 2 ln 2", analytic, quad, 1e-8)
    col.close(
        "EF-05", "small-alpha slope of the gauge matches 2 ln 2",
        GAUGE_SLOPE, (gauge_series(1e-4) - 1.0) / 1e-4, 1e-3,
    )
    worst = max(
        abs(gauge_series(i * 0.9 / 49.0) - gauge_quadrature(i * 0.9 / 49.0))
        for i in range(50)
    )
    col.within("EF-06", "series vs quadrature on [0, 0.9], 50 points", worst, 1e-8)
    grid = [0.02 + 0.96 * i / 39.0 for i in range(40)]
    vals = [gauge_series(a) for a in grid]
    increasing = all(b > a for a, b in zip(vals, vals[1:]))
    col.holds("EF-07", "gauge strictly increasing on (0,1)", increasing)
    lb_ok = all(
        gauge_series(a) > 2.0 ** (a - 1.0) / (1.0 - a) for a in grid
    )
    col.holds("EF-08", "gauge exceeds its half-interval lower bound", lb_ok)
    asym = gauge_quadrature(0.999)
    col.add(
        "EF-09", "gauge(0.999) within 10% of 1/(1-0.999)",
        1000.0, asym, "10%", abs(asym - 1000.0) <= 100.0,
    )
    k100 = exp_embedding_constant(100.0)
    col.add(
        "EF-10", "embedding constant of exp_m(100) below 1.01",
        "< 1.01", k100, "-", k100 < 1.01,
    )


def _families() -> List[Tuple[str, YoungFunction]]:
    return [
        ("power(2)", power_young(2.0)),
        ("exp_m(2)", exp_young(2.0)),
        ("delta(2)", delta_young(2.0)),
    ]


def _power_tail(q: float) -> TailRepFunction:
    """min(1, t^-q) on unit mass."""
    return TailRepFunction(AnalyticTail(lambda t: min(1.0, t ** -q)), 1.0)


def _bounded_power_tail(M: float, c: float, q: float, b: float) -> TailRepFunction:
    """min(M, c t^-q) 1[t < b] on mass M (c t^-q 1[t < b] where M is +inf)."""
    return TailRepFunction(
        AnalyticTail(lambda t: min(M, c * t ** -q) if t < b else 0.0), M)


def _bounded_power_modular(p: float, M: float, c: float, q: float, b: float) -> float:
    """The modular of ``_bounded_power_tail`` at k = 1 under power(p), in closed form.

    It is int_0^b p t^(p-1) min(M, c t^-q) dt.  The plateau ends at
    t1 = (c/M)^(1/q) (0 on infinite mass, where q < p); past it the
    integrand is p c t^(r-1), r = p - q, whose integral up to b is
    p c t1^r expm1(r ln(b/t1)) / r, exact also for r near 0.  At scale k
    the modular is this times k^-p, and the norm is its p-th root.
    """
    if M == math.inf:
        return p * c * b ** (p - q) / (p - q)
    t1 = (c / M) ** (1.0 / q)
    if t1 >= b:
        return M * b ** p
    r = p - q
    x = math.log(b / t1)
    return M * t1 ** p + p * c * t1 ** r * (math.expm1(r * x) / r if r != 0.0 else x)


# (M, c, q, b) of NR-08: the tail cut at b = 300 whose modular read 21.0
# where the closed form is 9.6938, a steep and a shallow tail, q = 2 (the
# log case under power(2)), a cut below t = 1, an indicator (t1 >= b), and
# three tails on infinite mass, one of them cut below t = 1
_BOUNDED_TAILS = (
    (1.0, 1.0, 2.1, 300.0),
    (4.0, 1.0, 3.5, 1e9),
    (0.5, 2.0, 0.8, 1e4),
    (1.0, 1.0, 2.0, 50.0),
    (0.5, 0.1, 2.5, 0.8),
    (1.0, 1.0, 3.0, 0.7),
    (math.inf, 1.0, 0.5, 1e6),
    (math.inf, 3.0, 1.0, 40.0),
    (math.inf, 2.0, 1.2, 0.05),
)


def _suite_norms(col: _Collector, seed: int) -> None:
    rng = random.Random(seed)
    worst_gap = -math.inf
    for name, N in _families():
        for _ in range(200):
            f = step_tail(random_step_pieces(rng), 1.0)
            w = weak_norm(N, f).value
            s = luxemburg_norm(N, f).value
            gap = w - s
            if gap > worst_gap:
                worst_gap = gap
    col.within(
        "NR-01", "weak norm never exceeds strong norm (200 random step fns x 3 families)",
        worst_gap, 1e-8,
    )

    worst_rel = 0.0
    for name, N in _families():
        for _ in range(50):
            pieces = random_step_pieces(rng, max_pieces=5)
            c = 10.0 ** rng.uniform(-3.0, 3.0)
            f = step_tail(pieces, 1.0)
            fc = step_tail([(v * c, m) for v, m in pieces], 1.0)
            for norm in (luxemburg_norm, weak_norm):
                base = norm(N, f).value
                scaled = norm(N, fc).value
                rel = abs(scaled - c * base) / (c * base)
                worst_rel = max(worst_rel, rel)
    col.within(
        "NR-02", "norms are absolutely homogeneous (both kinds, 50 fns x 3 families)",
        worst_rel, 1e-9,
    )

    worst_id = 0.0
    for _ in range(200):
        pieces = random_step_pieces(rng)
        N = exp_young(2.0)
        k = max(1.0, max(v for v, _ in pieces) / 3.0)
        direct = sum(N(v / k) * m for v, m in pieces)
        through_tail = modular(N, step_tail(pieces, 1.0), k).require_finite()
        if direct > 0.0:
            worst_id = max(worst_id, abs(direct - through_tail) / direct)
    col.within(
        "NR-03", "modular through the tail equals the direct sum (200 step fns)",
        worst_id, 1e-12,
    )

    coupling_ok = True
    for _ in range(100):
        f, g = _random_dominated_pair(rng)
        try:
            rep = coupling_check(exp_young(2.0), f, g)
        except NotDominated:
            coupling_ok = False
            break
        coupling_ok = coupling_ok and rep.holds
    col.holds("NR-04", "dominated tails give dominated modulars (100 generated pairs)", coupling_ok)

    worst_ind = 0.0
    for name, N in _families():
        for a in (0.1, 0.5, 1.0):
            closed = 1.0 / N.inverse(1.0 / a)
            f = step_tail([(1.0, a)], 1.0)
            s = luxemburg_norm(N, f).value
            w = weak_norm(N, f).value
            worst_ind = max(worst_ind, abs(s - closed), abs(w - closed))
    col.within("NR-05", "indicator norms coincide and equal 1/N^{-1}(1/a)", worst_ind, 1e-8)

    worst_unit = 0.0
    for name, N in _families():
        for mass in (0.25, 1.0, 4.0):
            # an untagged copy: the extremal function itself reads 1 with no grid
            tail = extremal_function(N, mass).tail
            f = TailRepFunction(AnalyticTail(tail.fn, tail.label), mass)
            worst_unit = max(worst_unit, abs(weak_norm(N, f).value - 1.0))
    for p in (1.5, 2.0, 3.0):
        for gap in (1e-3, 0.5, 2.0):
            q = p + gap
            worst_unit = max(worst_unit, abs(weak_norm(power_young(p), _power_tail(q)).value - 1.0))
    col.within(
        "NR-06", "analytic weak norms equal 1: extremal fns (3 families x masses 0.25, 1, 4)"
        " and min(1, t^-q) under power(p), p in {1.5, 2, 3}, q - p in {1e-3, 0.5, 2}",
        worst_unit, 1e-12,
    )

    worst_strong = 0.0
    for p in (1.5, 2.0, 3.0):
        for gap in (0.5, 2.0):
            q = p + gap
            closed = (q / gap) ** (1.0 / p)
            s = luxemburg_norm(power_young(p), _power_tail(q)).value
            worst_strong = max(worst_strong, abs(s - closed) / closed)
    infinite = all(
        luxemburg_norm(N, _power_tail(q)).value == math.inf
        for N in (exp_young(2.0), delta_young(2.0))
        for q in (2.0, 4.0, 6.0)
    )
    col.add(
        "NR-07", "analytic strong norms: min(1, t^-q) under power(p) equals (q/(q-p))^(1/p),"
        " p in {1.5, 2, 3}, q - p in {0.5, 2}; +inf under exp_m(2) and delta(2), q in {2, 4, 6}",
        "<= 1e-12; +inf: True", f"{worst_strong!r}; +inf: {infinite}", 1e-12,
        worst_strong <= 1e-12 and infinite,
    )

    worst_bounded = 0.0
    for p in (1.5, 2.0, 3.0):
        for M, c, q, b in _BOUNDED_TAILS:
            N, f = power_young(p), _bounded_power_tail(M, c, q, b)
            closed = _bounded_power_modular(p, M, c, q, b)
            for k in (0.5, 1.0, 2.0):
                r, exact = modular(N, f, k), k ** -p * closed
                err = abs(r.value - exact) / exact if r.is_finite else math.inf
                worst_bounded = max(worst_bounded, err)
            norm = closed ** (1.0 / p)
            worst_bounded = max(worst_bounded, abs(luxemburg_norm(N, f).value - norm) / norm)
    col.within(
        "NR-08", "bounded support: min(M, c t^-q) 1[t < b] under power(p), p in {1.5, 2, 3},"
        " on 6 finite and 3 infinite masses: modular at k in {0.5, 1, 2} and strong norm"
        " equal their closed forms",
        worst_bounded, 1e-12,
    )


def _suite_embedding(col: _Collector, seed: int) -> None:
    rng = random.Random(seed + 1)

    worst = 0.0
    for m in ORACLE_GRID_M:
        N = exp_young(m)
        for k in ORACLE_GRID_K:
            generic = embedding_modular(N, k, 1.0).require_finite()
            closed = exp_embedding_modular(m, k)
            worst = max(worst, abs(generic - closed))
    col.within(
        "EM-01", "generic embedding modular matches the exp-family closed form (5x4 grid)",
        worst, 1e-6,
    )

    k0_2 = embedding_constant(exp_young(2.0), 1.0)
    col.close("EM-02", "embedding constant of exp_m(2) equals BETA0^(-1/2) (mpmath)",
              BETA0 ** -0.5, k0_2, 1e-12)
    worst_delta = 0.0
    for mass, k0 in DELTA2_K0.items():
        computed = embedding_constant(delta_young(2.0), mass)
        worst_delta = max(worst_delta, abs(computed - k0) / k0)
    col.within(
        "EM-03", "embedding constant of delta(2) matches mpmath on masses 0.25, 1, 4 (rel)",
        worst_delta, 1e-12,
    )

    worst_k0 = 0.0
    k0_by_m = {}
    for m in (1.5, 2.0, 3.0):
        for mass, alpha in EXP_ALPHA_STAR.items():
            k0 = embedding_constant(exp_young(m), mass)
            if mass == 1.0:
                k0_by_m[m] = k0
            worst_k0 = max(worst_k0, abs(k0 - alpha ** (-1.0 / m)))
    col.within(
        "EM-04", "generic embedding constant matches alpha*(M)^(-1/m) (mpmath),"
        " m in {1.5, 2, 3}, masses 0.25, 1, 4",
        worst_k0, 1e-12,
    )

    worst_att = 0.0
    for m in (1.5, 2.0, 3.0):
        N = exp_young(m)
        k0 = k0_by_m[m]
        lux = luxemburg_norm(N, extremal_function(N, 1.0)).value
        worst_att = max(worst_att, abs(lux - k0) / k0)
    col.within(
        "EM-05", "strong norm of the extremal function attains the constant (rel)",
        worst_att, 1e-12,
    )

    cls_ok = True
    details = []
    for p in (1.5, 2.0, 4.0):
        rep = embedding_report(power_young(p), 1.0)
        ok = rep.verdict == NON_COINCIDENT and rep.classifier_agreement == "agreed"
        cls_ok = cls_ok and ok
        details.append(f"power({p:g})={rep.verdict}/{rep.classifier_agreement}")
    for m in (1.0, 2.0, 3.0):
        rep = embedding_report(exp_young(m), 1.0)
        ok = rep.verdict == COINCIDENT and rep.classifier_agreement == "agreed"
        cls_ok = cls_ok and ok
        details.append(f"exp_m({m:g})={rep.verdict}/{rep.classifier_agreement}")
    col.add(
        "EM-06", "classification: power non-coincident, exp_m coincident, classifier concurring",
        "all agreed", "; ".join(details), "-", cls_ok,
    )

    repd = embedding_report(delta_young(2.0), 1.0)
    col.add(
        "EM-07", "delta(2) reported coincident", COINCIDENT, repd.verdict,
        "-", repd.verdict == COINCIDENT,
    )
    col.add(
        "EM-08", "delta(2): numeric classifier corroborates the analytic verdict",
        "agreed", repd.classifier_agreement, "-", repd.classifier_agreement == "agreed",
    )

    N2 = exp_young(2.0)
    ks = [1.05 + (50.0 - 1.05) * i / 19.0 for i in range(20)]
    qs = [embedding_modular(N2, k, 1.0).require_finite() for k in ks]
    dec = all(a > b for a, b in zip(qs, qs[1:]))
    col.holds("EM-09", "embedding modular strictly decreasing on (1.05, 50)", dec)
    q_low = embedding_modular(N2, 1.001, 1.0)
    big = q_low.is_divergent or q_low.value > 100.0
    col.add(
        "EM-10", "embedding modular at k=1.001 exceeds 100",
        "> 100", q_low.value if q_low.is_finite else "divergent", "-", big,
    )
    q_hi = embedding_modular(N2, 100.0, 1.0).require_finite()
    col.add("EM-11", "embedding modular at k=100 below 1e-3", "< 1e-3", q_hi, "-", q_hi < 1e-3)

    worst_lo = -math.inf
    worst_hi = -math.inf
    for _ in range(200):
        f = step_tail(random_step_pieces(rng), 1.0)
        w = weak_norm(N2, f).value
        s = luxemburg_norm(N2, f).value
        worst_lo = max(worst_lo, w - s)
        worst_hi = max(worst_hi, s - k0_2 * w * (1.0 + 1e-6))
    sandwich = worst_lo <= 1e-8 and worst_hi <= 1e-8
    col.holds("EM-12", "weak <= strong <= k0 * weak on 200 random step functions", sandwich)

    rep2 = embedding_report(N2, 1.0)
    halved = rep2.witness_constant is not None and embedding_modular(
        N2, 2.0 / rep2.witness_constant, 1.0
    ).is_finite
    col.holds("EM-13", "halving a finite-integral witness keeps the integral finite", halved)

    # exp_m reports take k0 from the closed form; delta still runs the
    # search, so the search is checked here against the closed form: the
    # k0 search runs on exp_m relabelled as a custom function, which keeps
    # its Q and its log form but not the closed-form branch
    worst_search = 0.0
    for m in (1.5, 2.0, 3.0, 150.0, 300.0):
        N = exp_young(m)
        searched = replace(N, family="custom")
        for mass in (0.25, 1.0, 4.0):
            trail = coincidence_criterion(N, mass).trail
            k0, _ = _k0_search(searched, mass, trail, [])
            closed = exp_embedding_constant(m, mass)
            worst_search = max(worst_search, abs(k0 - closed) / closed)
    col.within(
        "EM-14", "generic k0 search (crossing solver on the numeric Q) matches the closed form"
        " alpha*(M)^(-1/m), m in {1.5, 2, 3, 150, 300}, masses {0.25, 1, 4} (rel)",
        worst_search, 1e-12,
    )


SUITES: Dict[str, Callable[[_Collector, int], None]] = {
    "expfamily": _suite_expfamily,
    "norms": _suite_norms,
    "embedding": _suite_embedding,
}


def run_suite(suite: str = "all", seed: int = DEFAULT_SEED) -> VerifyReport:
    """Run one named suite (or all of them) and collect the records."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {['all'] + sorted(SUITES)}")
    col = _Collector()
    names = sorted(SUITES) if suite == "all" else [suite]
    for name in names:
        SUITES[name](col, seed)
    return VerifyReport(suite, seed, tuple(col.records))
