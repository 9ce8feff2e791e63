"""The analytic weak norm against the full-grid sampler it replaced.

``_full_grid_sup`` below is the sampler that evaluated g at every grid
node and rescanned the whole grid at each decade it added, kept verbatim
as a reference.  ``weak_norm`` reads T at neither the plateau nor the
zero run of the grid, skips every interior node whose bound from an
earlier node lies below the running maximum, and keeps no sample: it
sums up each stretch of nodes as it reads it, instead of rescanning.
On a nonincreasing tail it must return the same floats, value and
argmax.  Where the value is +inf, the cap certificate may prove it at a
node past the first grid that the climb reaches later or never; there
the argmax is a node whose g exceeds 2^64.

Its trace is held to frozen values too: which nodes it reads
(``evaluations``), where the maximum and the plateau and zero runs lie,
on the explicit examples, on one input per op class of the
analytic-norms benchmark workload, and on ``weak_corpus``, 117 inputs
frozen from the sampler that kept the whole grid as one list.  The
first grid's nodes come from a table, which must hold the floats the
grid computed before.
"""

import math
import random
import sys
from typing import Callable, Optional, Tuple

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from orlicz.embedding import extremal_function
from orlicz.norms import _FIRST_NODES, NORM_CAP, weak_norm
from orlicz.tails import AnalyticTail, TailRepFunction, step_tail
from orlicz.young import (YoungFunction, custom_young, delta_young, exp_young, make_young,
                          power_young)

_GRID_PER_DECADE = 20  # weak-norm sample nodes t = 10^(j/20)
_GRID_FIRST = (-15 * _GRID_PER_DECADE, 16 * _GRID_PER_DECADE)  # t in [1e-15, 1e16]
_GRID_LIMIT = 300 * _GRID_PER_DECADE  # the grid grows by decades up to t = 1e+-300
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_FLOAT_MAX = sys.float_info.max


def _full_grid_sup(g: Callable[[float], float],
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


def weak_ratio(N, f, t):
    """g(t) = t / N^{-1}(1/min(T(t), mass)) of an analytic tail, 0 where T is 0."""
    try:
        level = f.tail.value(t)
    except OverflowError:
        level = math.inf
    if level == 0.0:
        return 0.0
    u = N.inverse(1.0 / min(level, f.total_mass, _FLOAT_MAX))
    return t / u if u > 0.0 else math.inf


def reference_weak_norm(N, f, rel_tol=1e-12):
    """(value, argmax_t) of the analytic weak norm through the full-grid sampler."""
    value, argmax, _ = _full_grid_sup(lambda t: weak_ratio(N, f, t), rel_tol)
    return value, argmax


def power_tail(M, c, q, cutoff=math.inf):
    """min(M, c t^-q), and 0 beyond ``cutoff``."""
    return AnalyticTail(lambda t: 0.0 if t > cutoff else min(M, c * t ** -q))


def two_level_tail(low):
    """1 on (0, 1], ``low`` on (1, 1e3], 0 beyond."""
    return AnalyticTail(lambda t: 1.0 if t <= 1.0 else (low if t <= 1e3 else 0.0))


def stretched_exp_tail(s, a):
    """exp(-(t/s)^a)."""
    return AnalyticTail(lambda t: math.exp(-((t / s) ** a)))


YOUNG = st.one_of(
    st.floats(1.1, 4.0).map(power_young),
    st.floats(0.5, 4.0).map(exp_young),
    st.floats(1.2, 3.0).map(delta_young),
)
MASS = st.one_of(st.floats(1e-3, 1e3), st.just(math.inf))
LOG_SCALE = st.floats(-6.0, 6.0)
TAIL = st.one_of(
    st.builds(lambda M, c, q: power_tail(M, 10.0 ** c, q),
              st.floats(1e-3, 1e3) | st.just(math.inf), LOG_SCALE, st.floats(0.5, 6.0)),
    st.builds(lambda M, c, q, b: power_tail(M, 10.0 ** c, q, 10.0 ** b),
              st.floats(1e-3, 1e3) | st.just(math.inf), LOG_SCALE, st.floats(0.5, 6.0),
              st.floats(-10.0, 12.0)),
    st.builds(lambda s, a: stretched_exp_tail(10.0 ** s, a), LOG_SCALE, st.floats(0.2, 4.0)),
)


# the explicit examples of the property test below, by name
EXAMPLES = {
    # q < p: g = t^(1 - q/p) grows until 1/T overflows, so the grid grows a
    # decade at a time up to t = 1.4e176.  g stays below 2^64 there, so the
    # cap certificate's 9 probes past t = 1e16 prove nothing and the grid runs
    # as without them.  The value falls in the known class "weak norm finite,
    # +inf exact"; only agreement is asserted.
    "q-below-p": (power_young(1.852), power_tail(1.0, 1.0, 1.75), 1.0),
    "q-below-p-infinite-mass": (power_young(2.0), power_tail(1.0, 1.0, 1.5), math.inf),
    "cut-power": (exp_young(2.0), power_tail(math.inf, 1.0, 2.0, 1e6), math.inf),
    "gaussian": (delta_young(2.0), stretched_exp_tail(1.0, 2.0), 0.5),
    # g falls fast past the plateau, so nearly every interior node is skipped
    "steep": (power_young(1.5), power_tail(1.0, 1.0, 6.0), 1.0),
    # g rises up to 1/T overflowing: the result is +inf, proven by the cap
    # certificate's probe at t = 1e24 (the decade-by-decade climb reached
    # 2^64 at t = 1e21)
    "overflow": (exp_young(2.0), power_tail(1.0, 1.0, 3.0), 1.0),
    # g = t/100 past the plateau: it dips to 0.01 and rises again to 10 at
    # t = 1e3, so a run of skipped nodes must end before the rise
    "dip-and-rise": (power_young(2.0), two_level_tail(1e-4), 1.0),
    # 1/T overflows on (1, 1e3]: u = +inf and g = 0 inside the interior
    "interior-inf": (power_young(2.0), two_level_tail(1e-310), 1.0),
    # the same past t = 10 on infinite mass, with no plateau and no zero run
    "interior-inf-infinite-mass": (
        power_young(2.0),
        AnalyticTail(lambda t: min(1.0, t ** -3.0) if t <= 10.0 else 1e-320),
        math.inf),
    # N(u) = u, so g(t) = t T(t): 3 up to rounding at and below the first
    # grid's first node t = 1e-15, and 1.5 past it.  The grid grows below
    # 1e-15, where interior samples tie with the largest one, and a tie in a
    # stretch added below moves the centre down
    "tie-below-grid": (
        custom_young(lambda u: u, lambda w: w, lambda u: 1.0),
        AnalyticTail(lambda t: 3.0 / t if t <= 1e-15 else 1.5 / t),
        math.inf),
}


def with_examples(test):
    for N, tail, mass in EXAMPLES.values():
        test = example(N=N, tail=tail, mass=mass)(test)
    return test


@seed(19)
@settings(max_examples=150, deadline=None)
@given(N=YOUNG, tail=TAIL, mass=MASS)
@with_examples
def test_weak_norm_matches_the_full_grid(N, tail, mass):
    f = TailRepFunction(tail, mass)
    r = weak_norm(N, f)
    value, argmax = reference_weak_norm(N, f)
    assert r.value == value
    if value < math.inf:
        assert r.trace["argmax_t"] == argmax
    else:
        # +inf may be proven at another node: the cap certificate's probes
        # past the first grid find a sample above 2^64 before the climb does
        assert weak_ratio(N, f, r.trace["argmax_t"]) > NORM_CAP


def test_runs_are_reported_where_they_exist():
    N = power_young(2.0)
    r = weak_norm(N, TailRepFunction(power_tail(1.0, 1.0, 3.0), 1.0))
    assert r.trace["plateau_end_t"] == 1.0 and r.trace["zero_start_t"] is None
    f = TailRepFunction(stretched_exp_tail(1.0, 1.0), 1.0)
    r = weak_norm(N, f)
    z = r.trace["zero_start_t"]
    assert r.trace["plateau_end_t"] is None
    # the first grid node where exp(-t) underflows to 0
    assert f.tail.value(z) == 0.0 < f.tail.value(z / 10.0 ** (1.0 / _GRID_PER_DECADE))
    r = weak_norm(N, TailRepFunction(power_tail(1.0, 1.0, 3.0, 10.0), 1.0))
    assert r.trace["plateau_end_t"] == 1.0
    assert r.trace["zero_start_t"] == 10.0 ** (21.0 / _GRID_PER_DECADE)
    r = weak_norm(N, step_tail([(2.0, 0.5)], 1.0))
    assert r.trace["plateau_end_t"] is None and r.trace["zero_start_t"] is None


@pytest.mark.parametrize("tail, sup_on_grid", [
    # g = 1/t below 1.05e-16, then 1.06e31 t up to 1.01e-15, then 0
    (lambda t: t ** -4.0 if t <= 1.05e-16 else (1.1236e62 if t <= 1.01e-15 else 0.0),
     1.0706e16),
    # g = t up to 1.01e16, then 0.0977 t up to 1e18, then 0
    (lambda t: 1.0 if t <= 1.01e16 else (10.0 ** -2.02 if t <= 1e18 else 0.0), 1.01e16),
], ids=["low", "high"])
def test_dip_past_an_end_node(tail, sup_on_grid):
    # the end node of the first grid is the largest sample, so the grid grows
    # by a decade there; the new end node lies below the old one and above
    # every other sample, so the growth stops only if the old end node is
    # counted among the interior samples.  The larger values of g past the
    # dip are not seen, as documented.
    f = TailRepFunction(AnalyticTail(tail), math.inf)
    r = weak_norm(power_young(2.0), f)
    assert (r.value, r.trace["argmax_t"]) == reference_weak_norm(power_young(2.0), f)
    assert r.value == pytest.approx(sup_on_grid, rel=1e-12)


def _extremal(N):
    return N, extremal_function(N, 1.0)


def _power_law(N, q):
    return N, TailRepFunction(power_tail(1.0, 1.0, q), 1.0)


# one fixed input per op class of the analytic-norms benchmark workload; a
# strong norm computes this weak norm first, as its lower bound
OP_CLASSES = {
    "power/extremal/strong": _extremal(power_young(2.5)),
    "power/extremal/weak": _extremal(power_young(3.5)),
    "power/power-tail/strong": _power_law(power_young(2.0), 3.1),
    "power/power-tail/weak": _power_law(power_young(3.0), 4.5),
    "exp_m/extremal/strong": _extremal(exp_young(2.0)),
    "exp_m/extremal/weak": _extremal(exp_young(3.5)),
    "exp_m/power-tail/strong": _power_law(exp_young(1.5), 2.5),
    "exp_m/power-tail/weak": _power_law(exp_young(2.0), 3.0),
    "delta/extremal/strong": _extremal(delta_young(2.0)),
    "delta/extremal/weak": _extremal(delta_young(2.5)),
    "delta/power-tail/strong": _power_law(delta_young(1.8), 4.0),
    "delta/power-tail/weak": _power_law(delta_young(2.2), 1.5),
}
CASES = {**{name: (N, TailRepFunction(tail, mass))
            for name, (N, tail, mass) in EXAMPLES.items()}, **OP_CLASSES}

# (value, evaluations, argmax_t, plateau_end_t, zero_start_t) of each case,
# frozen from the sampler that noted every node's sample one at a time; the
# +inf rows and the reads of q-below-p since frozen again with the cap
# certificate (its probes count as reads)
FROZEN = {
    "q-below-p": (5027138896.230971, 3348, 1.3981435017170464e+176, 1.0, None),
    "q-below-p-infinite-mass": (math.inf, 25, 1e+80, None, None),
    "cut-power": (134519.899690101, 79, 1000000.0, None, 1122018.4543019629),
    "gaussian":
        (0.46670011814168394, 80, 1.040960881375559, 0.7943282347242815, 28.183829312644534),
    "steep": (1.0, 78, 1.0, 1.0, None),
    "overflow": (math.inf, 21, 1e+24, 1.0, None),
    "dip-and-rise": (10.0, 74, 1000.0, 1.0, 1122.018454301963),
    "interior-inf": (1.0, 74, 1.0, 1.0, 1122.018454301963),
    "interior-inf-infinite-mass": (1.0, 375, 1.0, None, None),
    "tie-below-grid": (3.0000000000000004, 181, 1e-15, None, None),
    "power/extremal/strong": (1.0, 384, 1.0, 1.0, None),
    "power/extremal/weak": (1.000000000000002, 384, 354813389233576.06, 1.0, None),
    "power/power-tail/strong": (1.0, 85, 1.0, 1.0, None),
    "power/power-tail/weak": (1.0, 87, 1.0, 1.0, None),
    "exp_m/extremal/strong": (1.0, 99, 1.2589254117941673, 1.1220184543019633, 39.810717055349734),
    "exp_m/extremal/weak": (1.0000000000000002, 85, 3.9810717055349722, 1.2589254117941673, 10.0),
    "exp_m/power-tail/strong": (math.inf, 21, 1e+24, 1.0, None),
    "exp_m/power-tail/weak": (math.inf, 21, 1e+24, 1.0, None),
    "delta/extremal/strong":
        (1.0000000000000018, 293, 79432823.47242822, 1.2589254117941673, 316227766016.83795),
    "delta/extremal/weak":
        (1.0000000000000007, 183, 3981.0717055349733, 1.2589254117941673, 1000000.0),
    "delta/power-tail/strong": (math.inf, 22, 1e+32, 1.0, None),
    "delta/power-tail/weak": (math.inf, 21, 1e+24, 1.0, None),
}


@pytest.mark.parametrize("name", list(CASES))
def test_sampler_reads_the_same_nodes(name):
    r = weak_norm(*CASES[name])
    t = r.trace
    got = (r.value, t["evaluations"], t["argmax_t"], t["plateau_end_t"], t["zero_start_t"])
    assert got == FROZEN[name]


def _tail(fn, mass):
    return TailRepFunction(AnalyticTail(fn), mass)


def weak_corpus():
    """(name, N, f): at least 100 analytic weak norms, in a fixed order."""
    rng = random.Random(28)
    cases = []
    # the analytic-norms op classes (a strong norm off power runs this weak
    # norm first) over the benchmark's parameter ranges and three masses
    for fam, lo, hi in (("power", 1.5, 4.0), ("exp_m", 1.0, 4.0), ("delta", 1.5, 3.0)):
        for mass in (0.25, 1.0, 4.0):
            for _ in range(3):
                par = rng.uniform(lo, hi)
                N = make_young(fam, par)
                cases.append((f"{fam}({par!r})/extremal/mass={mass}", N,
                              extremal_function(N, mass)))
            for _ in range(4):
                par, q = rng.uniform(lo, hi), rng.uniform(1.2, 6.0)
                cases.append((f"{fam}({par!r})/min({mass}, t^-{q!r})", make_young(fam, par),
                              _tail(lambda t, q=q, M=mass: min(M, t ** -q), mass)))
    # the high end grows: q < p, up to where T underflows or the tail is cut
    for p, q, cut in ((1.852, 1.75, math.inf), (3.0, 2.9, math.inf), (2.5, 2.0, 1e20),
                      (4.0, 1.5, 1e40)):
        cases.append((f"power({p})/min(1, t^-{q}) cut at {cut:g}", power_young(p),
                      _tail(lambda t, q=q, c=cut: 0.0 if t > c else min(1.0, t ** -q), 1.0)))
    # the low end grows on infinite mass: q > p, with and without a level cap
    for p, q, top in ((2.0, 2.1, math.inf), (1.5, 3.0, 1e30), (3.0, 4.5, 1e60)):
        cases.append((f"power({p})/min({top:g}, t^-{q}) on infinite mass", power_young(p),
                      _tail(lambda t, q=q, c=top: min(c, t ** -q), math.inf)))
    # seeded tails of the weak-grid property test's families
    young = (lambda: power_young(rng.uniform(1.1, 4.0)),
             lambda: exp_young(rng.uniform(0.5, 4.0)),
             lambda: delta_young(rng.uniform(1.2, 3.0)))
    for k in range(30):
        N = young[k % 3]()
        mass = math.inf if k % 4 == 0 else 10.0 ** rng.uniform(-3.0, 3.0)
        kind = k % 3
        c, q = 10.0 ** rng.uniform(-6.0, 6.0), rng.uniform(0.5, 6.0)
        if kind == 0:
            M = min(mass, 10.0 ** rng.uniform(-3.0, 3.0))
            fn = lambda t, M=M, c=c, q=q: min(M, c * t ** -q)
        elif kind == 1:
            M, b = min(mass, 10.0 ** rng.uniform(-3.0, 3.0)), 10.0 ** rng.uniform(-10.0, 12.0)
            fn = lambda t, M=M, c=c, q=q, b=b: 0.0 if t > b else min(M, c * t ** -q)
        else:
            a = rng.uniform(0.2, 4.0)
            fn = lambda t, c=c, a=a: math.exp(-((t / c) ** a))
        cases.append((f"seeded-{k}", N, _tail(fn, mass)))
    # flat g: extremal functions at the grid's ends of the mass range
    for N in (power_young(2.0), exp_young(2.0), delta_young(2.0)):
        for mass in (1e-6, 1e6, math.inf):
            cases.append((f"{N.family}(2)/extremal/mass={mass:g}", N, extremal_function(N, mass)))
    # an all-zero grid, and a tail that is 0 past the first node
    cases.append(("zero", power_young(2.0), _tail(lambda t: 0.0, 1.0)))
    cases.append(("zero-past-1e-15", exp_young(2.0),
                  _tail(lambda t: 1.0 if t <= 1e-15 else 0.0, 1.0)))
    # plateaus where u(cap) is 0 (g = +inf on all of them) or t / u(cap)
    # overflows part of the way
    cases.append(("u-cap-zero-infinite-mass", exp_young(0.5),
                  _tail(lambda t: t ** -400.0, math.inf)))
    cases.append(("u-cap-zero-mass-1e308", exp_young(0.5),
                  _tail(lambda t: min(1e308, 1e308 * t ** -3.0) if t <= 1e3 else 0.0, 1e308)))
    cases.append(("plateau-overflows", exp_young(1.0),
                  _tail(lambda t: 1e308 if t <= 100.0 else (1e300 if t <= 1e3 else 0.0), 1e308)))
    # tied largest samples: g = 1 at the plateau end 1 and at the read node
    # 1e3; at the read nodes 10 and 100; and at 1e-15, the first grid's end,
    # and 1e-16, the end of the decade it grows by, so the first largest
    # sample in ascending t (1e-16) is not the argmax (1e-15)
    cases.append(("tie-in-one-grid", power_young(2.0),
                  _tail(lambda t: 1.0 if t <= 1.0 else (1e-6 if t <= 1e3 else 0.0), 1.0)))
    cases.append(("tie-across-decades", power_young(2.0),
                  _tail(lambda t: (1.0000000000000002e32 if t <= 1e-16 else 1e30 if t <= 1e-15
                                   else 1e30 * (t / 1e-15) ** -3.0), math.inf)))
    cases.append(("tie-between-reads", power_young(2.0),
                  _tail(lambda t: 1e-2 if t <= 10.0 else (1e-4 if t <= 100.0 else 1e-300), 1.0)))
    return cases


# (value, evaluations, argmax_t, plateau_end_t, zero_start_t) of each case of
# ``weak_corpus``, frozen from the sampler that kept the whole grid as one
# list: the plateau and skipped runs filled in, the largest sample found by
# ``max`` and ``index`` over it
FROZEN_CORPUS = {
    'power(1.7823929254404076)/extremal/mass=0.25':
        (1.0, 377, 2.2387211385683394, 1.9952623149688795, None),
    'power(1.8271304172585812)/extremal/mass=0.25':
        (1.0, 377, 2.2387211385683394, 1.9952623149688795, None),
    'power(2.9931522256153027)/extremal/mass=0.25':
        (1.000000000000003, 379, 5623413251903491.0, 1.5848931924611136, None),
    'power(1.9451135588140525)/min(0.25, t^-1.8359842528558143)':
        (2628469739.958657, 3179, 7.873453647821158e+167, 1.9952623149688795, None),
    'power(2.660246390172418)/min(0.25, t^-3.2043262557120897)':
        (0.9153187304265921, 97, 1.5413090514693029, 1.4125375446227544, None),
    'power(2.033322862243577)/min(0.25, t^-3.080050605399869)':
        (0.7931844819828511, 85, 1.568450480176282, 1.4125375446227544, None),
    'power(3.60565984165691)/min(0.25, t^-1.8292907812500836)':
        (math.inf, 23, 1e+48, 1.9952623149688795, None),
    'power(1.968965511791928)/extremal/mass=1.0':
        (1.0000000000000022, 384, 1412537544622755.5, 1.0, None),
    'power(1.5694910512678224)/extremal/mass=1.0':
        (1.000000000000001, 384, 8912509381337441.0, 1.0, None),
    'power(2.0997177412648473)/extremal/mass=1.0': (1.0, 384, 1.0, 1.0, None),
    'power(1.7374629195852789)/min(1.0, t^-5.926752015276499)': (1.0, 78, 1.0, 1.0, None),
    'power(2.2863878774741204)/min(1.0, t^-5.94725006194032)': (1.0, 79, 1.0, 1.0, None),
    'power(1.823595817692407)/min(1.0, t^-5.539200208170538)': (1.0, 78, 1.0, 1.0, None),
    'power(2.7661337576755587)/min(1.0, t^-4.5147540708619935)': (1.0, 84, 1.0, 1.0, None),
    'power(3.1555439084271404)/extremal/mass=4.0':
        (1.0, 386, 0.7079457843841379, 0.6309573444801932, None),
    'power(2.1767188312930252)/extremal/mass=4.0':
        (1.0000000000000002, 388, 0.7079457843841379, 0.5011872336272722, None),
    'power(2.0813841320120092)/extremal/mass=4.0':
        (1.0, 388, 0.5623413251903491, 0.5011872336272722, None),
    'power(3.1986485281763115)/min(4.0, t^-1.8308424067516507)':
        (math.inf, 23, 1e+48, 0.44668359215096315, None),
    'power(1.533084525439591)/min(4.0, t^-4.901051805650046)':
        (1.8615235163024386, 79, 0.7536279255456597, 0.7079457843841379, None),
    'power(3.082598475284586)/min(4.0, t^-2.448543587159815)':
        (math.inf, 1132, 1e+94, 0.5623413251903491, None),
    'power(2.8008530351075693)/min(4.0, t^-5.567584416138985)':
        (1.2788490243819635, 83, 0.7795847563140881, 0.7079457843841379, None),
    'exp_m(1.8367281494807357)/extremal/mass=0.25':
        (1.0000000000000002, 97, 3.9810717055349722, 1.7782794100389228, 50.11872336272722),
    'exp_m(1.37145730650187)/extremal/mass=0.25':
        (1.0, 106, 2.8183829312644537, 1.7782794100389228, 158.48931924611142),
    'exp_m(2.2517120440183676)/extremal/mass=0.25':
        (1.0000000000000002, 92, 3.9810717055349722, 1.5848931924611136, 28.183829312644534),
    'exp_m(1.502618302452198)/min(0.25, t^-2.9669172788580025)':
        (math.inf, 21, 1e+24, 1.5848931924611136, None),
    'exp_m(1.097864808797587)/min(0.25, t^-4.865958088722665)':
        (math.inf, 22, 1e+24, 1.2589254117941673, None),
    'exp_m(3.4194232632554162)/min(0.25, t^-2.993515139562218)':
        (math.inf, 21, 1e+24, 1.5848931924611136, None),
    'exp_m(2.132592993917505)/min(0.25, t^-2.43601648223044)':
        (math.inf, 21, 1e+24, 1.5848931924611136, None),
    'exp_m(3.8616407823462393)/extremal/mass=1.0':
        (1.0000000000000002, 85, 3.1622776601683795, 1.2589254117941673, 7.943282347242816),
    'exp_m(3.6332180314739566)/extremal/mass=1.0':
        (1.0000000000000002, 85, 1.7782794100389228, 1.2589254117941673, 8.912509381337454),
    'exp_m(2.987184010539436)/extremal/mass=1.0':
        (1.0000000000000002, 91, 5.011872336272722, 1.2589254117941673, 14.12537544622754),
    'exp_m(1.5248585320322907)/min(1.0, t^-2.0273484817270604)': (math.inf, 21, 1e+24, 1.0, None),
    'exp_m(3.301906658422297)/min(1.0, t^-2.1108212739016565)': (math.inf, 21, 1e+24, 1.0, None),
    'exp_m(3.0656358942844077)/min(1.0, t^-3.2209787587384584)': (math.inf, 21, 1e+24, 1.0, None),
    'exp_m(1.0931624223763283)/min(1.0, t^-2.1488310120607474)': (math.inf, 21, 1e+24, 1.0, None),
    'exp_m(3.7400267786384473)/extremal/mass=4.0':
        (1.0000000000000002, 87, 6.309573444801933, 0.8912509381337456, 8.912509381337454),
    'exp_m(1.967094675276021)/extremal/mass=4.0':
        (1.0000000000000002, 101, 1.4125375446227544, 0.6309573444801932, 39.810717055349734),
    'exp_m(3.023921937334974)/extremal/mass=4.0':
        (1.0000000000000002, 92, 7.943282347242816, 0.7943282347242815, 12.589254117941675),
    'exp_m(3.2848729840562436)/min(4.0, t^-3.113184682355886)':
        (math.inf, 22, 1e+24, 0.6309573444801932, None),
    'exp_m(2.497377108373046)/min(4.0, t^-5.328857307993737)':
        (math.inf, 22, 1e+24, 0.7079457843841379, None),
    'exp_m(3.181049827453417)/min(4.0, t^-3.700579054572019)':
        (math.inf, 22, 1e+24, 0.6309573444801932, None),
    'exp_m(2.633987064448105)/min(4.0, t^-3.351570352380115)':
        (math.inf, 22, 1e+24, 0.6309573444801932, None),
    'delta(2.139791877857591)/extremal/mass=0.25':
        (1.0000000000000053, 248, 79432823.47242822, 2.2387211385683394, 1995262314.9688828),
    'delta(2.5065458985107156)/extremal/mass=0.25':
        (1.0000000000000009, 179, 15848.93192461114, 2.2387211385683394, 891250.9381337459),
    'delta(1.8654216468209561)/extremal/mass=0.25':
        (1.0000000000000004, 349, 58.906417667922796, 2.51188643150958, 398107170553496.94),
    'delta(2.7982538929728964)/min(0.25, t^-2.6129215646124946)':
        (math.inf, 21, 1e+24, 1.5848931924611136, None),
    'delta(1.8469870005107478)/min(0.25, t^-5.825696827174444)':
        (math.inf, 23, 1e+32, 1.2589254117941673, None),
    'delta(1.522666224489)/min(0.25, t^-3.1541286237515385)':
        (math.inf, 23, 1e+48, 1.4125375446227544, None),
    'delta(2.3288558861501496)/min(0.25, t^-3.3113015462473)':
        (math.inf, 21, 1e+24, 1.4125375446227544, None),
    'delta(2.7442573590234596)/extremal/mass=1.0':
        (1.0000000000000009, 160, 15848.93192461114, 1.2589254117941673, 56234.13251903491),
    'delta(2.5102882294559934)/extremal/mass=1.0':
        (1.0000000000000009, 183, 15848.93192461114, 1.2589254117941673, 891250.9381337459),
    'delta(2.256393401939232)/extremal/mass=1.0':
        (1.0000000000000009, 222, 3794.718868545204, 1.2589254117941673, 89125093.8133746),
    'delta(1.5053360385631074)/min(1.0, t^-5.926320592944715)':
        (9.763717530978111e+17, 457, 1.0339965284940455e+52, 1.0, None),
    'delta(2.0482207314026297)/min(1.0, t^-2.927149167727187)': (math.inf, 22, 1e+32, 1.0, None),
    'delta(1.8293839216656032)/min(1.0, t^-2.1429650028935274)': (math.inf, 22, 1e+32, 1.0, None),
    'delta(1.653938799563845)/min(1.0, t^-1.8305505437257759)': (math.inf, 22, 1e+32, 1.0, None),
    'delta(2.5087484305169836)/extremal/mass=4.0':
        (1.0000000000000009, 186, 15848.93192461114, 0.7079457843841379, 891250.9381337459),
    'delta(1.9444024250395089)/extremal/mass=4.0':
        (1.0000000000000002, 325, 2.2387211385683394, 0.5623413251903491, 4466835921509.635),
    'delta(2.2662792720673917)/extremal/mass=4.0':
        (1.0000000000000018, 224, 11864440.74314657, 0.6309573444801932, 70794578.43841374),
    'delta(2.478872576137159)/min(4.0, t^-1.54610152791474)':
        (math.inf, 22, 1e+24, 0.3981071705534972, None),
    'delta(2.6400188144004515)/min(4.0, t^-2.132372337730219)':
        (math.inf, 21, 1e+24, 0.5011872336272722, None),
    'delta(2.7072597465032833)/min(4.0, t^-5.461845269928273)':
        (math.inf, 22, 1e+24, 0.7079457843841379, None),
    'delta(2.1765723545816758)/min(4.0, t^-2.733650920859314)':
        (math.inf, 21, 1e+24, 0.5623413251903491, None),
    'power(1.852)/min(1, t^-1.75) cut at inf':
        (5027138896.230971, 3348, 1.3981435017170464e+176, 1.0, None),
    'power(3.0)/min(1, t^-2.9) cut at inf':
        (3492.6707739760604, 1975, 1.9711946120914907e+106, 1.0, None),
    'power(2.5)/min(1, t^-2.0) cut at 1e+20':
        (9999.99999999998, 157, 1e+20, 1.0, 1.1220184543019654e+20),
    'power(4.0)/min(1, t^-1.5) cut at 1e+40': (math.inf, 22, 1e+32, 1.0, None),
    'power(2.0)/min(inf, t^-2.1) on infinite mass':
        (21847310.926864035, 2788, 1.6294468895305063e-147, 1.5848931924610719e-147, None),
    'power(1.5)/min(1e+30, t^-3.0) on infinite mass': (9999999999.999973, 177, 1e-10, None, None),
    'power(3.0)/min(1e+60, t^-4.5) on infinite mass':
        (4641588.833612742, 119, 4.6415888336128294e-14, None, None),
    'seeded-0': (12.605784482739464, 385, 3.9433929432323542, None, None),
    'seeded-1':
        (0.0018610613145733689, 73, 0.003345472119172144, 0.0031622776601683794, 0.0035481338923357532),
    'seeded-2': (0.9903294767107804, 377, 1.7721265401789066, None, 14.12537544622754),
    'seeded-3': (math.inf, 1056, 1e+94, None, None),
    'seeded-4': (1.1130528208563633e-09, 74, 2.2978213253664036e-09, None, 2.511886431509582e-09),
    'seeded-5': (15.735150890688775, 401, 27.563923908890434, None, 316.22776601683796),
    'seeded-6': (math.inf, 23, 1e+32, None, None),
    'seeded-7':
        (0.0021177351122649434, 73, 0.0033940688273993, 0.0031622776601683794, 0.0035481338923357532),
    'seeded-8': (0.00014697859143581905, 297, 0.0002606122687475259, None, 0.0025118864315095794),
    'seeded-9': (0.8579433119294859, 225, 5.1602752161424, None, None),
    'seeded-10':
        (1.520313927999675e-07, 74, 3.266484703518216e-07, 3.162277660168379e-07, 3.548133892335753e-07),
    'seeded-11': (20.595146936191238, 79, 38.20539120476094, 35.48133892335755, 398.1071705534973),
    'seeded-12': (math.inf, 25, 1e+80, None, None),
    'seeded-13': (1080.3389566163305, 76, 16770.096310707013, 100.0, 17782.794100389227),
    'seeded-14':
        (2.756843730746189e-05, 78, 9.268217349792968e-05, 8.912509381337459e-05, 0.00707945784384138),
    'seeded-15': (7.828480299928451, 249, 5.046410068922515, None, None),
    'seeded-16': (397976016.55128694, 77, 2281403136.9184237, None, 2511886431.509582),
    'seeded-17': (273017.65954683296, 244, 825014.2069577804, None, 63095734.448019296),
    'seeded-18': (0.059753742918548285, 79, 0.35660903893355, 0.35481338923357547, None),
    'seeded-19': (6.491096559857535e-10, 74, 2.47888127697137e-09, None, 2.511886431509582e-09),
    'seeded-20': (0.00165599323958406, 144, 0.0032753357075560154, None, 0.028183829312644536),
    'seeded-21': (2.849418890569993, 84, 4.012651575808566, 3.9810717055349722, None),
    'seeded-22': (1498.811511495655, 114, 5.138494351318416, None, 1258.9254117941675),
    'seeded-23':
        (0.020705138455306638, 75, 0.357330013268561, 0.35481338923357547, 2.51188643150958),
    'seeded-24': (10.586615918962567, 1524, 1.0975305151854986e+82, None, None),
    'seeded-25': (11380172158.63257, 76, 49750828399.94975, None, 50118723362.72715),
    'seeded-26': (967.6548505114433, 242, 2867.4868063649315, None, 199526.2314968879),
    'seeded-27': (0.06743193300911475, 336, 0.17457049001384942, None, None),
    'seeded-28': (3.796714689226552e-05, 74, 0.0001274149844637938, None, 0.0001412537544622754),
    'seeded-29': (211.8178633358824, 77, 977.1663958333146, 891.2509381337459, 7943.282347242814),
    'power(2)/extremal/mass=1e-06': (1.0000000000000002, 321, 1995.2623149688789, 1000.0, None),
    'power(2)/extremal/mass=1e+06': (1.0000000000000002, 441, 0.22387211385683395, 0.001, None),
    'power(2)/extremal/mass=inf': (1.0000000000000002, 678, 7.943282347242822e-14, None, None),
    'exp_m(2)/extremal/mass=1e-06':
        (1.0, 85, 5.623413251903491, 5.011872336272722, 39.810717055349734),
    'exp_m(2)/extremal/mass=1e+06':
        (1.0000000000000002, 152, 0.0025118864315095794, 0.001412537544622754, 39.810717055349734),
    'exp_m(2)/extremal/mass=inf':
        (1.0000000000000002, 396, 7.943282347242822e-14, None, 39.810717055349734),
    'delta(2)/extremal/mass=1e-06':
        (1.0000000000000018, 260, 79432823.47242822, 39.810717055349734, 316227766016.83795),
    'delta(2)/extremal/mass=1e+06':
        (1.0000000000000018, 356, 79432823.47242822, 0.001, 316227766016.83795),
    'delta(2)/extremal/mass=inf':
        (1.0000000000000018, 590, 79432823.47242822, None, 316227766016.83795),
    'zero': (0.0, 65, None, None, 1e-15),
    'zero-past-1e-15': (8.493218002880192e-16, 79, 1e-15, 1e-15, 1.1220184543019653e-15),
    'u-cap-zero-infinite-mass': (math.inf, 22, 1e-15, 0.15848931924611134, 7.079457843841379),
    'u-cap-zero-mass-1e308': (math.inf, 70, 1e-15, 1.0, 1122.018454301963),
    'plateau-overflows': (math.inf, 18, 1.9952623149688795, 100.0, 1122.018454301963),
    'tie-in-one-grid': (1.0, 74, 1.0, 1.0, 1122.018454301963),
    'tie-across-decades': (1.0000000000000002, 94, 1e-15, None, None),
    'tie-between-reads': (1.0, 389, 10.0, None, None),
}


@pytest.mark.parametrize("name, N, f", weak_corpus(), ids=[c[0] for c in weak_corpus()])
def test_corpus_matches_the_frozen_sampler(name, N, f):
    r = weak_norm(N, f)
    t = r.trace
    got = (r.value, t["evaluations"], t["argmax_t"], t["plateau_end_t"], t["zero_start_t"])
    assert got == FROZEN_CORPUS[name]


def test_first_grid_node_table():
    assert list(_FIRST_NODES) == [10.0 ** (j / 20) for j in range(-300, 321)]


def test_a_class_wrapper_on_inverse_sees_every_evaluation(monkeypatch):
    # the benchmark tracer counts inverse evaluations by replacing
    # YoungFunction.inverse on the class; the analytic weak norm looks the
    # method up on N once per call, after the wrapper is in place
    own = []
    N = custom_young(lambda u: u ** 3, lambda w: own.append(w) or w ** (1.0 / 3.0),
                     lambda u: 3.0 * u * u, "cube")
    own.clear()  # the round-trip check of custom_young
    seen = []
    inverse = YoungFunction.inverse

    def counted(self, w):
        seen.append(w)
        return inverse(self, w)

    monkeypatch.setattr(YoungFunction, "inverse", counted)
    # +inf by the cap certificate's probes, then a finite norm by the grid
    weak_norm(N, TailRepFunction(power_tail(1.0, 1.0, 2.0), 1.0))
    weak_norm(N, TailRepFunction(power_tail(1.0, 1.0, 4.0), 1.0))
    assert seen == own and len(own) > 10
