"""The analytic weak norm against the full-grid sampler it replaced.

``_full_grid_sup`` below is the sampler that evaluated g at every grid
node and rescanned the whole grid at each decade it added, kept verbatim
as a reference.  ``weak_norm`` fills the plateau and zero runs of the
grid in closed form, skips every interior node whose bound from an
earlier node lies below the running maximum, and keeps a running maximum
instead of rescanning; on a nonincreasing tail it must return the same
floats, value and argmax.  Where the value is +inf, the cap certificate
may prove it at a node past the first grid that the climb reaches later
or never; there the argmax is a node whose g exceeds 2^64.

Its trace is held to frozen values too: which nodes it reads
(``evaluations``), where the maximum and the plateau and zero runs lie,
on the explicit examples and on one input per op class of the
analytic-norms benchmark workload.  The first grid's nodes come from a
table, which must hold the floats the grid computed before.
"""

import math
import sys
from typing import Callable, Optional, Tuple

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from orlicz.embedding import extremal_function
from orlicz.norms import _FIRST_NODES, NORM_CAP, weak_norm
from orlicz.tails import AnalyticTail, TailRepFunction, step_tail
from orlicz.young import YoungFunction, custom_young, delta_young, exp_young, power_young

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
