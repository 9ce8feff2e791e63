import heapq
import math
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError, astuple
from pathlib import Path

import pytest

import orlicz
from orlicz.errors import BudgetExceeded, Inconclusive, NoSignChange, NonConvergence, NonEvaluable
from orlicz.expfamily import gauge_quadrature
from orlicz.numerics import (
    _WG,
    _WG_CENTER,
    _WGK,
    _WGK_CENTER,
    _XGK,
    ABS_TOL,
    MAX_DEPTH,
    MAX_PANELS,
    NORM_CAP,
    NORM_REL_TOL,
    REL_TOL,
    SLOPE_MARGIN,
    FiniteOrDivergent,
    LadderPoint,
    LadderTrace,
    _adaptive_finite,
    _panel,
    _unit_crossing,
    find_root,
    integrate,
)

from oracle_values import BETA0, DELTA2_CRITERION_T_FORM, GAUGE, GAUGE_AT_SIX_DIGIT_ROOT, TWO_LN_TWO


def gauge_regular(z):
    return (1.0 - z) ** -2.0


class TestFiniteIntegrals:
    # the gauge's z^-alpha endpoint factor is substituted away by
    # gauge_quadrature before the kernel runs
    def test_doubling_point_integral(self):
        assert gauge_quadrature(BETA0) == pytest.approx(2.0, abs=1e-8)

    def test_six_digit_rounding_of_the_root(self):
        # the six-digit root no longer hits 2 exactly; the deviation is ~2.1e-6
        value = gauge_quadrature(0.431870)
        assert value == pytest.approx(GAUGE_AT_SIX_DIGIT_ROOT, abs=1e-8)
        assert abs(value - 2.0) > 1e-6

    def test_zero_integrand(self):
        assert integrate(lambda z: 0.0, 0.0, 1.0).value == 0.0

    def test_log_singularity(self):
        r = integrate(lambda z: abs(math.log(z)) * gauge_regular(z), 0.0, 0.5)
        assert r.value == pytest.approx(TWO_LN_TWO, abs=1e-8)

    def test_strong_endpoint_singularity(self):
        assert gauge_quadrature(0.999) == pytest.approx(GAUGE[0.999], rel=1e-9)

    def test_plain_polynomial(self):
        assert integrate(lambda z: z * z, 0.0, 1.0).value == pytest.approx(
            1.0 / 3.0, rel=1e-12, abs=0.0)

    def test_empty_interval_and_bad_bounds(self):
        assert integrate(lambda z: 1.0, 2.0, 2.0).value == 0.0
        with pytest.raises(ValueError):
            integrate(lambda z: 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            integrate(lambda z: 1.0, math.inf, math.inf)

    def test_nan_and_negative_raise(self):
        with pytest.raises(NonEvaluable):
            integrate(lambda z: float("nan"), 0.0, 1.0)
        with pytest.raises(NonEvaluable):
            integrate(lambda z: -1.0, 0.0, 1.0)

    def test_monotone_integrands_keep_order(self):
        small = integrate(lambda z: z, 0.0, 1.0).value
        large = integrate(lambda z: z + 0.25, 0.0, 1.0).value
        assert small <= large + 1e-12

    def test_partial_integrals_non_decreasing_in_cutoff(self):
        f = lambda w: w ** -2.0
        vals = [integrate(f, 1.0, b).value for b in (10.0, 100.0, 1000.0)]
        assert vals == sorted(vals)

    def test_determinism(self):
        a = integrate(lambda z: math.exp(-z) * abs(math.sin(3 * z)) ** 0.5, 0.0, 4.0).value
        b = integrate(lambda z: math.exp(-z) * abs(math.sin(3 * z)) ** 0.5, 0.0, 4.0).value
        assert repr(a) == repr(b)


class TestLowerLimit:
    """integrate's one rule for a: finite and non-negative."""

    @pytest.mark.parametrize("a, b", [(-1.0, 2.0), (-1.0, math.inf), (math.nan, 2.0),
                                      (-math.inf, 2.0)])
    def test_rejected(self, a, b):
        with pytest.raises(ValueError, match="lower limit must be finite and non-negative"):
            integrate(lambda t: 1.0, a, b)


class TestLoudFailures:
    """Each of the kernel's budgets and overflow checks, met on one input."""

    def test_panel_sum_overflow(self):
        # each sample is finite, the panel's weighted sum is not
        with pytest.raises(NonEvaluable, match="panel sum overflowed"):
            integrate(lambda t: 1.7e308, 0.0, 1.0)

    def test_panel_budget(self):
        # a square wave with 5,000 jumps on (0, 1): every jump takes panels
        with pytest.raises(BudgetExceeded, match=f"panel budget {MAX_PANELS} exhausted"):
            integrate(lambda t: float(math.floor(t * 5000.0) % 2), 0.0, 1.0)

    def test_oscillating_exponent_is_inconclusive_with_its_ladder(self):
        # in s = ln t the integrand is 1 + 0.9 sin(2s): the local exponent
        # swings across -1 from decade to decade, and the ladder says so
        with pytest.raises(Inconclusive, match="oscillates") as info:
            integrate(lambda t: (1.0 + 0.9 * math.sin(2.0 * math.log(t))) / t, 1.0, math.inf)
        trace = info.value.trace
        assert isinstance(trace, LadderTrace) and trace.points
        assert trace.note == "cutoff ladder exhausted without a verdict"


class TestSemiInfinite:
    def test_harmonic_tail_divergent(self):
        r = integrate(lambda w: 1.0 / w, 1.0, math.inf)
        assert r.is_divergent
        assert all(p.slope == pytest.approx(-1.0, abs=1e-12) for p in r.evidence.points)

    def test_inverse_square_tail(self):
        r = integrate(lambda w: w ** -2.0, 1.0, math.inf)
        assert r.is_finite
        assert r.value == pytest.approx(1.0, abs=1e-9)

    def test_tiny_amplitude_harmonic_still_divergent(self):
        r = integrate(lambda w: 1e-18 / w, 1.0, math.inf)
        assert r.is_divergent

    def test_exponential_decay(self):
        r = integrate(lambda w: math.exp(-w), 0.0, math.inf)
        assert r.value == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("c", [0.01, 1e-3, 1e-6])
    def test_support_below_the_first_decades(self, c):
        # the down ladder from 1 reads zeros on [c, 1]; they settle nothing
        # while the partial sum is 0, so it goes on to the support below c
        r = integrate(lambda t: 1.0 if t < c else 0.0, 0.0, math.inf)
        assert r.value == pytest.approx(c, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("c", [1e-11, 1e-13, 1e-20])
    def test_support_in_the_last_decades(self, c):
        # a support that begins in the sweep's last decades, or below them:
        # the sweep goes on while its partial sum is 0, and then takes its
        # usual decades from there
        r = integrate(lambda t: 1.0 if t < c else 0.0, 0.0, math.inf)
        assert r.value == pytest.approx(c, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("c", [100.0, 1e4])
    @pytest.mark.parametrize("a, b", [(1.0, math.inf), (0.0, math.inf), (1.0, 1e6)],
                             ids=["from 1", "from 0", "bounded"])
    def test_support_past_the_first_upward_decades(self, c, a, b):
        # 1[t > c] t^-2: the up ladder's probes at 10 and 100 read 0, which
        # settle nothing while the partial sum is 0; two of them once
        # settled the integral at 0
        r = integrate(lambda t: t ** -2.0 if t > c else 0.0, a, b)
        expected = 1.0 / c - (1.0 / b if b < math.inf else 0.0)
        assert r.value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_zero_on_every_decade(self):
        calls = []
        r = integrate(lambda t: calls.append(t) or 0.0, 0.0, math.inf)
        assert r.is_finite and r.value == 0.0
        # the down ladder sweeps its decades down to the end of the normal floats
        assert min(calls) < 1e-300

    def test_divergence_at_zero_endpoint(self):
        r = integrate(lambda w: 1.0 / w, 0.0, math.inf)
        assert r.is_divergent

    def test_slowly_divergent_vs_slowly_convergent(self):
        # w^(-1.02) sits inside the classifier dead band: flagged divergent
        assert integrate(lambda w: w ** -1.02, 1.0, math.inf).is_divergent
        # w^(-1.2) is safely outside and must come back finite(5)
        r = integrate(lambda w: w ** -1.2, 1.0, math.inf)
        assert r.value == pytest.approx(5.0, rel=1e-9)

    def test_delta_family_w_form_exhausts_ladder(self):
        # induced integrand of the delta(2) family at scale 1/2 in the
        # substituted form: decays like w^(-1 - c/sqrt(ln w)), which the
        # decade ladder can neither certify finite at tolerance nor flag
        # divergent (the local exponent stays below -1 - margin)
        def integrand(w):
            x = math.expm1(math.sqrt(math.log1p(w)))
            return math.expm1(math.log1p(x / 2.0) ** 2.0) / (w * w)

        with pytest.raises(BudgetExceeded) as err:
            integrate(integrand, 1.0, math.inf)
        slopes = [p.slope for p in err.value.trace.points if p.slope is not None]
        assert all(s < -1.0 - SLOPE_MARGIN for s in slopes[1:])

    def test_delta_family_t_form_is_finite(self):
        # the same integral written on the original axis decays like a
        # clean power t^(-1 - 2 ln k) and converges comfortably: the
        # criterion integral of delta(2) is genuinely finite for k > 1
        for k, expected in DELTA2_CRITERION_T_FORM.items():
            def integrand(t, k=k):
                L = math.log1p(t)
                Lk = math.log1p(t / k)
                if L * L > 60.0:
                    return math.exp(Lk * Lk - L * L) * 2.0 * L / (1.0 + t)
                n = math.expm1(L * L)
                npr = math.exp(L * L) * 2.0 * L / (1.0 + t)
                return math.expm1(Lk * Lk) * npr / (n * n)

            t0 = math.expm1(math.sqrt(math.log(2.0)))
            r = integrate(integrand, t0, math.inf)
            assert r.is_finite
            assert r.value == pytest.approx(expected, rel=1e-7)


class TestLogAxisAndBreaks:
    def test_power_tail_one_panel_per_decade(self):
        calls = []

        def f(t):
            calls.append(t)
            return t ** -1.5

        assert integrate(f, 1.0, math.inf).value == pytest.approx(2.0, rel=1e-12)
        # three probes and one 15-point panel on each of two decades
        assert len(calls) == 33

    def test_finite_upper_limit_ends_the_ladder(self):
        # past t = 1 a finite range runs the ladder up to b; slopes near -1
        # do not make a bounded range divergent
        assert integrate(lambda t: 1.0 / t, 1.0, 1e6).value == pytest.approx(
            math.log(1e6), rel=1e-13)
        assert integrate(lambda t: t ** -1.02, 1.0, 1e12).value == pytest.approx(
            (1.0 - 1e12 ** -0.02) / 0.02, rel=1e-13)
        # t^-1.5 settles after two decades, its remainder truncated at b:
        # the same 33 samples as on [1, inf)
        calls = []
        r = integrate(lambda t: calls.append(t) or t ** -1.5, 1.0, 1e9)
        assert r.value == pytest.approx(2.0 * (1.0 - 1e9 ** -0.5), rel=1e-13, abs=0.0)
        assert len(calls) == 33
        # from 0, the down ladder takes the power singularity below 1
        assert integrate(lambda t: t ** -0.5, 0.0, 100.0).value == pytest.approx(20.0, rel=1e-13)

    def test_declared_kink(self):
        # p t^(p-1) min(M, t^-q): the modular of a kinked power tail under
        # power(p), with the kink t1 = M^(-1/q) off the ladder's cutoffs
        p, q, M = 2.696, 4.4786, 0.9841
        t1 = M ** (-1.0 / q)
        exact = M * t1 ** p + p * t1 ** (p - q) / (q - p)
        r = integrate(lambda t: p * t ** (p - 1.0) * min(M, t ** -q), 0.0, math.inf,
                      breaks=(t1,))
        assert r.value == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_breaks_split_a_finite_interval(self):
        r = integrate(lambda t: abs(t - 1.0 / 3.0), 0.0, 1.0, breaks=(1.0 / 3.0,))
        assert r.value == pytest.approx(5.0 / 18.0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("breaks", [(0.0,), (-1.0,), (math.inf,), (math.nan,), (2.0, 1.0)])
    def test_bad_breaks_rejected(self, breaks):
        with pytest.raises(ValueError):
            integrate(lambda t: t ** -2.0, 1.0, math.inf, breaks=breaks)

    def test_non_evaluable_names_t(self):
        with pytest.raises(NonEvaluable) as err:
            integrate(lambda t: math.nan if t > 50.0 else t ** -2.0, 1.0, math.inf)
        assert float(str(err.value).rsplit("=", 1)[1]) > 50.0


def loop_panel(f, a, b):
    """The 7-15 panel as a loop over the node pairs, outermost first: the
    reference whose samples and sums ``numerics._panel`` writes out."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    resk = _WGK_CENTER * fc
    resg = _WG_CENTER * fc
    for i in range(7):
        dx = h * _XGK[i]
        v = f(c - dx) + f(c + dx)
        resk += _WGK[i] * v
        if i % 2 == 1:
            resg += _WG[i // 2] * v
    resk *= h
    resg *= h
    return resk, abs(resk - resg)


class TestPanel:
    def test_written_out_panel_is_the_loop_bit_for_bit(self):
        rng = random.Random(27)
        for _ in range(50):
            a = rng.uniform(-5.0, 5.0)
            b = a + 10.0 ** rng.uniform(-6.0, 2.0)
            amp, rate, freq, curv = (rng.uniform(0.1, 10.0) for _ in range(4))

            def f(x, seen):
                seen.append(x)
                return amp * math.exp(-rate * x * x) + abs(math.sin(freq * x)) + curv * x * x

            got_x, want_x = [], []
            got = _panel(lambda x: f(x, got_x), a, b)
            want = loop_panel(lambda x: f(x, want_x), a, b)
            assert got == want
            assert got_x == want_x


def heap_adaptive(f, a, b, abs_budget, breaks=()):
    """``numerics._adaptive_finite`` with no exit before its heap: the
    reference whose (value, error) the first-panel exit must give bit for
    bit, kept as the loop was written."""
    if b <= a:
        return 0.0, 0.0
    ends = [a, *(x for x in breaks if a < x < b), b]
    panels = []
    total = toterr = 0.0
    for pa, pb in zip(ends, ends[1:]):
        resk, err = _panel(f, pa, pb)
        panels.append([err, pa, pb, resk, 0])
        total += resk
        toterr += err
    # max-heap of (-error, index): ties go to the lowest index
    heap = [(-p[0], i) for i, p in enumerate(panels)]
    heapq.heapify(heap)
    while True:
        tol = max(abs_budget, REL_TOL * abs(total))
        if toterr <= tol:
            break
        worst = heap[0][1]
        perr, pa, pb, pval, pdepth = panels[worst]
        if pdepth >= MAX_DEPTH:
            raise BudgetExceeded(
                f"max subdivision depth {MAX_DEPTH} reached on [{pa!r}, {pb!r}]"
            )
        if len(panels) >= MAX_PANELS:
            raise BudgetExceeded(f"panel budget {MAX_PANELS} exhausted")
        mid = 0.5 * (pa + pb)
        if not (pa < mid < pb):
            raise BudgetExceeded(f"interval [{pa!r}, {pb!r}] no longer splittable")
        lval, lerr = _panel(f, pa, mid)
        rval, rerr = _panel(f, mid, pb)
        panels[worst] = [lerr, pa, mid, lval, pdepth + 1]
        heapq.heapreplace(heap, (-lerr, worst))
        heapq.heappush(heap, (-rerr, len(panels)))
        panels.append([rerr, mid, pb, rval, pdepth + 1])
        total += lval + rval - pval
        toterr += lerr + rerr - perr
    panels.sort(key=lambda p: p[1])
    value = 0.0
    errsum = 0.0
    for p in panels:
        value += p[3]
        errsum += p[0]
    return value, errsum


# (f, a, b, abs_budget, breaks, whether the first panels meet the tolerance)
ADAPTIVE_CASES = {
    "one panel": (lambda x: x ** 3 + 1.0, 0.0, 1.0, ABS_TOL, (), True),
    "one panel, wide": (math.exp, -1.0, 2.0, ABS_TOL, (), True),
    "breaks inside": (lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0, ABS_TOL, (1.0 / 3.0,), True),
    "breaks outside": (lambda x: x * x, 0.0, 1.0, ABS_TOL, (-1.0, 0.0, 1.0, 2.0), True),
    "breaks inside, refined": (lambda x: abs(x - 0.3), 0.0, 1.0, ABS_TOL, (0.5, 0.75), False),
    "refined": (math.sqrt, 0.0, 1.0, ABS_TOL, (), False),
    "peak": (lambda x: math.exp(-400.0 * (x - 0.37) ** 2), 0.0, 1.0, ABS_TOL, (), False),
    "absolute stop": (lambda x: 1e-6 * math.sqrt(x), 0.0, 1.0, 1e-12, (), False),
    "relative stop": (lambda x: 1e6 * math.sqrt(x), 0.0, 1.0, ABS_TOL, (), False),
}


class TestAdaptiveFinite:
    @pytest.mark.parametrize("case", sorted(ADAPTIVE_CASES))
    def test_matches_the_heap_loop_bit_for_bit(self, case):
        f, a, b, budget, breaks, exits = ADAPTIVE_CASES[case]
        got_x, want_x = [], []
        got = _adaptive_finite(lambda x: got_x.append(x) or f(x), a, b, budget, breaks)
        want = heap_adaptive(lambda x: want_x.append(x) or f(x), a, b, budget, breaks)
        assert got == want
        assert got_x == want_x
        first = 1 + sum(a < x < b for x in breaks)
        assert (len(got_x) == 15 * first) == exits
        value, err = got
        if case == "absolute stop":
            assert REL_TOL * abs(value) < budget and err <= budget
        if case == "relative stop":
            assert budget < err <= REL_TOL * abs(value)

    def test_seeded_integrands_match_the_heap_loop(self):
        rng = random.Random(30)
        exits = 0
        for _ in range(60):
            a = rng.uniform(-3.0, 3.0)
            b = a + 10.0 ** rng.uniform(-3.0, 1.0)
            breaks = sorted(rng.uniform(a - 1.0, b + 1.0) for _ in range(rng.randrange(4)))
            budget = 10.0 ** rng.uniform(-16.0, -6.0)
            amp, rate, kink = rng.uniform(0.1, 10.0), rng.uniform(0.1, 50.0), rng.uniform(a, b)

            def f(x):
                return amp * math.exp(-rate * (x - kink) ** 2) + abs(x - kink)

            got_x, want_x = [], []
            got = _adaptive_finite(lambda x: got_x.append(x) or f(x), a, b, budget, breaks)
            want = heap_adaptive(lambda x: want_x.append(x) or f(x), a, b, budget, breaks)
            assert got == want
            assert got_x == want_x
            exits += len(got_x) == 15 * (1 + sum(a < x < b for x in breaks))
        assert 0 < exits < 60

    def test_empty_log_segment_takes_no_sample(self, monkeypatch):
        # the last ladder cut of integrate(f, 0, b), b one float above 1e5,
        # has the log of the decade before it: that segment is empty
        segments = []

        def spy(g, a, b, *rest):
            segments.append((a, b))
            return _adaptive_finite(g, a, b, *rest)

        monkeypatch.setattr(orlicz.numerics, "_adaptive_finite", spy)
        b = math.nextafter(1e5, math.inf)
        assert integrate(lambda t: 1.0 if t <= 1e5 else 0.0, 0.0, b).is_finite
        assert segments[-1] == (math.log(1e5), math.log(b))
        assert _adaptive_finite(lambda x: 1 / 0, math.log(b), math.log(b), ABS_TOL) == (0.0, 0.0)


# the messages a bad sample raises, on the t-axis (the first sample of
# integrate(f, 0, 1) is at the centre 0.5), on the log axis (f is fine at the
# probe t = 1, and the first sample is at the centre of [ln 1, ln 10]) and at
# a probe of the ladder (t = 1)
LOG_AXIS_T = 3.1622776601683795
BAD_SAMPLES = {
    "nan": (math.nan, "integrand returned NaN at x={!r}"),
    "negative": (-1.0, "integrand returned a negative value -1.0 at x={!r}"),
    "inf": (math.inf, "integrand overflowed at x={!r}"),
}


class TestSampleChecks:
    @pytest.mark.parametrize("kind", sorted(BAD_SAMPLES))
    def test_t_axis(self, kind):
        bad, message = BAD_SAMPLES[kind]
        with pytest.raises(NonEvaluable) as err:
            integrate(lambda t: bad, 0.0, 1.0)
        assert str(err.value) == message.format(0.5)

    @pytest.mark.parametrize("kind", sorted(BAD_SAMPLES))
    def test_log_axis(self, kind):
        bad, message = BAD_SAMPLES[kind]
        with pytest.raises(NonEvaluable) as err:
            integrate(lambda t: 1.0 if t == 1.0 else bad, 1.0, math.inf)
        assert str(err.value) == message.format(LOG_AXIS_T)

    @pytest.mark.parametrize("kind", sorted(BAD_SAMPLES))
    def test_ladder_probe(self, kind):
        bad, message = BAD_SAMPLES[kind]
        with pytest.raises(NonEvaluable) as err:
            integrate(lambda t: bad if t == 1.0 else t ** -2.0, 1.0, math.inf)
        assert str(err.value) == message.format(1.0)

    def test_log_axis_product_overflow(self):
        # f(t) is a float, but f(t) t is not
        with pytest.raises(NonEvaluable) as err:
            integrate(lambda t: 1.0 if t == 1.0 else 1e308, 1.0, math.inf)
        assert str(err.value) == f"integrand times t overflowed at t={LOG_AXIS_T!r}"


class TestFindRoot:
    def test_sqrt_two(self):
        root = find_root(lambda x: x * x - 2.0, (1.0, 2.0), 1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_identity_root(self):
        assert find_root(lambda x: x, (-1.0, 1.0), 1e-12) == pytest.approx(0.0, abs=1e-12)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            find_root(lambda x: x * x + 1.0, (0.0, 1.0), 1e-9)

    def test_endpoint_root_returned_directly(self):
        assert find_root(lambda x: x - 1.0, (1.0, 2.0), 1e-9) == 1.0

    def test_bad_bracket_and_tol(self):
        with pytest.raises(ValueError):
            find_root(lambda x: x, (1.0, 1.0), 1e-9)
        with pytest.raises(ValueError):
            find_root(lambda x: x, (-1.0, 1.0), 0.0)

    def test_nan_mid_iteration_raises(self):
        ends = {-1.0: -1.0, 2.0: 2.0}
        with pytest.raises(NonEvaluable):
            find_root(lambda x: ends.get(x, math.nan), (-1.0, 2.0), 1e-12)

    def test_iteration_cap_raises(self):
        # a sign step gives no interpolation step, and bisecting to 1e-300
        # around 0 takes about a thousand halvings
        with pytest.raises(NonConvergence):
            find_root(lambda x: math.copysign(1.0, x), (-1.0, 3.0), 1e-300)

    def test_roots_match_scipy_brentq_bit_for_bit(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        rng = random.Random(11)
        families = (
            lambda a, c: lambda x: x ** 3 - a + c * math.sin(x),
            lambda a, c: lambda x: math.atan(c * (x - a)) + 0.1 * (x - a) ** 3,
            lambda a, c: lambda x: math.log(c * x * x + 1.0) - a * a,
        )
        checked = 0
        for i in range(3000):
            a, c = rng.uniform(-5.0, 5.0), rng.uniform(0.1, 3.0)
            g = families[i % 3](a, c)
            lo, hi = rng.uniform(-20.0, 0.0) - abs(a), rng.uniform(0.0, 20.0) + abs(a)
            if (g(lo) > 0.0) == (g(hi) > 0.0):
                continue
            tol = 10.0 ** rng.uniform(-16.0, -2.0)
            expected = brentq(g, lo, hi, xtol=tol, rtol=4.0 * sys.float_info.epsilon,
                              maxiter=200)
            assert find_root(g, (lo, hi), tol) == expected
            checked += 1
        assert checked > 1500


def _solve(f, start):
    """Run the crossing solver on a cached f; check its ends, return (lo, hi)."""
    seen = {}

    def cached(k):
        if k not in seen:
            seen[k] = f(k)
        return seen[k]

    lo, hi = _unit_crossing(cached, start)
    assert lo < hi
    assert lo == 0.0 or seen[lo] > 1.0
    assert hi == math.inf or seen[hi] <= 1.0
    return lo, hi


class TestUnitCrossing:
    @pytest.mark.parametrize("start", [0.01, 0.3, 1.0, 2.0, 7.0, 1e6])
    def test_inverse_square_from_either_side(self, start):
        lo, hi = _solve(lambda k: (2.0 / k) ** 2, start)
        assert hi == pytest.approx(2.0, rel=1e-15, abs=0.0)

    def test_infinite_below_one(self):
        f = lambda k: math.inf if k <= 1.0 else 0.25 / (k - 1.0)
        for start in (0.5, 2.0, 100.0):
            lo, hi = _solve(f, start)
            assert hi == pytest.approx(1.25, rel=1e-15, abs=0.0)

    def test_jump_from_infinite_stops_at_rel_tol(self):
        lo, hi = _solve(lambda k: math.inf if k < 1.3 else 0.5, 1.0)
        assert lo < 1.3 <= hi
        assert hi - lo <= NORM_REL_TOL * hi

    def test_zero_past_a_point(self):
        lo, hi = _solve(lambda k: max(0.0, 3.5 - k), 1.0)
        assert hi == pytest.approx(2.5, rel=1e-15, abs=0.0)

    def test_above_one_up_to_the_cap(self):
        assert _solve(lambda k: 2.0, 1.0) == (NORM_CAP, math.inf)

    def test_at_most_one_down_to_the_cap(self):
        lo, hi = _solve(lambda k: 0.5, 1.0)
        assert lo == 0.0 and hi <= 2.0 / NORM_CAP

    def test_not_exported(self):
        assert "_unit_crossing" not in orlicz.numerics.__all__


class TestLadderPoints:
    """The points of a returned or raised ladder trace are LadderPoints with
    the fields they always had, built past the frozen __init__."""

    def test_divergent_result(self):
        r = integrate(lambda t: t ** -1.04, 1.0, math.inf)
        assert r.is_divergent
        assert all(type(p) is LadderPoint for p in r.evidence.points)
        assert r.evidence.points == (
            LadderPoint(10.0, 0.09120108393559097, -1.04, 2.19972901610225),
            LadderPoint(100.0, 0.008317637711026709, -1.04, 4.205905722433212),
            LadderPoint(1000.0, 0.0007585775750291835, -1.04, 6.035560624270387),
        )
        point = r.evidence.points[0]
        assert repr(point) == repr(LadderPoint(*astuple(point)))
        assert hash(point) == hash(LadderPoint(*astuple(point)))
        with pytest.raises(FrozenInstanceError):
            point.value = 0.0

    def test_budget_exceeded_trace(self):
        # 1/(t ln(1 + t)^1.5) is integrable, but its slope creeps toward -1
        with pytest.raises(BudgetExceeded) as err:
            integrate(lambda t: 1.0 / (t * math.log(1.0 + t) ** 1.5), 1.0, math.inf)
        points = err.value.trace.points
        assert all(type(p) is LadderPoint for p in points)
        assert [(p.cutoff, p.value, p.slope, p.partial) for p in points] == [
            (10.0, 0.026931136598684607, -1.8085071257181302, 1.6459799216259476),
            (100.0, 0.0010086150178381195, -1.4265292523873103, 2.0229979484658362),
            (1000.0, 5.5068130504051524e-05, -1.262825097363926, 2.193806705268411),
            (10000.0, 3.5774980640272095e-06, -1.187320925550686, 2.295747408941615),
            (100000.0, 2.5598875879968873e-07, -1.1453585127974784, 2.3653205319440604),
            (1000000.0, 1.9473747932862662e-08, -1.11877135039232, 2.4166775752193796),
            (10000000.0, 1.5453590609019768e-09, -1.1004201413346997, 2.456592264489421),
            (100000000.0, 1.2648571675565976e-10, -1.0869879167784977, 2.4887665703984894),
            (1000000000.0, 1.0600166886817709e-11, -1.0767287833488604, 2.5154170195198753),
            (10000000000.0, 9.05058115446101e-13, -1.0686362358124064, 2.5379625071874714),
            (100000000000.0, 7.844900492509874e-14, -1.0620890277347654, 2.55735905171215),
            (1000000000000.0, 6.8850103567520366e-15, -1.056682841333866, 2.5742774390724037),
        ]


def test_ladder_trace_labels_cutoffs():
    trace = LadderTrace((LadderPoint(10.0, 0.1, -1.0, 1.0),), note="n")
    assert str(trace) == "n: [(cutoff=10, f=0.1, slope=-1.0)]"


def test_import_loads_neither_scipy_nor_numpy():
    src = str(Path(orlicz.__file__).resolve().parents[1])
    code = "import sys, orlicz; print(sorted({'scipy', 'numpy'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


class TestSpecValidation:
    def test_require_finite(self):
        with pytest.raises(ValueError):
            integrate(lambda w: 1.0 / w, 1.0, math.inf).require_finite()
        assert FiniteOrDivergent.finite(3.0).require_finite() == 3.0

    def test_finite_is_the_frozen_object_the_constructor_builds(self):
        import dataclasses

        r = FiniteOrDivergent.finite(2.5)
        built = FiniteOrDivergent("finite", value=2.5)
        assert r == built and hash(r) == hash(built) and repr(r) == repr(built)
        assert r.is_finite and not r.is_divergent and r.evidence is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.value = 1.0
