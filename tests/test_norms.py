import math
import random
import struct
import sys
from bisect import bisect_left

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from orlicz.descriptors import parse_descriptor
from orlicz.embedding import extremal_function
from orlicz.errors import NonConvergence, NonEvaluable, NotDominated
from orlicz.expfamily import exp_embedding_constant
from orlicz.numerics import integrate
from orlicz.norms import (
    _WEAK_ABOVE,
    _support_ends,
    coupling_check,
    lebesgue_norm,
    luxemburg_norm,
    modular,
    weak_norm,
)
from orlicz.tails import AnalyticTail, StepTail, TailRepFunction, chebyshev_tail, step_tail
from orlicz.verify import _bounded_power_modular, _bounded_power_tail
from orlicz.young import (YoungFunction, _power_family, custom_young, delta_young, exp_young,
                          power_young)

from oracle_values import (DELTA2_CRITERION_T_FORM, EXP05_EXTREMAL_L200, EXP2_EXTREMAL_L200,
                           EXP_EXTREMAL_L50, EXP_L200, INDICATOR_EXP2)


@pytest.fixture
def two_piece():
    return step_tail([(2.0, 0.3), (1.0, 0.5)], 1.0)


def random_steps(seed, count=40):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        pieces = [(10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(1e-3, 1.0 / 8))
                  for _ in range(rng.randint(1, 8))]
        out.append(step_tail(pieces, 1.0))
    return out


def power_start_cases():
    """(p, f): power tails min(1, t^-q), power extremal functions on three
    masses and random step tails, each with an exponent p in [1.5, 4]."""
    rng = random.Random(2021)
    cases = []
    for _ in range(120):
        p, q = rng.uniform(1.5, 4.0), rng.uniform(1.2, 6.0)
        cases.append((p, TailRepFunction(
            AnalyticTail(lambda t, q=q: min(1.0, t ** -q)), 1.0)))
    for mass in (0.25, 1.0, 4.0):
        for p in (1.5, 2.0, 3.0):
            cases.append((p, extremal_function(power_young(p), mass)))
    cases += [(rng.uniform(1.5, 4.0), f) for f in random_steps(2021)]
    return cases


FAMILIES = (power_young(2.0), exp_young(2.0), delta_young(2.0))


@pytest.fixture
def heavy():
    # tail of the canonical weak-but-not-strong function for power(2)
    return TailRepFunction(AnalyticTail(lambda t: min(1.0, t ** -2.0)), 1.0)


class TestModular:
    def test_exact_sum(self, two_piece):
        r = modular(power_young(2.0), two_piece, 1.0)
        assert r.value == pytest.approx(1.7, rel=1e-15, abs=0.0)

    def test_zero_function(self):
        assert modular(power_young(2.0), step_tail([], 1.0), 1.0).value == 0.0

    def test_heavy_tail_divergent(self, heavy):
        assert modular(power_young(2.0), heavy, 1.0).is_divergent

    def test_monotone_in_scale(self, two_piece):
        N = exp_young(2.0)
        ks = (0.5, 1.0, 2.0, 4.0)
        vals = [modular(N, two_piece, k).value for k in ks]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_analytic_matches_exact_for_smooth_tail(self):
        # T(t) = exp(-t) on mass 1: modular against power(2) is the second
        # moment 2 int t e^{-t} = 2, computable in closed form
        f = TailRepFunction(AnalyticTail(lambda t: math.exp(-t)), 1.0)
        r = modular(power_young(2.0), f, 1.0)
        assert r.value == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("name, k", [
        ("cubic", 0.05), ("cubic", 0.5), ("cubic", 1.0), ("extremal", 0.05),
    ])
    def test_integrand_overflow_is_divergent(self, name, k):
        # N'(t/k) outgrows the tail's decay until T(t) N'(t/k)/k overflows
        N = exp_young(2.0)
        f = {
            "cubic": TailRepFunction(AnalyticTail(lambda t: min(1.0, t ** -3.0), breaks=(1.0,)), 1.0),
            "extremal": extremal_function(N, 1.0),
        }[name]
        r = modular(N, f, k)
        assert r.is_divergent
        assert r.evidence.note.startswith("integrand overflow near t=")
        assert r.evidence.points == ()

    def test_scale_must_be_positive(self, two_piece):
        with pytest.raises(ValueError):
            modular(power_young(2.0), two_piece, 0.0)

    @pytest.mark.parametrize("N", [
        power_young(2.0), exp_young(2.0), delta_young(2.0),
        custom_young(lambda u: u ** 3, lambda w: w ** (1.0 / 3.0)),
    ], ids=["power", "exp_m", "delta", "custom"])
    def test_step_sum_evaluations_stay_visible(self, N, monkeypatch):
        # a wrapper on the class attribute, as a tracer installs it, must see
        # one evaluation per piece, and the sum must be the piecewise one
        seen = []
        plain = YoungFunction.__call__

        def counted(self, u):
            seen.append(u)
            return plain(self, u)

        f = step_tail([(0.25, 0.05), (0.5, 0.1), (1.0, 0.2), (2.0, 0.15), (3.0, 0.3)], 1.0)
        k = 1.5
        expected = 0.0
        for v, m in f.tail.pieces():
            expected += plain(N, v / k) * m
        monkeypatch.setattr(YoungFunction, "__call__", counted)
        r = modular(N, f, k)
        assert len(seen) == 5
        assert r.value == expected


class TestLuxemburgNorm:
    def test_indicator_closed_form(self):
        N = exp_young(2.0)
        for a, expected in INDICATOR_EXP2.items():
            r = luxemburg_norm(N, step_tail([(1.0, a)], 1.0))
            assert r.value == pytest.approx(expected, abs=1e-8)

    def test_zero_function(self):
        assert luxemburg_norm(exp_young(2.0), step_tail([], 1.0)).value == 0.0

    def test_heavy_tail_infinite(self, heavy):
        r = luxemburg_norm(power_young(2.0), heavy)
        assert r.value == math.inf
        assert "cap" in r.trace["note"]

    def test_modular_at_value_at_most_one(self, two_piece):
        for N in (power_young(2.0), exp_young(2.0), delta_young(2.0)):
            r = luxemburg_norm(N, two_piece)
            assert r.modular_at_value is not None
            assert r.modular_at_value <= 1.0 + 1e-9

    def test_modular_attains_one_for_continuous_modulars(self, two_piece):
        r = luxemburg_norm(exp_young(2.0), two_piece)
        assert r.modular_at_value == pytest.approx(1.0, abs=1e-9)

    def test_step_norm_is_the_last_feasible_scale(self):
        for N in FAMILIES:
            for f in random_steps(3, 15):
                r = luxemburg_norm(N, f)
                assert modular(N, f, r.value).value == r.modular_at_value <= 1.0
                assert modular(N, f, r.value * (1.0 - 1e-9)).value > 1.0

    @pytest.mark.parametrize("N", [exp_young(2.0), delta_young(2.0)], ids=["exp_m", "delta"])
    @pytest.mark.parametrize("q", [4.0, 6.0])
    def test_power_tail_infinite_under_exponential_families(self, N, q):
        # N'(t/k) outgrows every power of t, so the modular diverges at every
        # k; the weak norm is already +inf, and no modular is evaluated
        f = TailRepFunction(AnalyticTail(lambda t: min(1.0, t ** -q)), 1.0)
        r = luxemburg_norm(N, f)
        assert r.value == math.inf
        assert "cap" in r.trace["note"]
        assert r.trace["modular_evaluations"] == 0

    @pytest.mark.parametrize("N, q", [(exp_young(1.5), 2.5), (delta_young(1.8), 4.0)],
                             ids=["exp_m", "delta"])
    def test_weak_cap_is_certified_past_the_first_grid(self, N, q):
        # the weak norm's probes 1, 2, 4, ... decades past t = 1e16 pass 2^64
        # before the interior of the first grid is read; climbing the grid a
        # decade at a time took 58 and 131 calls of the tail callable
        seen = []
        f = TailRepFunction(AnalyticTail(lambda t: seen.append(t) or min(1.0, t ** -q)), 1.0)
        r = luxemburg_norm(N, f)
        assert r.value == math.inf
        assert r.trace["note"] == _WEAK_ABOVE
        assert r.trace["weak_lower_bound"] == math.inf
        assert len(seen) <= 30

    def test_power_divergence_settles_in_one_modular(self, heavy):
        # under power(p), modular(k) = k^-p modular(1): divergent at every k
        r = luxemburg_norm(power_young(2.0), heavy)
        assert r.value == math.inf
        assert r.trace["modular_evaluations"] <= 1

    @seed(23)
    @settings(max_examples=200)
    @given(p=st.floats(min_value=1.2, max_value=4.0),
           pieces=st.lists(st.tuples(st.floats(min_value=1e-3, max_value=1e3),
                                     st.floats(min_value=1e-3, max_value=1.0 / 36)),
                           min_size=1, max_size=36))
    def test_power_norm_is_the_lebesgue_norm(self, p, pieces):
        # under power(p) the closed form reads the norm off one modular, and
        # a float step or two past rounding settles it
        f = step_tail(pieces, 1.0)
        r = luxemburg_norm(power_young(p), f)
        expected = lebesgue_norm(f, p).value
        assert abs(r.value - expected) <= 4.0 * math.ulp(expected)
        assert r.trace["modular_evaluations"] <= 4
        assert r.modular_at_value == modular(power_young(p), f, r.value).value <= 1.0

    @pytest.mark.parametrize("p, f, exact", [
        (2.2, step_tail([(1.0, 1e-20)], 1.0), 8.111308307896884e-10),
        (3.7, step_tail([(1.0, 1e20)], 1e20), 254334.57613046476),
        (3.7, TailRepFunction(AnalyticTail(lambda t: 1e20 if t <= 1.0 else 0.0), 1e20),
         254334.57613046476),
    ], ids=["indicator-1e-20", "step-mass-1e20", "analytic-mass-1e20"])
    def test_power_norm_far_from_a_unit_modular(self, p, f, exact):
        # the modular at the start is 1e-20 or 1e20, so s modular(s)^(1/p) is
        # off by about |ln modular(s)| eps / p, more than 8 floats; the closed
        # form read again where the walk ends settles it.  exact = a^(1/p) for
        # an indicator of mass a, from mpmath at 40 digits
        r = luxemburg_norm(power_young(p), f)
        assert r.value == pytest.approx(exact, rel=1e-13, abs=0.0)
        assert r.modular_at_value <= 1.0

    def test_power_norm_of_one_piece_always_settles(self):
        # 4,000 draws of one piece of value 10^U(-3, 3) on its own mass
        # 10^U(-40, 40) under power(p), p = U(1.2, 4) to 3 digits: the float
        # walk alone raised NonConvergence on 435 of them.  A norm past the
        # cap 2^64 reads +inf, and one below 2^-64 reads 0
        rng = random.Random(5)
        most = 0
        for _ in range(4000):
            p = round(rng.uniform(1.2, 4.0), 3)
            mass = 10.0 ** rng.uniform(-40.0, 40.0)
            value = 10.0 ** rng.uniform(-3.0, 3.0)
            r = luxemburg_norm(power_young(p), step_tail([(value, mass)], mass))
            exact = value * mass ** (1.0 / p)
            if 2.0 ** -64 <= exact <= 2.0 ** 64:
                assert r.value == pytest.approx(exact, rel=1e-13, abs=0.0)
            else:
                assert r.value == (math.inf if exact > 1.0 else 0.0)
            most = max(most, r.trace["modular_evaluations"])
        assert most <= 12

    def test_power_zero_modular_end(self):
        # an analytic tail that is 0 everywhere: w = 0, and the modular at
        # k = 1 is 0, so the norm is 0 after that one modular
        f = TailRepFunction(AnalyticTail(lambda t: 0.0), 1.0)
        r = luxemburg_norm(power_young(2.0), f)
        assert r.value == 0.0
        assert r.trace["modular_evaluations"] == 1
        assert "cap" in r.trace["note"]
        # a norm of 7.1e-31 lies below the 2^-64 cap
        r = luxemburg_norm(power_young(2.0), step_tail([(1e-30, 0.5)], 1.0))
        assert r.value == 0.0
        assert "cap" in r.trace["note"]

    @pytest.mark.parametrize("N", [exp_young(2.0), delta_young(2.0)])
    def test_norm_below_the_cap_is_zero_off_power(self, N):
        # the weak norm lies below 2^-64 here; the crossing search starts at
        # 2^-64, where the modular is at most 1, and halves down to the cap
        rng = random.Random(41)
        for value in [1e-30] + [10.0 ** rng.uniform(-40.0, -21.0) for _ in range(40)]:
            pieces = [(value * rng.uniform(0.5, 1.0), rng.uniform(0.05, 0.3))
                      for _ in range(rng.randint(1, 3))]
            r = luxemburg_norm(N, step_tail(pieces, 1.0))
            assert r.value == 0.0
            assert r.trace["note"] == "modular below 1 down to cap"

    def test_power_walk_is_capped(self):
        # labelled power(2) but u^2 + u^1.5 falls slower than k^-2: the
        # modular at the closed form is far above 1, and that raises
        N = YoungFunction("power", 2.0, lambda u: u ** 2 + u ** 1.5, lambda w: w ** 0.5)
        with pytest.raises(NonConvergence):
            luxemburg_norm(N, step_tail([(4.0, 0.5), (0.5, 0.5)], 1.0))

    def test_cap_is_the_same_from_any_bracket_start(self):
        # the weak norm 1.06e19 doubles past 2^64; the bracket is cut at the
        # cap, so a norm just below it stays finite, and one above it is +inf
        N = power_young(2.0)
        below = step_tail([(1.5e19, 0.5), (1.0e19, 0.5)], 1.0)
        assert luxemburg_norm(N, below).value == pytest.approx(
            math.sqrt(0.5 * (1.5e19 ** 2 + 1.0e19 ** 2)), rel=1e-12)
        assert luxemburg_norm(N, step_tail([(3.0e19, 0.5)], 1.0)).value == math.inf

    @pytest.mark.parametrize("f", [
        step_tail([(2.0, 0.3), (1.0, 0.5)], 1.0),
        extremal_function(exp_young(2.0), 1.0),
    ], ids=["step", "analytic"])
    def test_trace_records_the_weak_lower_bound(self, f):
        # off power the weak norm runs first, and the crossing search starts there
        N = exp_young(2.0)
        r = luxemburg_norm(N, f)
        w = r.trace["weak_lower_bound"]
        assert w == weak_norm(N, f).value
        assert r.trace["start"] == (w, "weak norm")
        step = isinstance(f.tail, StepTail)
        assert r.trace["plateau_end"] == (None if step else _support_ends(f.tail, 1.0)[0])
        assert 0.0 < w <= r.value < math.inf
        assert luxemburg_norm(N, f).trace == r.trace

    @pytest.mark.parametrize("f, start, plateau_end", [
        (step_tail([(2.0, 0.3), (1.0, 0.5)], 1.0), (2.0, "largest value"), None),
        (TailRepFunction(AnalyticTail(lambda t: min(1.0, t ** -4.0)), 1.0), (1.0, "unit"), 1.0),
    ], ids=["step", "analytic"])
    def test_power_trace_records_its_start(self, f, start, plateau_end):
        # under power one modular at the start decides the norm; no weak norm runs
        r = luxemburg_norm(power_young(2.0), f)
        assert r.trace["weak_lower_bound"] is None
        assert r.trace["start"] == start
        assert r.trace["plateau_end"] == plateau_end
        assert r.trace["modular_evaluations"] <= 2
        assert 0.0 < r.value < math.inf
        assert luxemburg_norm(power_young(2.0), f).trace == r.trace

    def test_power_start_falls_back_to_the_weak_norm(self):
        # e^-t under power(200): modular(1) overflows at t = 99.02, while the
        # norm Gamma(201)^(1/200) is a float; the weak-norm start reaches it
        N = power_young(200.0)
        f = TailRepFunction(AnalyticTail(lambda t: math.exp(-t)), 1.0)
        r = luxemburg_norm(N, f)
        assert r.value == 74.90045280473883
        w = weak_norm(N, f).value
        assert r.trace["weak_lower_bound"] == w
        assert r.trace["start"] == (w, "weak norm")
        # e^-1000t: modular(1) = 200! 1e-600 is a float, but far below the
        # kernel's relative range; the closed form read there raised
        # NonConvergence
        f = TailRepFunction(AnalyticTail(lambda t: math.exp(-1e3 * t)), 1.0)
        r = luxemburg_norm(N, f)
        assert r.value == pytest.approx(74.90045280473883e-3, rel=1e-14, abs=0.0)
        assert r.trace["start"][1] == "weak norm"

    def test_power_start_reads_the_plateau_end(self):
        # min(1, (t/100)^-400) under power(200): the plateau term 100^200 of
        # modular(1) would overflow; the start is the plateau end 100, where
        # the modular is 1 + 200/200 = 2, and the norm 100 2^(1/200) is read
        # there, with no modular at 1 and no weak norm run
        f = TailRepFunction(AnalyticTail(lambda t: min(1.0, (t / 100.0) ** -400.0)), 1.0)
        r = luxemburg_norm(power_young(200.0), f)
        assert r.value == pytest.approx(100.0 * 2.0 ** (1.0 / 200.0), rel=1e-14)
        assert r.trace["start"] == (100.0, "plateau end")
        assert r.trace["weak_lower_bound"] is None
        assert r.trace["modular_evaluations"] == 3  # at 100, the norm and one float past
        # min(1, (t/1e200)^-3) under power(2): modular(1e200) = 3, so the norm
        # sqrt(3) 1e200 lies above the cap; the weak norm is not run
        heavy_plateau = TailRepFunction(AnalyticTail(lambda t: min(1.0, (t / 1e200) ** -3.0)), 1.0)
        r = luxemburg_norm(power_young(2.0), heavy_plateau)
        assert r.value == math.inf
        assert r.trace["note"] == f"modular above 1 up to cap {2.0 ** 64:g}"
        assert r.trace["start"] == (1e200, "plateau end")
        assert r.trace["weak_lower_bound"] is None
        assert r.trace["modular_evaluations"] == 1

    def test_power_start_falls_back_past_an_unusable_plateau_end(self):
        # 1e-6 min(1, (t/100)^-400) under power(200): at the plateau end 100
        # the modular 2e-6 lies below the 1e-4 floor, so the weak-norm start
        # w = 100 1e-6^(1/200) is read second and gives the norm
        # 100 (2e-6)^(1/200), as the Lebesgue norm does from its own reads
        N = power_young(200.0)
        f = TailRepFunction(AnalyticTail(lambda t: 1e-6 * min(1.0, (t / 100.0) ** -400.0)), 1e-6)
        expected = 100.0 * 2e-6 ** (1.0 / 200.0)
        r = luxemburg_norm(N, f)
        w = weak_norm(N, f).value
        assert r.value == pytest.approx(expected, rel=1e-14, abs=0.0)
        assert r.trace["start"] == (w, "weak norm")
        assert r.trace["weak_lower_bound"] == w
        assert r.trace["modular_evaluations"] == 3  # at 100, w and the norm
        assert lebesgue_norm(f, 200.0).value == pytest.approx(expected, rel=1e-14, abs=0.0)
        # a plateau that reaches the largest float is not read at its end
        # (its modular overflows at every k): the weak norm +inf decides
        everywhere = TailRepFunction(AnalyticTail(lambda t: 1.0), 1.0)
        r = luxemburg_norm(power_young(2.0), everywhere)
        assert r.value == math.inf
        assert r.trace["note"] == _WEAK_ABOVE
        assert r.trace["start"] == (1.0, "unit")
        assert r.trace["modular_evaluations"] == 1
        # where no start is left, the trace names the start that was read:
        # min(1, (t/1e30)^-203) under power(200) overflows N' at its plateau
        # end 1e30, and the weak norm 1e30 lies above the cap
        beyond = TailRepFunction(AnalyticTail(lambda t: min(1.0, (t / 1e30) ** -203.0)), 1.0)
        r = luxemburg_norm(N, beyond)
        assert r.value == math.inf
        assert r.trace["note"] == _WEAK_ABOVE
        assert r.trace["start"] == (1e30, "plateau end")
        assert r.trace["modular_evaluations"] == 1

    def test_large_plateau_starts_at_its_end(self):
        # min(1, (t/1e10)^-8) under power(1.5): the norm is
        # 1e10 (8/6.5)^(1/1.5) = 1.148464971328384e10.  Read at 1, the
        # modular 1.23e15 came out 3.9e-15 low, which put k 23 floats below
        # the norm, past the float walk, and raised NonConvergence; at the
        # plateau end 1e10 the modular is about 1.23
        f = TailRepFunction(AnalyticTail(lambda t: min(1.0, (t / 1e10) ** -8.0)), 1.0)
        r = luxemburg_norm(power_young(1.5), f)
        assert r.value == pytest.approx(1.148464971328384e10, rel=1e-12)
        assert r.trace["start"] == (1e10, "plateau end")
        assert lebesgue_norm(f, 1.5).value == pytest.approx(1.148464971328384e10, rel=1e-12)

    def test_overflow_at_the_weak_start_is_not_evaluable(self):
        # min(1, (t/1e3)^-203) under power(200): N'(t/k) = 200 (t/k)^199
        # overflows past t/k = 35, so the modular at the plateau end 1e3,
        # which is also the weak-norm start, is divergent with no ladder
        # points.  That is no evidence of +inf (the norm is
        # 1e3 (203/3)^(1/200) = 1021.3), so both norms raise NonEvaluable,
        # where the strong norm read k = s inf^(1/p) = +inf
        f = TailRepFunction(AnalyticTail(lambda t: min(1.0, (t / 1e3) ** -203.0)), 1.0)
        with pytest.raises(NonEvaluable, match="weak-norm start s=1000"):
            luxemburg_norm(power_young(200.0), f)
        with pytest.raises(NonEvaluable, match="weak-norm start s=1000"):
            lebesgue_norm(f, 200.0)

    def test_power_norm_whose_weak_start_modular_has_a_late_support(self):
        # at the weak-norm start w = 5413.4 the integrand's support on the
        # upward ladder began past two zero probes, which once settled the
        # modular at 0, below the Chebyshev bound of 1, and the norm at 0.0
        f = extremal_function(exp_young(0.5), 1.0)
        r = luxemburg_norm(power_young(200.0), f)
        assert r.value == pytest.approx(EXP05_EXTREMAL_L200, rel=1e-12)
        assert r.trace["start"][1] == "weak norm"

    @pytest.mark.parametrize("sigma, p, q", [
        (1e-4, 3.548, 7.045), (1e-6, 3.622, 7.597), (1e-9, 1.558, 5.376), (1e-9, 2.82, 6.741),
    ])
    def test_power_start_below_the_kernel_range_falls_back(self, sigma, p, q):
        # the tail of sigma min(1, t^-q): modular(1) = sigma^p q/(q - p) lies
        # below 1e-4, where the kernel's absolute stop bounds its error; read
        # at k = 1 it put the norm up to 7e-5 off, so the weak-norm start is
        # used, by the Lebesgue norm too
        f = TailRepFunction(AnalyticTail(lambda t: min(1.0, (t / sigma) ** -q)), 1.0)
        r = luxemburg_norm(power_young(p), f)
        expected = sigma * (q / (q - p)) ** (1.0 / p)
        assert r.value == pytest.approx(expected, rel=1e-14, abs=0.0)
        assert r.trace["start"][1] == "weak norm"
        assert lebesgue_norm(f, p).value == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("pieces", [
        [(3.0, 1e-6), (1.0, 2e-6)], [(3.0, 4e-7), (1.0, 6e-7)],
    ])
    def test_power_step_tail_of_small_mass_runs_no_weak_norm(self, pieces, monkeypatch):
        # a step sum is exact at any scale, so the floor of the analytic start
        # does not apply: the largest value stays the start even where the
        # modular there is below 1e-4
        def no_weak_norm(N, f):
            raise AssertionError("weak_norm ran")

        monkeypatch.setattr("orlicz.norms.weak_norm", no_weak_norm)
        f = step_tail(pieces, 1.0)
        r = luxemburg_norm(power_young(2.0), f)
        assert r.trace["start"] == (pieces[0][0], "largest value")
        assert r.trace["modular_evaluations"] <= 2
        expected = lebesgue_norm(f, 2.0).value
        assert abs(r.value - expected) <= 4.0 * math.ulp(expected)

    @pytest.mark.parametrize("p, q", [(2.0, 1.5), (3.0, 1.2), (4.0, 3.9)])
    def test_power_slope_divergence_runs_no_weak_norm(self, p, q, monkeypatch):
        # q < p: the modular at 1 diverges by its ladder slopes, so by scaling
        # at every k, and the norm is +inf after that one modular
        def no_weak_norm(N, f):
            raise AssertionError("weak_norm ran")

        monkeypatch.setattr("orlicz.norms.weak_norm", no_weak_norm)
        f = TailRepFunction(AnalyticTail(lambda t: min(1.0, t ** -q)), 1.0)
        r = luxemburg_norm(power_young(p), f)
        assert r.value == math.inf
        assert r.trace["modular_evaluations"] == 1
        assert r.trace["weak_lower_bound"] is None
        assert r.trace["start"] == (1.0, "unit")

    def test_power_start_matches_the_weak_norm_start(self):
        # the value from the new start is the closed form read at the weak
        # norm's start, s modular(s)^(1/p) with s = weak_norm(N, f), to 4 ulp
        for p, f in power_start_cases():
            N = power_young(p)
            w = weak_norm(N, f).value
            if w > 2.0 ** 64:
                expected = math.inf
            else:
                s = max(w, 2.0 ** -64) if w > 0.0 else 1.0
                m = modular(N, f, s)
                expected = s * m.value ** (1.0 / p) if m.is_finite else math.inf
            value = luxemburg_norm(N, f).value
            assert value == expected or abs(value - expected) <= 4.0 * math.ulp(expected), (
                p, f.tail, value, expected)

    def test_crossing_capped_above(self):
        # the exp_m(2) extremal function on infinite mass: its weak norm is
        # about 1, and the modular stays above 1 at every doubling of k
        # from there up to 2^64, 65 modulars in all
        N = exp_young(2.0)
        r = luxemburg_norm(N, extremal_function(N, math.inf))
        assert r.value == math.inf and r.modular_at_value is None
        assert r.trace["note"] == "modular above 1 up to cap 1.84467e+19"
        assert r.trace["modular_evaluations"] == 65
        assert "bracket" not in r.trace


class TestWeakNorm:
    def test_extremal_tail_has_unit_norm(self):
        for N in (exp_young(2.0), power_young(2.0)):
            g = extremal_function(N, 1.0)
            assert weak_norm(N, g).value == pytest.approx(1.0, abs=1e-8)

    def test_indicator_matches_strong(self):
        N = exp_young(2.0)
        for a, expected in INDICATOR_EXP2.items():
            assert weak_norm(N, step_tail([(1.0, a)], 1.0)).value == pytest.approx(
                expected, abs=1e-8
            )

    def test_zero_function(self):
        assert weak_norm(exp_young(2.0), step_tail([], 1.0)).value == 0.0

    def test_step_closed_form_matches_tail_norm(self):
        # the definition: K is the least scale with T(t) <= min(mass, 1/N(t/K))
        # at every t, which on a step tail binds at the thresholds
        for N in FAMILIES:
            theta = chebyshev_tail(N, 1.0)
            for f in random_steps(5):
                K = weak_norm(N, f).value
                steps = list(zip(f.tail.thresholds, f.tail.levels))
                assert all(level <= theta.value(t / K) * (1.0 + 1e-12) for t, level in steps)
                below = K * (1.0 - 1e-10)
                assert any(level > theta.value(t / below) for t, level in steps)

    def test_level_rounding_above_the_mass(self):
        # step_tail accepts a top level 1e-13 above the total mass; the
        # level is capped at the mass, so the value is 1/N^{-1}(1)
        f = step_tail([(1.0, 1.0 + 1e-13)], 1.0)
        assert weak_norm(exp_young(2.0), f).value == pytest.approx(
            0.8493218002880191, rel=1e-15, abs=0.0
        )

    def test_never_exceeds_strong(self, two_piece):
        for N in (power_young(2.0), exp_young(2.0), delta_young(2.0)):
            w = weak_norm(N, two_piece).value
            s = luxemburg_norm(N, two_piece).value
            assert w <= s + 1e-8

    def test_power_tail_kink_between_grid_nodes(self):
        # for K < 1 the tail exceeds the reference only on s in (1, 1/K],
        # narrower than a feasibility grid cell; the sup sits at the kink t = 1
        f = TailRepFunction(AnalyticTail(lambda t: min(1.0, t ** -3.150422762281792)), 1.0)
        assert weak_norm(power_young(2.445074845566358), f).value == pytest.approx(1.0, rel=1e-12)

    def test_sup_below_the_first_grid(self):
        # the kink of min(1, (t/c)^-4) sits at t = c, far below t = 1e-15
        c = 1e-18
        f = TailRepFunction(AnalyticTail(lambda t: min(1.0, (t / c) ** -4.0)), 1.0)
        assert weak_norm(power_young(2.0), f).value == pytest.approx(c, rel=1e-12, abs=0.0)

    def test_unbounded_at_small_t_on_infinite_mass(self):
        # t / N^{-1}(t^3) = t^(-1/2) under power(2) grows without bound as t -> 0
        f = TailRepFunction(AnalyticTail(lambda t: t ** -3.0), math.inf)
        assert weak_norm(power_young(2.0), f).value == math.inf

    def test_smooth_interior_maximum(self):
        # sup_t t / N^{-1}(e^t) = sup_t t e^(-t/2) = 2/e under power(2), at t = 2
        f = TailRepFunction(AnalyticTail(lambda t: math.exp(-t)), 1.0)
        r = weak_norm(power_young(2.0), f)
        assert r.value == pytest.approx(2.0 / math.e, rel=1e-12, abs=0.0)
        assert r.trace["argmax_t"] == pytest.approx(2.0, rel=1e-5)

    def test_infinite_level_on_infinite_mass(self):
        # an infinite level reads as the largest float, and
        # 1 / N^{-1}(1/max_float) = 1.3e154 exceeds the cap under power(2)
        f = TailRepFunction(AnalyticTail(lambda t: math.inf if t <= 1.0 else 0.0), math.inf)
        assert weak_norm(power_young(2.0), f).value == math.inf
        # on finite mass the level is capped at the mass
        f = TailRepFunction(AnalyticTail(lambda t: math.inf if t <= 1.0 else 0.0), 1.0)
        assert weak_norm(power_young(2.0), f).value == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("N", [power_young(2.0), power_young(4.0), power_young(25.0),
                                   exp_young(2.0), delta_young(2.0)],
                             ids=["power2", "power4", "power25", "exp2", "delta2"])
    def test_extremal_on_infinite_mass(self, N):
        # 1/N(t) overflows where N(t) underflows; that must not read as an infinite level
        r = weak_norm(N, extremal_function(N, math.inf))
        assert r.value == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("mass", [1.0, math.inf])
    def test_overflowing_tail_value(self, mass):
        # t ** -p raises OverflowError below t = max_float^(-1/p); such a level
        # is beyond the float range.  Under power(2) on infinite mass the sup of
        # t^(-1/40) is at that boundary, where both sides equal max_float^(1/42).
        f = parse_descriptor(
            {"kind": "analytic-tail", "family": "power", "p": 2.1, "mass": mass}
        ).build()
        expected = 1.0 if mass == 1.0 else sys.float_info.max ** (1.0 / 42.0)
        assert weak_norm(power_young(2.0), f).value == pytest.approx(expected, rel=1e-10)
        f = parse_descriptor({"kind": "analytic-tail", "family": "power", "p": 25, "mass": 1}).build()
        assert weak_norm(power_young(2.0), f).value == pytest.approx(1.0, rel=1e-12)

    def test_off_peak_cell_within_a_grid_step(self):
        # T = 1 on (0, 1.1], 0.011025 on (1.1, 10], 0 after: g = t up to the
        # sup 1.1, then 0.105 t up to 1.05 at the node t = 10.  Only the cells
        # beside the largest node are refined, so the peak inside the cell
        # [1, 10^(1/20)] is missed, by less than the documented factor 10^(1/20).
        f = TailRepFunction(
            AnalyticTail(lambda t: 1.0 if t <= 1.1 else (0.011025 if t <= 10.0 else 0.0)), 1.0
        )
        v = weak_norm(power_young(2.0), f).value
        assert 1.1 / 10.0 ** (1.0 / 20.0) <= v <= 1.1

    def test_invalid_tail_values_rejected(self):
        for bad in (math.nan, -1.0):
            f = TailRepFunction(AnalyticTail(lambda t, bad=bad: bad), 1.0)
            with pytest.raises(ValueError):
                weak_norm(power_young(2.0), f)

    def test_trace_counts_and_locates_the_sup(self):
        f = step_tail([(2.0, 0.3), (1.0, 0.5)], 1.0)
        r = weak_norm(power_young(2.0), f)
        assert r.trace["evaluations"] == 2
        assert r.trace["argmax_t"] == 2.0
        assert r.value == 2.0 / math.sqrt(1.0 / 0.3)
        g = TailRepFunction(AnalyticTail(lambda t: min(1.0, t ** -3.0)), 1.0)
        first = weak_norm(power_young(2.0), g)
        assert first.trace["argmax_t"] == 1.0
        # tail values read: the plateau t <= 1 is filled in without them, and
        # past it every node whose bound t_k / N^-1(1/T(t_i)) from an earlier
        # node t_i lies below the running maximum is skipped
        assert first.trace["evaluations"] == 87
        assert weak_norm(power_young(2.0), g).trace == first.trace
        # under delta and exp_m the norm is +inf, proven by the cap
        # certificate's probes past t = 1e16 (100 and 58 reads climbing the
        # grid a decade at a time)
        assert weak_norm(delta_young(2.0), g).trace["evaluations"] == 22
        assert weak_norm(exp_young(2.0), g).trace["evaluations"] == 21
        # on the extremal function g = 1 on the whole grid up to rounding, so
        # no node can be skipped; an untagged copy, as the tagged one reads 1
        # with no grid
        N = power_young(2.0)
        f = extremal_function(N, 1.0)
        f = TailRepFunction(AnalyticTail(f.tail.fn, f.tail.label), 1.0)
        assert weak_norm(N, f).trace["evaluations"] == 384


def _power_plateau_tail(q: float, mass: float) -> TailRepFunction:
    """min(M, t^-q) on mass M, with no break declared at its kink M^(-1/q)."""
    return TailRepFunction(AnalyticTail(lambda t: min(mass, t ** -q)), mass)


class TestPlateau:
    """The plateau end t_p: the modular takes (0, t_p] in closed form."""

    @pytest.mark.parametrize("f", [
        extremal_function(exp_young(2.0), 1.0),
        _power_plateau_tail(3.0, 1.0),
        _power_plateau_tail(2.5, 4.0),
        parse_descriptor({"kind": "analytic-tail", "family": "power", "p": 3.0,
                          "mass": 0.1}).build(),
    ], ids=["extremal", "power-unit-mass", "power-mass-4", "descriptor"])
    def test_plateau_end_is_exact(self, f):
        t_p, _ = _support_ends(f.tail, f.total_mass)
        assert f.tail.value(t_p) >= f.total_mass > f.tail.value(math.nextafter(t_p, math.inf))

    def test_overflowing_tail_finds_its_plateau(self):
        # t^-400 raises OverflowError below t = 0.17, which reads as +inf
        f = TailRepFunction(AnalyticTail(lambda t: min(1.0, t ** -400.0)), 1.0)
        assert f.tail.value(0.1) == math.inf
        assert _support_ends(f.tail, 1.0)[0] == 1.0
        exact = math.sqrt(400.0 / 398.0)  # int |f|^2 = 1 + 2 / 398
        assert modular(power_young(2.0), f, 1.0).value == pytest.approx(
            exact ** 2, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("f", [
        TailRepFunction(AnalyticTail(lambda t: min(1.0, t ** -3.0)), math.inf),
        TailRepFunction(AnalyticTail(lambda t: min(0.5, t ** -3.0)), 1.0),
    ], ids=["infinite-mass", "below-the-mass"])
    def test_no_plateau_keeps_the_full_quadrature(self, f):
        N, k = power_young(2.0), 1.5
        assert _support_ends(f.tail, f.total_mass)[0] == 0.0
        whole = integrate(lambda t: f.tail.value(t) * N.derivative(t / k) / k, 0.0, math.inf)
        assert modular(N, f, k).value == whole.value
        assert luxemburg_norm(N, f).trace["plateau_end"] is None

    def test_overflowing_plateau_term_is_divergent(self, monkeypatch):
        # an analytic indicator of (0, 1]: under exp_m(12) the Luxemburg
        # search halves from w = 1/N^-1(1), where N(2 N^-1(1)) overflows
        import orlicz.norms as norms_module

        notes = []
        plain = norms_module._analytic_modular

        def noted(*args):
            r = plain(*args)
            notes.append(r.evidence.note if r.is_divergent else None)
            return r

        monkeypatch.setattr(norms_module, "_analytic_modular", noted)
        N = exp_young(12.0)
        f = TailRepFunction(AnalyticTail(lambda t: 1.0 if t <= 1.0 else 0.0), 1.0)
        r = luxemburg_norm(N, f)
        assert r.value == pytest.approx(1.0 / N.inverse(1.0), rel=1e-12, abs=0.0)
        assert r.trace["plateau_end"] == 1.0
        assert any(n and n.startswith("plateau term M N(t_p/k) overflows") for n in notes)
        # the plateau term 1e400 of min(1, (t/1e200)^-3) overflows at k = 1,
        # but the integral 3e400 is finite, and the weak norm 1.7e200 is no
        # start; at the plateau end 1e200 the plateau term is the mass 1 and
        # the modular 3, so the norm is sqrt(3) 1e200, not a divergent one
        heavy_plateau = TailRepFunction(AnalyticTail(lambda t: min(1.0, (t / 1e200) ** -3.0)), 1.0)
        assert lebesgue_norm(heavy_plateau, 2.0).value == pytest.approx(
            math.sqrt(3.0) * 1e200, rel=1e-12)

    def test_no_sample_below_the_plateau(self, monkeypatch):
        # the modular of the delta(2) extremal function at k = 2 took 299
        # integrand samples when the quadrature started at 0, and takes 173
        import orlicz.norms as norms_module

        seen = []
        plain = norms_module.integrate

        def counted(f, a, b, **kw):
            def g(t):
                seen.append(t)
                return f(t)
            return plain(g, a, b, **kw)

        monkeypatch.setattr(norms_module, "integrate", counted)
        N = delta_young(2.0)
        f = extremal_function(N, 1.0)
        modular(N, f, 2.0)
        assert min(seen) >= _support_ends(f.tail, 1.0)[0]
        assert len(seen) <= 200

    def test_kinked_power_tails_meet_the_closed_form(self):
        # min(M, t^-q) on mass M, no break declared, under power(p):
        # modular(k) = k^-p (M t_p^p + p t_p^(p-q) / (q - p)), t_p = M^(-1/q);
        # when the quadrature ran from 0 past the undeclared kink, these
        # modulars were up to 1.4e-5 off
        rng = random.Random(150)
        for _ in range(150):
            p = rng.uniform(1.2, 4.0)
            q = p + rng.uniform(0.3, 4.0)
            mass = rng.uniform(0.05, 20.0)
            N, f = power_young(p), _power_plateau_tail(q, mass)
            t_p = mass ** (-1.0 / q)
            bracket = mass * t_p ** p + p * t_p ** (p - q) / (q - p)
            for k in (0.5, 1.0, 2.0):
                assert modular(N, f, k).value == pytest.approx(
                    k ** -p * bracket, rel=1e-12, abs=0.0)
            norm = bracket ** (1.0 / p)
            assert luxemburg_norm(N, f).value == pytest.approx(norm, rel=1e-12, abs=0.0)
            assert lebesgue_norm(f, p).value == pytest.approx(norm, rel=1e-12, abs=0.0)


@st.composite
def _bounded_power_cases(draw):
    """(p, M, c, q, b): on finite mass any q, on infinite mass q < p - 0.3;
    b from 0.01 to 1e9 on both, so that an infinite-mass tail's power
    singularity at 0 also meets a range that ends below t = 1."""
    p = draw(st.floats(min_value=1.2, max_value=4.0))
    c = draw(st.floats(min_value=0.1, max_value=10.0))
    if draw(st.booleans()):
        M = draw(st.floats(min_value=0.05, max_value=20.0))
        q = draw(st.floats(min_value=0.3, max_value=6.0))
        b = 10.0 ** draw(st.floats(min_value=-2.0, max_value=9.0))
    else:
        M = math.inf
        q = draw(st.floats(min_value=0.1, max_value=p - 0.3))
        b = 10.0 ** draw(st.floats(min_value=-2.0, max_value=9.0))
    return p, M, c, q, b


class TestSupportEnd:
    """The zero start t_z: the quadrature ends where the tail vanishes."""

    @pytest.mark.parametrize("f, t_z, faint", [
        (_bounded_power_tail(1.0, 1.0, 2.1, 300.0), 300.0, False),
        # 1/N is 0 past N's overflow cap, from about e^-700 just below it
        (extremal_function(exp_young(2.0), 1.0), None, True),
        (TailRepFunction(AnalyticTail(lambda t: 0.0), 1.0), None, True),
        (_power_plateau_tail(3.0, 1.0), math.inf, False),
    ], ids=["cut-power", "exp-extremal", "zero", "power"])
    def test_zero_start_is_exact(self, f, t_z, faint):
        _, (found, found_faint) = _support_ends(f.tail, f.total_mass)
        assert found_faint == faint
        if t_z is not None:
            assert found == t_z
        if found < math.inf:
            # the first float past max(t_p, 1e-12) where the tail is 0
            below = math.nextafter(found, 0.0)
            assert f.tail.value(found) == 0.0
            assert below <= 1e-12 or f.tail.value(below) > 0.0

    @seed(31)
    @settings(max_examples=60)
    @example(case=(2.0, 1.0, 1.0, 2.1, 300.0))  # the modular read 21.0, not 9.6938
    @given(case=_bounded_power_cases())
    def test_bounded_power_tails_meet_the_closed_form(self, case):
        # a ladder that runs past b settles on the power law below b and
        # adds the uncut tail's remainder, which is not there
        p, M, c, q, b = case
        N, f = power_young(p), _bounded_power_tail(M, c, q, b)
        whole = _bounded_power_modular(p, M, c, q, b)
        for k in (0.5, 1.0, 2.0):
            assert modular(N, f, k).value == pytest.approx(k ** -p * whole, rel=1e-12, abs=0.0)
        assert luxemburg_norm(N, f).value == pytest.approx(whole ** (1.0 / p), rel=1e-12, abs=0.0)

    def test_a_zero_at_the_float_range_end_is_no_support_end(self):
        # the delta(2) extremal tail 1/N(t) reads 0 past t = 3.1e11, where N
        # reaches its overflow cap, though 1/N is about e^-700 there: at
        # k = 1 the modular, the integral of N'(t)/N(t), is +inf all the
        # same, and at k = 1.5 the stretch past 3.1e11 weighs 1e-8
        N = delta_young(2.0)
        f = extremal_function(N, 1.0)
        assert _support_ends(f.tail, 1.0)[1][1]
        assert modular(N, f, 1.0).is_divergent
        assert modular(N, f, 1.5).value == pytest.approx(DELTA2_CRITERION_T_FORM[1.5],
                                                         rel=1e-11)

    @pytest.mark.parametrize("m", [1.0, 1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("mass", [0.25, 1.0, 4.0])
    def test_exp_extremal_norm_is_the_embedding_constant(self, m, mass):
        # the sharp constant k0 is attained: it is the strong norm of the
        # extremal function, whose tail falls to 0 at N's overflow cap
        N = exp_young(m)
        assert luxemburg_norm(N, extremal_function(N, mass)).value == pytest.approx(
            exp_embedding_constant(m, mass), rel=1e-12)

    @pytest.mark.parametrize("m", [2.0, 3.0])
    def test_jump_at_a_kept_zero_start_is_a_panel_end(self, m):
        # at k = 1 the integrand just below t_z is not negligible, so the
        # range runs past t_z; the jump to 0 there ends a panel, where
        # bisecting it took 1,222 and 1,193 calls of the tail callable
        N = exp_young(m)
        f = extremal_function(N, 1.0)
        seen = []
        tail = AnalyticTail(lambda t: seen.append(t) or f.tail.fn(t))
        modular(N, TailRepFunction(tail, 1.0), 1.0)
        assert len(seen) <= 300

    @pytest.mark.parametrize("N, f, evaluations, reads, calls", [
        # without the zero start and the shared reads the same norms took
        # 9 modulars and 2,245 calls of the tail callable; before the jump
        # at the kept zero start ended a panel, 1,115 reads and 1,336 calls
        (exp_young(2.0), extremal_function(exp_young(2.0), 1.0), 9, 155, 376),
        # 8 modulars and 1,246 calls
        (delta_young(2.5), extremal_function(delta_young(2.5), 1.0), 8, 142, 448),
        # 3 modulars and 249 calls
        (power_young(2.0), _power_plateau_tail(3.0, 1.0), 3, 33, 184),
    ], ids=["exp_m(2)-extremal", "delta(2.5)-extremal", "power(2)-cubic"])
    def test_read_counts_are_bounded(self, N, f, evaluations, reads, calls):
        # deterministic counts of one Luxemburg norm: the modulars, the
        # distinct tail values they read, and every call of the tail
        # callable (the weak norm's grid and the plateau and zero searches
        # included)
        seen = []
        tail = AnalyticTail(lambda t: seen.append(t) or f.tail.fn(t))
        r = luxemburg_norm(N, TailRepFunction(tail, f.total_mass))
        assert r.value == luxemburg_norm(N, f).value
        assert r.trace["modular_evaluations"] <= evaluations
        assert r.trace["tail_reads"] <= reads
        assert len(seen) <= calls


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _from_bits(b: int) -> float:
    return struct.unpack("<d", struct.pack("<q", b))[0]


def _bisected_support_ends(tail, mass):
    """``_support_ends`` as it was before its unit hint, kept as the reference.

    t_p is bisected over the bit patterns from 1e-12 to the largest float,
    t_z from max(t_p, 1e-12) to 1e12, and T is read at 1e12 after t_p.
    """
    value = tail.value
    t_p = 0.0
    if mass < math.inf and value(1e-12) >= mass:
        lo = _bits(1e-12)
        t_p = _from_bits(lo + bisect_left(range(lo + 1, _bits(math.inf)), True,
                                          key=lambda b: value(_from_bits(b)) < mass))
    if value(1e12) != 0.0:
        return t_p, (math.inf, False)
    lo, top = _bits(max(t_p, 1e-12)) + 1, _bits(1e12)
    t_z = _from_bits(lo + bisect_left(range(lo, top), True,
                                      key=lambda b: value(_from_bits(b)) == 0.0))
    return t_p, (t_z, value(math.nextafter(t_z, 0.0)) < 1e-300)


def _support_cases():
    """(name, fn, mass): nonincreasing tails whose support ends lie where
    the search branches."""
    rng = random.Random(28)
    up, down = math.nextafter(1.0, math.inf), math.nextafter(1.0, 0.0)

    def stepped(t_p, mass, q, cut=math.inf):
        # the mass up to t_p, then at most half of it, 0 past ``cut``
        return lambda t: (mass if t <= t_p else
                          (0.0 if t >= cut else 0.5 * mass * (t_p / t) ** q))

    cases = []
    for k in range(12):
        mass = rng.choice((0.25, 1.0, 4.0, 10.0 ** rng.uniform(-3.0, 3.0)))
        q = rng.uniform(0.5, 6.0)
        cases += [
            (f"min(M, t^-q) on M = 1, q = {q:.3g}", lambda t, q=q: min(1.0, t ** -q), 1.0),
            (f"ends at 1, mass {mass:.3g}", stepped(1.0, mass, q), mass),
            (f"ends above 1, mass {mass:.3g}", stepped(up, mass, q), mass),
            (f"ends below 1, mass {mass:.3g}", stepped(down, mass, q), mass),
        ]
        for lo, hi in ((-12.0, 0.0), (0.0, 12.0), (12.0, 300.0)):
            t_p = 10.0 ** rng.uniform(lo, hi)
            cases.append((f"ends at {t_p:.3g}", stepped(t_p, mass, q), mass))
            # a zero start within three decades past the plateau end
            cut = t_p * 10.0 ** rng.uniform(0.0, 3.0)
            cases.append((f"ends at {t_p:.3g}, 0 from {cut:.3g}", stepped(t_p, mass, q, cut),
                          mass))
            cases.append((f"ends at {t_p:.3g}, below the mass at 1e-12",
                          lambda t, t_p=t_p, q=q, m=mass: 0.5 * m * min(1.0, (t_p / t) ** q),
                          mass))
        cases.append((f"infinite mass, q = {q:.3g}", lambda t, q=q: t ** -q, math.inf))
        cases.append((f"infinite mass, 0 from 1e{k}",
                      lambda t, k=k: 0.0 if t >= 10.0 ** k else t ** -2.0, math.inf))
    cases += [
        ("the mass up to the largest float", lambda t: 1.0, 1.0),
        ("the mass up to 1e200", stepped(1e200, 2.0, 3.0), 2.0),
        ("0 from exactly 1e12", stepped(1.0, 1.0, 2.0, 1e12), 1.0),
        ("0 just past 1", stepped(1.0, 1.0, 2.0, up), 1.0),
        ("a drop from the mass to 0 at 1", lambda t: 1.0 if t <= 1.0 else 0.0, 1.0),
        ("0 everywhere", lambda t: 0.0, 1.0),
        ("0 past 1e-13", lambda t: 1.0 if t < 1e-13 else 0.0, 1.0),
        # faint zero starts: T leaves the float range there
        ("exp(-t) from below 1e-300", lambda t: min(1.0, math.exp(-t)), 1.0),
        ("exp(-t^2) on infinite mass", lambda t: math.exp(-t * t), math.inf),
    ]
    for N in (exp_young(1.0), exp_young(2.0), delta_young(2.0), delta_young(2.5),
              power_young(2.0)):
        for mass in (0.25, 1.0, 4.0, math.inf):
            tail = chebyshev_tail(N, mass)
            cases.append((f"{N.family}({N.param:g}) extremal on mass {mass:g}", tail.fn, mass))
    return cases


SUPPORT_CASES = _support_cases()


class TestSupportSearch:
    """``_support_ends`` against the plain bisection it replaced."""

    @pytest.mark.parametrize("name, fn, mass", SUPPORT_CASES, ids=[c[0] for c in SUPPORT_CASES])
    def test_same_ends_in_no_more_reads(self, name, fn, mass):
        new, old = [], []
        got = _support_ends(AnalyticTail(lambda t: new.append(t) or fn(t)), mass)
        want = _bisected_support_ends(AnalyticTail(lambda t: old.append(t) or fn(t)), mass)
        assert got == want
        assert len(new) <= len(old)

    def test_a_plateau_that_ends_at_one_costs_four_reads(self):
        # T at 1e12, 1e-12, the float above 1 and 1; the bisection took 64
        seen = []
        tail = AnalyticTail(lambda t: seen.append(t) or min(1.0, t ** -3.3))
        assert _support_ends(tail, 1.0) == (1.0, (math.inf, False))
        assert sorted(seen) == [1e-12, 1.0, math.nextafter(1.0, math.inf), 1e12]


class TestTailPastTheFloatRange:
    """A tail value whose callable raises OverflowError reads as +inf everywhere."""

    @pytest.fixture(params=["callable", "descriptor"])
    def steep(self, request):
        # t^-400 on infinite mass raises OverflowError below t = 0.17
        if request.param == "callable":
            return TailRepFunction(AnalyticTail(lambda t: t ** -400.0), math.inf)
        return parse_descriptor({"kind": "analytic-tail", "family": "power", "p": 400.0,
                                 "mass": "inf"}).build()

    def test_modular_is_divergent_by_integrand_overflow(self, steep):
        r = modular(power_young(2.0), steep, 1.0)
        assert r.is_divergent
        assert r.evidence.note.startswith("integrand overflow near t=")

    def test_power_norm_is_capped_by_the_weak_norm(self, steep):
        r = luxemburg_norm(power_young(2.0), steep)
        assert r.value == math.inf
        assert r.trace["note"].startswith("weak norm (a lower bound) above cap")

    def test_lebesgue_norm_is_not_evaluable(self, steep):
        # the start modular overflows and the weak norm is +inf: no verdict,
        # and in particular not a divergent one
        with pytest.raises(NonEvaluable, match="p=2"):
            lebesgue_norm(steep, 2.0)

    def test_weak_and_exponential_norms_stay_infinite(self, steep):
        assert weak_norm(power_young(2.0), steep).value == math.inf
        assert luxemburg_norm(exp_young(2.0), steep).value == math.inf


class TestLebesgueNorm:
    def test_exact_sum(self, two_piece):
        r = lebesgue_norm(two_piece, 2.0)
        assert r.value == pytest.approx(math.sqrt(1.7), rel=1e-14, abs=0.0)

    def test_step_sum_past_the_float_range(self):
        # v^p overflows at v = 1e100, p = 4 and underflows at v = 1e-3, p = 200;
        # the expected values are 0.5^(1/p) v from mpmath
        big = lebesgue_norm(step_tail([(1e100, 0.5)], 1.0), 4.0)
        assert big.value == pytest.approx(8.408964152537145e99, rel=1e-14)
        small = lebesgue_norm(step_tail([(0.001, 0.5)], 1.0), 200.0)
        assert small.value == pytest.approx(9.965402628278678e-4, rel=1e-14, abs=0.0)

    def test_heavy_tail_divergent(self, heavy):
        assert lebesgue_norm(heavy, 2.0).is_divergent

    def test_zero_function(self):
        assert lebesgue_norm(step_tail([], 1.0), 3.0).value == 0.0

    def test_analytic_exponential_tail(self):
        f = TailRepFunction(AnalyticTail(lambda t: math.exp(-t)), 1.0)
        assert lebesgue_norm(f, 2.0).value == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_power_of_t_past_the_float_range(self):
        # t^199 overflows past t = 35.4 while the exp_m(2) extremal tail is
        # still 1e-272 there; the integrand is then taken as
        # p exp((p - 1) ln t + ln T)
        f = extremal_function(exp_young(2.0), 1.0)
        assert lebesgue_norm(f, 200.0).value == pytest.approx(EXP2_EXTREMAL_L200, rel=1e-12)

    @pytest.mark.parametrize("m", [1.0, 0.5])
    def test_extremal_functions_at_p_50(self, m):
        # p t^49 T(t) still rises over the first three decades past t_p; the
        # range ends at t_z = (700 m)^(1/m), and a bounded range is never
        # called divergent
        f = extremal_function(exp_young(m), 1.0)
        assert lebesgue_norm(f, 50.0).value == pytest.approx(EXP_EXTREMAL_L50[m], rel=1e-12)

    @pytest.mark.parametrize("f, expected", [
        (TailRepFunction(AnalyticTail(lambda t: math.exp(-t)), 1.0), EXP_L200),
        (extremal_function(exp_young(1.0), 1.0), EXP_L200),
        (extremal_function(exp_young(0.5), 1.0), EXP05_EXTREMAL_L200),
    ], ids=["e^-t", "exp_m(1) extremal", "exp_m(0.5) extremal"])
    def test_integrand_past_the_float_range_starts_at_the_weak_norm(self, f, expected):
        # p t^199 e^-t peaks near 1e373 at t = 199, and the integral
        # Gamma(201) = 7.9e374 is not a float: the modular at 1 overflows,
        # and read at the weak norm, near the norm, it is about 1
        assert lebesgue_norm(f, 200.0).value == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_closed_form_is_one_modular(self):
        # the Lebesgue norm is s modular(s)^(1/p) under power(p), bit for bit,
        # on an analytic tail at its plateau end t_p where 1 < t_p and at 1
        # otherwise, and at the largest value on a step tail
        cases = power_start_cases()
        cases += [(p, f) for p in (1.0, 50.0) for _, f in power_start_cases()]
        for p, f in cases:
            if isinstance(f.tail, StepTail):
                s = f.tail.thresholds[-1]
            else:
                s = max(_support_ends(f.tail, f.total_mass)[0], 1.0)
            m = modular(_power_family(p), f, s)
            r = lebesgue_norm(f, p)
            if m.is_divergent:
                assert r.is_divergent, (p, f.tail)
            else:
                assert r.value == s * m.value ** (1.0 / p), (p, f.tail)

    def test_p_equal_to_one(self, two_piece):
        # L^1: the mean of |f|, which power_young does not admit as a Young function
        e = TailRepFunction(AnalyticTail(lambda t: math.exp(-t)), 1.0)
        assert lebesgue_norm(e, 1.0).value == pytest.approx(1.0, rel=1e-14, abs=0.0)
        cube = TailRepFunction(AnalyticTail(lambda t: min(1.0, t ** -3.0)), 1.0)
        assert lebesgue_norm(cube, 1.0).value == pytest.approx(1.5, rel=1e-14, abs=0.0)
        assert lebesgue_norm(two_piece, 1.0).value == pytest.approx(
            2.0 * 0.3 + 0.5, rel=1e-15, abs=0.0)

    def test_exponent_validated(self, two_piece):
        with pytest.raises(ValueError):
            lebesgue_norm(two_piece, 0.5)

    def test_infinite_exponent_rejected_on_both_tail_kinds(self):
        # a step tail once gave the largest value and an analytic tail an
        # integrand overflow; both are now the input error for p outside [1, inf)
        step = step_tail([(2.0, 0.5), (5.0, 0.1)], 1.0)
        analytic = TailRepFunction(AnalyticTail(lambda t: min(1.0, t ** -3.0)), 1.0)
        for f in (step, analytic):
            with pytest.raises(ValueError, match="1 <= p < inf"):
                lebesgue_norm(f, math.inf)


class TestCoupling:
    def test_spec_pair(self):
        rep = coupling_check(
            power_young(2.0),
            step_tail([(1.0, 0.5)], 1.0),
            step_tail([(2.0, 0.5)], 1.0),
        )
        assert rep.modular_dominated.value == pytest.approx(0.5)
        assert rep.modular_dominating.value == pytest.approx(2.0)
        assert rep.holds

    def test_equal_functions(self, two_piece):
        rep = coupling_check(exp_young(2.0), two_piece, two_piece)
        assert rep.holds
        assert rep.modular_dominated.value == rep.modular_dominating.value

    def test_zero_dominated_by_anything(self, two_piece):
        rep = coupling_check(exp_young(2.0), step_tail([], 1.0), two_piece)
        assert rep.holds
        assert rep.modular_dominated.value == 0.0

    def test_not_dominated_raises(self):
        with pytest.raises(NotDominated):
            coupling_check(
                power_young(2.0),
                step_tail([(3.0, 0.5)], 1.0),
                step_tail([(2.0, 0.5)], 1.0),
            )

    def test_divergent_dominating_side(self, heavy):
        rep = coupling_check(
            power_young(2.0), step_tail([(1.0, 0.5)], 1.0), heavy
        )
        assert rep.holds
