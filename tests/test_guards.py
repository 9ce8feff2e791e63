"""Argument checks and fail-loudly paths that the other test files never reach.

Each case pins the behaviour the library already has: a removed check
would let the call go on, and return or raise something else.
"""

import math
import re
import struct

import pytest

from orlicz.descriptors import parse_descriptor
from orlicz.embedding import (INCONCLUSIVE, _k0_search, coincidence_criterion,
                              embedding_constant, embedding_modular, embedding_report)
from orlicz.errors import (BadParameter, BudgetExceeded, DescriptorError, DivergentModular,
                           NonConvergence)
from orlicz.norms import coupling_check
from orlicz.numerics import MAX_DEPTH, integrate
from orlicz.tails import AnalyticTail, StepTail, TailRepFunction, dilate
from orlicz.young import custom_young, delta_young, exp_young, make_young, power_young


class TestIntegrationBounds:
    @pytest.mark.parametrize("a", [0.0, 2.0])
    def test_nan_upper_limit(self, a):
        # NaN is not above a: it takes the bounds error, not the ladder
        with pytest.raises(ValueError, match="integration bounds must satisfy a < b"):
            integrate(lambda t: 1.0, a, math.nan)

    def test_max_subdivision_depth(self):
        # an inverse square-root spike at 0.3, not at a panel end: the
        # panels around it halve down to the depth cap
        with pytest.raises(BudgetExceeded, match=f"max subdivision depth {MAX_DEPTH} reached"):
            integrate(lambda t: 1.0 / math.sqrt(abs(t - 0.3) + 1e-300), 0.0, 1.0)

    def test_interval_no_longer_splittable(self):
        # 1e10 or 2e10 by the lowest bit of t's bit pattern, on an interval
        # 4 ulps wide: the panels' error stays above the budget until a
        # panel spans two adjacent floats and its midpoint rounds to an end
        def f(t):
            return 1e10 * (1 + (struct.unpack("<q", struct.pack("<d", t))[0] & 1))

        b = 0.5
        for _ in range(4):
            b = math.nextafter(b, 1.0)
        with pytest.raises(BudgetExceeded, match=r"interval \[.*\] no longer splittable"):
            integrate(f, 0.5, b)


SQUARE = custom_young(lambda t: t * t, math.sqrt, label="square")


class TestEmbeddingModularScale:
    @pytest.mark.parametrize("N", [power_young(2.0), exp_young(2.0), delta_young(2.0), SQUARE],
                             ids=["power", "exp_m", "delta", "custom"])
    @pytest.mark.parametrize("k", [math.inf, math.nan, 0.0, -1.0])
    def test_scale_outside_the_positive_reals(self, N, k):
        with pytest.raises(ValueError, match="scale k must be positive and finite"):
            embedding_modular(N, k, 1.0)


def test_criterion_integrand_overflow_without_a_log_form():
    # N = u^2 with the derivative 1e308 has no log form: on infinite mass
    # the direct integrand (N(t/2) / N(t)) (N'(t) / N(t)) = (1/4) (1e308 / t^2)
    # overflows for t below about 0.75, and the integral is divergent
    N = custom_young(lambda u: u * u, math.sqrt, lambda u: 1e308)
    r = embedding_modular(N, 2.0, math.inf)
    assert r.is_divergent
    assert r.evidence.note == "integrand overflow near t=0.316228 at scaling 0.5"


class TestNonStringNames:
    # a list is no family or kind name, and is not hashable either
    def test_family(self):
        with pytest.raises(BadParameter, match=re.escape("unknown family ['power']")):
            make_young(["power"], 2.0)

    def test_descriptor_kind(self):
        with pytest.raises(DescriptorError, match=re.escape("got ['step']")):
            parse_descriptor({"kind": ["step"], "mass": 1})


class TestEmbeddingConstant:
    @pytest.mark.parametrize("D, mass", [(1.1, 1.0), (1.05, 4.0)])
    def test_unsettled_q_is_the_reports_last(self, D, mass):
        # the report is inconclusive where the k0 search stopped at an
        # unsettled Q; the constant raises with that Q and its reason
        rep = embedding_report(delta_young(D), mass)
        k, tag, reason = rep.q_trace[-1]
        assert rep.verdict == INCONCLUSIVE and tag == INCONCLUSIVE
        message = f"embedding modular at k={k!r} unsettled: {reason}"
        with pytest.raises(NonConvergence, match=f"^{re.escape(message)}$"):
            embedding_constant(delta_young(D), mass)

    def test_infinite_mass_raises_by_verdict(self):
        message = "criterion verdict for exp_m(2) at mass inf is non-coincident"
        with pytest.raises(DivergentModular, match=f"^{re.escape(message)}$"):
            embedding_constant(exp_young(2.0), math.inf)

    def test_constant_is_the_reports(self):
        N = delta_young(2.0)
        assert embedding_constant(N, 0.25) == embedding_report(N, 0.25).embedding_constant

    def test_k0_search_with_q_above_1_up_to_the_cap(self):
        # power is not coincident: its Q stays divergent for every k, so
        # the crossing solver reaches its cap
        N = power_young(2.0)
        with pytest.raises(DivergentModular,
                           match="^embedding modular stayed above 1 up to the cap$"):
            _k0_search(N, 1.0, coincidence_criterion(N, 1.0).trail, [])


class TestStepTailChecks:
    @pytest.mark.parametrize("thresholds, levels, message", [
        ((1.0, 2.0), (0.5,), "thresholds and levels must have equal length"),
        ((2.0, 1.0), (0.5, 0.2), "thresholds must be strictly increasing"),
        ((0.0, 2.0), (0.5, 0.2), "thresholds must be positive and finite"),
        ((1.0, math.inf), (0.5, 0.2), "thresholds must be positive and finite"),
        ((1.0, 2.0), (0.2, 0.5), "levels must be strictly decreasing"),
        ((1.0, 2.0), (0.5, 0.0), "levels must be positive"),
        # a NaN level: every comparison with NaN is False, so each check must fail on it
        ((1.0, 2.0), (math.nan, 0.2), "levels must be strictly decreasing"),
        ((1.0,), (math.nan,), "levels must be positive"),
        ((1.0, 2.0), (1.0, math.nan), "levels must be strictly decreasing"),
    ])
    def test_post_init(self, thresholds, levels, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            StepTail(thresholds, levels)

    def test_piece_of_zero_mass(self):
        with pytest.raises(ValueError, match="piece mass 0.0 must be finite and positive"):
            StepTail.from_pieces([(1.0, 0.0)])


class TestTailDomain:
    def test_analytic_tail_at_zero(self):
        with pytest.raises(ValueError, match="tail functions are defined for t > 0"):
            AnalyticTail(lambda t: 1.0).value(0.0)

    @pytest.mark.parametrize("c", [0.0, math.inf])
    def test_dilation_factor(self, c):
        with pytest.raises(ValueError, match="dilation factor must be positive and finite"):
            dilate(StepTail((1.0, 2.0), (0.5, 0.2)), c)


def test_coupling_with_a_divergent_dominating_modular():
    # T[g] = min(1, t^-1.5) has a divergent N = t^2 modular, T[f] =
    # min(0.5, t^-3) a finite one below it: the coupling holds
    f = TailRepFunction(AnalyticTail(lambda t: min(0.5, t ** -3.0)), 1.0)
    g = TailRepFunction(AnalyticTail(lambda t: min(1.0, t ** -1.5)), 1.0)
    rep = coupling_check(power_young(2.0), f, g)
    assert rep.modular_dominated.is_finite and rep.modular_dominating.is_divergent
    assert rep.holds
