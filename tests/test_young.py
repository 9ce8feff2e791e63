import math

import pytest

from orlicz.errors import BadParameter
from orlicz.young import (
    _LOG1MEXP_NEGLIGIBLE,
    _log1mexp,
    custom_young,
    delta_young,
    exp_young,
    make_young,
    power_young,
)

from oracle_values import Y0_EXP2

FAMILIES = [power_young(2.0), power_young(1.5), exp_young(1.0), exp_young(2.0),
            exp_young(3.0), delta_young(2.0), delta_young(3.0)]


class TestConstruction:
    def test_exp_values(self):
        N = exp_young(2.0)
        assert N(1.0) == pytest.approx(math.expm1(0.5), rel=1e-15, abs=0.0)
        assert N(0.0) == 0.0

    def test_power_values(self):
        assert power_young(2.0)(3.0) == 9.0

    def test_exp_inverse_at_one(self):
        N = exp_young(2.0)
        assert N.inverse(1.0) == pytest.approx(Y0_EXP2, abs=1e-12)
        # closed form (m ln 2)^(1/m) across the family
        for m in (0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 100.0):
            got = exp_young(m).inverse(1.0)
            assert got == pytest.approx((m * math.log(2.0)) ** (1.0 / m), rel=1e-12, abs=0.0)

    def test_bad_parameters(self):
        for family, bad in [("power", 1.0), ("power", 0.5), ("exp_m", 0.0),
                            ("exp_m", -2.0), ("delta", 1.0), ("delta", 0.2)]:
            with pytest.raises(BadParameter):
                make_young(family, bad)
        with pytest.raises(BadParameter):
            make_young("gamma", 2.0)

    def test_evenness_exact(self):
        for N in FAMILIES:
            for u in (0.3, 1.0, 7.5):
                assert N(-u) == N(u)

    def test_inverse_roundtrip(self):
        for N in FAMILIES:
            for e in range(-4, 5):
                u = 10.0 ** e
                w = N(u)
                if not math.isfinite(w) or w == 0.0:
                    continue
                assert N.inverse(w) == pytest.approx(u, rel=1e-9, abs=0.0)

    def test_overflow_saturates(self):
        assert exp_young(2.0)(1e6) == math.inf
        assert power_young(2.0)(1e200) == math.inf
        assert exp_young(2.0).inverse(math.inf) == math.inf

    def test_custom_overflow_reads_as_infinity(self):
        # u ** 2.0 raises OverflowError past u = 1.34e154; with no derivative
        # given, both central-difference reads overflow at 1e200
        N = custom_young(lambda u: u ** 2.0, lambda w: w ** 0.5)
        assert N(1e200) == math.inf
        assert N.derivative(2.0) == pytest.approx(4.0, rel=1e-9)
        for u in (1e154, math.nextafter(1.3407807929942596e154, 0.0), 1e200):
            d = N.derivative(u)
            assert d == math.inf or math.isfinite(d)
        assert N.derivative(1e200) == math.inf
        # a given derivative that raises OverflowError reads as +inf too
        cubic = custom_young(lambda u: u ** 3.0, lambda w: w ** (1.0 / 3.0),
                             derivative=lambda u: 3.0 * u ** 2.0)
        assert cubic.derivative(1e200) == math.inf
        assert cubic(1e200) == math.inf

    @pytest.mark.parametrize("u", [1e-320, 5e-324])
    def test_difference_step_never_underflows_to_zero(self, u):
        # u * 1e-6 underflows to 0 here, which divided by zero; the step is
        # one ulp instead, and N(u +- h) underflowing reads as slope 0
        square = custom_young(lambda u: u ** 2.0, lambda w: w ** 0.5)
        assert square.derivative(u) == 0.0
        identity = custom_young(lambda u: u, lambda w: w)
        assert identity.derivative(u) == 1.0

    def test_derivative_analytic_vs_difference(self):
        for N in FAMILIES:
            bare = custom_young(lambda u, N=N: N(u), lambda w, N=N: N.inverse(w))
            for u in (0.5, 1.0, 4.0):
                assert bare.derivative(u) == pytest.approx(N.derivative(u), rel=1e-6)

    def test_log_criterion_matches_the_direct_product(self):
        for N in FAMILIES:
            for c in (0.03125, 0.5, 1.0 / 1.1, 1.0, 1.1):
                log_f = N.log_criterion(c)
                for u in (1e-3, 0.5, 1.0, 4.0, 10.0):
                    direct = (N(c * u) / N(u)) * (N.derivative(u) / N(u))
                    assert math.exp(log_f(u)) == pytest.approx(direct, rel=1e-11, abs=0.0)
        assert custom_young(lambda u: u * u, math.sqrt).log_criterion is None

    def test_custom_requires_consistent_inverse(self):
        with pytest.raises(BadParameter):
            custom_young(lambda u: u * u, lambda w: w)  # wrong inverse
        with pytest.raises(BadParameter):
            custom_young(lambda u: u * u + 1.0, lambda w: math.sqrt(max(w - 1.0, 0.0)))

    def test_exp_one_constructible(self):
        # exp_m(1) behaves like u near 0, so its small-argument limit is 1
        # rather than 0; the family is used down to m = 1, so it is admitted
        N = exp_young(1.0)
        assert N(1.0) == pytest.approx(math.e - 1.0, rel=1e-15, abs=0.0)


def min_exp_log_form(m, c):
    """exp_m's log form with the branch test written as min(): the reference
    whose floats the two comparisons in ``young`` must give bit for bit."""
    log_m = math.log(m)
    log_cm = m * math.log(c)
    try:
        cm1 = math.expm1(log_cm)
    except OverflowError:
        cm1 = math.inf

    def g(u):
        log_u = math.log(u)
        log_x = m * log_u - log_m
        e = (m - 1.0) * log_u
        if cm1:
            e += cm1 * (math.exp(log_x) if log_x < 709.0 else math.inf)
        if min(log_x, log_x + log_cm) <= _LOG1MEXP_NEGLIGIBLE:
            e += _log1mexp(log_x + log_cm) - 2.0 * _log1mexp(log_x)
        return e

    return g


def min_delta_log_form(d, c, nodes=None):
    """delta's log form with the branch test written as min(), as above."""
    log_d = math.log(d)
    cm1 = c - 1.0

    def g(u):
        terms = None if nodes is None else nodes.get(u)
        if terms is None:
            L = math.log1p(u)
            log_L = math.log(L)
            one_u = 1.0 + u
            log_x = d * log_L
            x = math.exp(log_x)
            dl = (d - 1.0) * log_L
            l_x = _log1mexp(log_x)
            if nodes is not None:
                nodes[u] = (one_u, L, log_x, x, dl, l_x)
        else:
            one_u, L, log_x, x, dl, l_x = terms
        dr = d * math.log1p(math.log1p(cm1 * u / one_u) / L)
        e = x * math.expm1(dr) + log_d + dl - L
        if min(log_x, log_x + dr) <= _LOG1MEXP_NEGLIGIBLE:
            e += _log1mexp(log_x + dr) - 2.0 * l_x
        return e

    return g


LOG_FORM_SCALINGS = (1.0 / 32.0, 0.5, 1.0 / 1.1, 1.0, 1.1)
# log x around the branch threshold, and a wide sweep of it
LOG_X = sorted({_LOG1MEXP_NEGLIGIBLE + k / 64.0 for k in range(-96, 97)}
               | {k / 4.0 for k in range(-40, 41)})


class TestLogFormBranch:
    """The l-terms apply where log x or the scaled log x is at most 3.7:
    two comparisons decide that as min() of the two did, on either side
    of the threshold and across it under each scaling."""

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.0])
    def test_exp_m_matches_the_min_branch(self, m):
        N = exp_young(m)
        us = [math.exp((lx + math.log(m)) / m) for lx in LOG_X]
        for c in LOG_FORM_SCALINGS:
            got, want, kept = N.log_criterion(c), min_exp_log_form(m, c), N.log_criterion(c, {})
            for u in us:
                assert got(u) == want(u) and kept(u) == want(u)

    @pytest.mark.parametrize("d", [1.2, 2.0, 3.0])
    def test_delta_matches_the_min_branch(self, d):
        N = delta_young(d)
        # u = e^L - 1 with L = x^(1/d), where u is a float
        us = [math.expm1(math.exp(lx / d)) for lx in LOG_X if math.exp(lx / d) < 709.0]
        assert max(us) > math.expm1(math.exp(_LOG1MEXP_NEGLIGIBLE / d))
        nodes, ref_nodes = {}, {}
        for c in LOG_FORM_SCALINGS:
            got, want = N.log_criterion(c), min_delta_log_form(d, c)
            kept, ref_kept = N.log_criterion(c, nodes), min_delta_log_form(d, c, ref_nodes)
            for u in us:
                assert got(u) == want(u)
                assert kept(u) == ref_kept(u) == want(u)
        assert nodes == ref_nodes

    def test_nodes_lie_on_both_sides_of_the_threshold(self):
        below = sum(lx <= _LOG1MEXP_NEGLIGIBLE for lx in LOG_X)
        assert 0 < below < len(LOG_X)
