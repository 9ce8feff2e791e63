"""Ledger of known defects: each test asserts the right answer and fails today.

Every test here is marked ``xfail(strict=True)`` (``xfail_strict`` is also
set in ``pyproject.toml``), and its reason quotes the first words of the
``FOUND:`` line in CHANGES.md that it stands for; that line names the
test.  A change that mends a defect turns its test into an XPASS, which
fails the suite: the test then moves into the regular suite, without the
mark, and the line becomes ``MENDED:``.
"""

import math

import pytest

from orlicz.embedding import (NON_COINCIDENT, coincidence_criterion, embedding_modular,
                               extremal_function)
from orlicz.expfamily import exp_embedding_modular
from orlicz.norms import lebesgue_norm, luxemburg_norm, modular, weak_norm
from orlicz.tails import AnalyticTail, TailRepFunction
from orlicz.young import delta_young, exp_young, power_young


@pytest.mark.xfail(strict=True, reason="FOUND: an `AnalyticTail` with a kink it does not "
                                       "declare as a break (infinite-mass half)")
def test_sub_mass_plateau_kink():
    # min(c, t^-q) on infinite mass has a plateau below the mass, whose end
    # t1 = c^(-1/q) is an undeclared kink; under power(p) the modular at 1
    # is c t1^p + p t1^(p-q) / (q - p) = 2.809603, and reads 2.809889
    p, q, c = 3.4930, 5.3920, 0.9705
    f = TailRepFunction(AnalyticTail(lambda t: min(c, t ** -q)), math.inf)
    t1 = c ** (-1.0 / q)
    exact = c * t1 ** p + p * t1 ** (p - q) / (q - p)
    assert modular(power_young(p), f, 1.0).value == pytest.approx(exact, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="FOUND: `norms.modular` on an analytic tail still has "
                                       "only absolute accuracy where its value is small")
def test_small_modular_has_relative_accuracy():
    # sigma^p q / (q - p) with sigma = 1e-9; the kernel stops at ABS_TOL, so
    # the modular reads 1.3386598902706333e-14, 1.1e-4 off
    f = TailRepFunction(AnalyticTail(lambda t: min(1.0, (t / 1e-9) ** -5.376)), 1.0)
    value = modular(power_young(1.558), f, 1.0).value
    assert value == pytest.approx(1.3385152882912948e-14, rel=1e-12, abs=0.0)


@pytest.mark.xfail(strict=True, reason="FOUND: `weak_norm` returns a finite value where g "
                                       "grows without bound as t → 0 on infinite mass")
def test_weak_norm_unbounded_at_zero_on_infinite_mass():
    # g(t) = t^(-1/20) under power(2) for t^-2.1: the sup is +inf, and the
    # grid reads 2.18e7 where the tail leaves the float range
    f = TailRepFunction(AnalyticTail(lambda t: t ** -2.1), math.inf)
    assert weak_norm(power_young(2.0), f).value == math.inf


@pytest.mark.xfail(strict=True, reason="FOUND: `lebesgue_norm(extremal_function(delta_young(3), "
                                       "1), 200)` now returns 236.1298689413372")
def test_delta3_extremal_lebesgue_norm_at_p200():
    # the mpmath value; the norm reads 1.0e-9 low
    r = lebesgue_norm(extremal_function(delta_young(3.0), 1.0), 200.0)
    assert r.value == pytest.approx(236.12986917594407, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="FOUND: `embedding_modular(delta_young(2.0), k, 1.0)` "
                                       "returns \"divergent\" for k ≤ 1.1")
def test_delta2_embedding_modular_near_one():
    # the mpmath value; the ladder raises BudgetExceeded at k = 1.2
    r = embedding_modular(delta_young(2.0), 1.2, 1.0)
    assert r.value == pytest.approx(15.807191058972247, rel=1e-9, abs=0.0)


@pytest.mark.xfail(strict=True, reason="FOUND: `coincidence_criterion(delta_young(D), 1.0)` "
                                       "reports C = 1/2 as \"divergent\"")
def test_delta13_criterion_never_calls_a_finite_integral_divergent():
    # the integral at C = 1/2 is finite: "finite" or "inconclusive" is right
    trail = {c: tag for c, tag, _ in coincidence_criterion(delta_young(1.3), 1.0).trail}
    assert trail[0.5] in ("finite", "inconclusive")


@pytest.mark.xfail(strict=True, reason="FOUND: `norms.modular` on an analytic tail returns a "
                                       "finite value where the modular diverges at large k")
def test_exp_m_power_tail_modular_diverges_at_large_k():
    # N'(t/k) outgrows every power of t, so the modular is +inf for every k;
    # at k = 792.8 it reads finite 6.62e-08
    q = 4.948772313618792
    f = TailRepFunction(AnalyticTail(lambda t: min(1.0, t ** -q)), 1.0)
    assert modular(exp_young(2.4444304256819116), f, 792.8).is_divergent


@pytest.mark.xfail(strict=True, reason="FOUND: `lebesgue_norm` of the delta extremal functions "
                                       "at p = 50 still reads \"divergent\"")
def test_delta2_extremal_lebesgue_norm_at_p50():
    # the mpmath value; the norm reads "divergent"
    r = lebesgue_norm(extremal_function(delta_young(2.0), 1.0), 50.0)
    assert r.value == pytest.approx(293516.0961866015, rel=1e-9, abs=0.0)


@pytest.mark.xfail(strict=True, reason="FOUND: `norms._log_t_sup` still grows the grid one decade "
                                       "(20 nodes) at a time")
def test_weak_norm_of_a_tail_heavier_than_n_is_unbounded():
    # q = 1.75 < p = 1.852: g = t^(1 - q/p) grows without bound, so the norm
    # is +inf; the grid climbs 3,348 tail reads to t = 1.4e176, where T
    # underflows, and reads 5,027,138,896.230971 there
    f = TailRepFunction(AnalyticTail(lambda t: min(1.0, t ** -1.75)), 1.0)
    assert weak_norm(power_young(1.852), f).value == math.inf


@pytest.mark.xfail(strict=True, reason="FOUND: `lebesgue_norm` no longer calls a heavy tail with a "
                                       "large plateau divergent at large p")
def test_heavy_tail_with_a_large_plateau_is_divergent_at_large_p():
    # q = 1 < p = 200, so the integral is +inf; the modular at the plateau
    # end t_p = 100 overflows before three ladder slopes exist, the weak
    # norm is above 2^64, and the norm raises NonEvaluable
    f = TailRepFunction(AnalyticTail(lambda t: min(0.01, 1.0 / t)), 0.01)
    assert lebesgue_norm(f, 200.0).is_divergent


@pytest.mark.xfail(strict=True, reason="FOUND: `embedding_modular(exp_young(0.5), k, M)` reads "
                                       "\"divergent\" for k in {1.05, 1.2}")
@pytest.mark.parametrize("k", [1.05, 1.2])
@pytest.mark.parametrize("mass", [0.25, 1.0, 4.0])
def test_exp_half_embedding_modular_near_one(k, mass):
    # finite in closed form (11.301296936240378 at k = 1.2 on unit mass); the
    # ladder calls its shallow decades divergent
    exact = exp_embedding_modular(0.5, k, mass)
    assert embedding_modular(exp_young(0.5), k, mass).value == pytest.approx(exact, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="FOUND: `embedding_modular(delta_young(1.6), 2, 1)` raises "
                                       "BudgetExceeded")
def test_delta16_embedding_modular_at_two():
    # the mpmath value, recomputed at 40 and 50 digits; the ladder is exhausted
    r = embedding_modular(delta_young(1.6), 2.0, 1.0)
    assert r.value == pytest.approx(3.4160633051748883, rel=1e-9, abs=0.0)


@pytest.mark.xfail(strict=True, reason="FOUND: `embedding_modular(delta_young(1.4), 2, 1)` reads "
                                       "\"divergent\"")
def test_delta14_embedding_modular_at_two():
    # the mpmath value, recomputed at 40 and 50 digits; the ladder's slopes
    # sit near -1, lifted by the slowly varying ln t factor
    r = embedding_modular(delta_young(1.4), 2.0, 1.0)
    assert r.value == pytest.approx(13.302692908914265, rel=1e-9, abs=0.0)


@pytest.mark.xfail(strict=True, reason="FOUND: `modular(exp_young(2), extremal_function("
                                       "exp_young(2), 1), 1)` reads finite 700.9999999999982")
def test_exp2_extremal_modular_at_one_is_divergent():
    # Q(1) = log N(inf) - log N(t0) = +inf; the tail reads 1/N = 0 past N's
    # cap, which bounds the integral
    N = exp_young(2.0)
    assert modular(N, extremal_function(N, 1.0), 1.0).is_divergent


@pytest.mark.xfail(strict=True, reason="FOUND: `modular(exp_young(2), extremal_function("
                                       "exp_young(2), 1), 1.001)` reads 377.25013588159203")
def test_exp2_extremal_modular_just_above_one():
    # the closed form is 500.7457234052751, 25% above the value read
    N = exp_young(2.0)
    exact = exp_embedding_modular(2.0, 1.001, 1.0)
    assert modular(N, extremal_function(N, 1.0), 1.001).value == pytest.approx(exact, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="FOUND: `modular(exp_young(300), extremal_function("
                                       "exp_young(300), inf), 2)` reads finite "
                                       "2.570508291106807e-88")
def test_exp300_extremal_modular_on_infinite_mass_is_divergent():
    # the integrand decays like 1/t near 0; N'(t/2) underflows to 0 where T
    # is +inf, so the integrand reads 0 there
    N = exp_young(300.0)
    assert modular(N, extremal_function(N, math.inf), 2.0).is_divergent


@pytest.mark.xfail(strict=True, reason="FOUND: `luxemburg_norm(power_young(2.7238), min(1, t^-q))` "
                                       "with q − p = 0.0097 is +inf")
def test_power_tail_strong_norm_with_q_close_to_p():
    # the bench's known class "strong norm +inf, finite exact": the closed
    # form (q/(q - p))^(1/p) is 7.933399740984223
    p = 2.7238
    q = p + 0.0097
    f = TailRepFunction(AnalyticTail(lambda t: min(1.0, t ** -q)), 1.0)
    exact = (q / (q - p)) ** (1.0 / p)
    assert luxemburg_norm(power_young(p), f).value == pytest.approx(exact, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="FOUND: `coincidence_criterion(delta_young(1.1), 1)"
                                       ".verdict` is \"non-coincident\"")
def test_delta11_criterion_is_not_non_coincident():
    # the delta family is coincident: "coincident" or "inconclusive" is right
    assert coincidence_criterion(delta_young(1.1), 1.0).verdict != NON_COINCIDENT
