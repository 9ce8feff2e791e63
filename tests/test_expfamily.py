import math

import pytest

from orlicz.errors import BadAlpha, BadParameter
from orlicz.expfamily import (
    critical_alpha,
    critical_alpha_at_mass,
    exp_embedding_constant,
    exp_embedding_modular,
    gauge_quadrature,
    gauge_series,
    gauge_slope_at_zero,
)

from oracle_values import BETA0, EXP_ALPHA_BY_MASS, EXP_K0_BY_MASS, GAUGE, K0_EXP, TWO_LN_TWO


class TestGaugeSeries:
    def test_intercept(self):
        assert gauge_series(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_values(self):
        for alpha, expected in GAUGE.items():
            assert gauge_series(alpha) == pytest.approx(expected, rel=1e-12)

    def test_negative_alpha(self):
        # analytic value at alpha = -1: int (1-z)^-2 z dz = 1 - ln 2
        assert gauge_series(-1.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-12, abs=0.0)

    def test_alpha_domain(self):
        with pytest.raises(BadAlpha):
            gauge_series(1.0)
        with pytest.raises(BadAlpha):
            gauge_series(1.5)


class TestGaugeQuadrature:
    def test_intercept_antiderivative(self):
        assert gauge_quadrature(0.0) == pytest.approx(1.0, rel=1e-10)

    def test_agrees_with_series_on_grid(self):
        worst = max(
            abs(gauge_series(a) - gauge_quadrature(a))
            for a in [i * 0.9 / 49.0 for i in range(50)]
        )
        assert worst <= 1e-8

    def test_near_one_asymptote(self):
        assert gauge_quadrature(0.999) == pytest.approx(1000.0, rel=0.1)

    def test_negative_alpha_direct_path(self):
        assert gauge_quadrature(-1.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-10)

    def test_alpha_domain(self):
        with pytest.raises(BadAlpha):
            gauge_quadrature(1.2)


class TestCriticalAlpha:
    def test_interval_and_residual(self):
        a0 = critical_alpha(1e-10)
        assert 0.431865 <= a0 <= 0.431875
        assert abs(gauge_series(a0) - 2.0) <= 1e-10
        assert a0 == pytest.approx(BETA0, abs=5e-12)

    def test_strict_lower_bound_at_root(self):
        a0 = critical_alpha(1e-10)
        bound = 2.0 ** (a0 - 1.0) / (1.0 - a0)
        assert gauge_series(a0) > bound

    def test_tol_domain(self):
        with pytest.raises(BadParameter):
            critical_alpha(1e-15)


class TestCriticalAlphaAtMass:
    @pytest.mark.parametrize("mass", sorted(EXP_ALPHA_BY_MASS))
    def test_matches_mpmath(self, mass):
        exact = EXP_ALPHA_BY_MASS[mass]
        assert abs(critical_alpha_at_mass(mass) - exact) <= 1e-15 * exact

    def test_unit_mass_is_the_gauge_root(self):
        assert abs(critical_alpha_at_mass(1.0) - BETA0) <= 1e-15 * BETA0
        assert critical_alpha(1e-10) == critical_alpha_at_mass(1.0)

    def test_constants_match_frozen_to_rounding(self):
        for m, exact in K0_EXP.items():
            assert abs(exp_embedding_constant(m) - exact) <= 1e-15 * exact
        for (m, mass), exact in EXP_K0_BY_MASS.items():
            assert abs(exp_embedding_constant(m, mass) - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("mass", [1e-6, 0.25, 1.0, 4.0, 1e12])
    def test_modular_is_one_at_the_root(self, mass):
        k0 = exp_embedding_constant(2.0, mass)
        assert exp_embedding_modular(2.0, k0, mass) == pytest.approx(1.0, abs=1e-14)

    def test_modular_cross_check_by_quadrature_at_mass(self):
        # Q = int_0^z s^-alpha (1 - s)^-2 ds - M; the substitution s = u^q,
        # q = 1/(1 - alpha), absorbs the s^-alpha endpoint factor exactly
        from orlicz.numerics import integrate

        for mass in (0.25, 4.0):
            z = mass / (mass + 1.0)
            alpha = 1.5 ** -3.0
            q = 1.0 / (1.0 - alpha)
            quad = q * integrate(lambda u: (1.0 - u ** q) ** -2.0, 0.0,
                                 z ** (1.0 - alpha)).require_finite() - mass
            assert exp_embedding_modular(3.0, 1.5, mass) == pytest.approx(quad, rel=1e-9)

    def test_mass_domain(self):
        for mass in (0.0, -1.0, math.inf):
            with pytest.raises(BadParameter):
                critical_alpha_at_mass(mass)
            with pytest.raises(BadParameter):
                exp_embedding_modular(2.0, 1.5, mass)

    def test_mass_whose_reciprocal_overflows(self):
        for mass in (1e-309, 1e-310):
            with pytest.raises(BadParameter, match=repr(mass)):
                critical_alpha_at_mass(mass)
        assert 0.0 < critical_alpha_at_mass(1e-308) < 1.0


class TestEmbeddingClosedForms:
    def test_constants_match_frozen(self):
        for m, expected in K0_EXP.items():
            assert exp_embedding_constant(m) == pytest.approx(expected, abs=1e-9)

    def test_reciprocal_at_m_one(self):
        assert exp_embedding_constant(1.0) == pytest.approx(1.0 / BETA0, rel=1e-10)

    def test_limit_toward_one(self):
        ks = [exp_embedding_constant(m) for m in (1.0, 2.0, 5.0, 20.0, 100.0)]
        assert all(a > b for a, b in zip(ks, ks[1:]))
        assert ks[-1] < 1.01

    def test_parameter_domain(self):
        with pytest.raises(BadParameter):
            exp_embedding_constant(0.0)
        with pytest.raises(BadParameter):
            exp_embedding_constant(-1.0)

    def test_modular_at_the_constant_is_one(self):
        k0 = exp_embedding_constant(2.0)
        assert exp_embedding_modular(2.0, k0) == pytest.approx(1.0, abs=1e-10)

    def test_modular_vanishes_at_large_scale(self):
        assert exp_embedding_modular(2.0, 100.0) < 1e-3

    def test_modular_cross_check_by_quadrature(self):
        got = exp_embedding_modular(3.0, 1.5)
        assert got == pytest.approx(gauge_quadrature(1.5 ** -3.0) - 1.0, abs=1e-8)

    def test_modular_domain(self):
        with pytest.raises(BadParameter):
            exp_embedding_modular(2.0, 1.0)
        with pytest.raises(BadParameter):
            exp_embedding_modular(0.0, 2.0)


class TestSlopeAtZero:
    def test_quadrature_matches_analytic(self):
        quad, analytic = gauge_slope_at_zero()
        assert analytic == TWO_LN_TWO
        assert quad == pytest.approx(analytic, abs=1e-8)

    def test_small_alpha_expansion(self):
        slope = (gauge_series(1e-4) - 1.0) / 1e-4
        assert slope == pytest.approx(TWO_LN_TWO, abs=1e-3)
