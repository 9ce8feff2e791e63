import dataclasses
import itertools
import json
import math

import pytest

from orlicz.embedding import (
    COINCIDENT,
    INCONCLUSIVE,
    NON_COINCIDENT,
    Q_TOL,
    _k0_search,
    coincidence_criterion,
    embedding_constant,
    embedding_modular,
    embedding_report,
    extremal_function,
    unit_threshold,
)
from orlicz.errors import BadParameter, DivergentModular, NonEvaluable
from orlicz.expfamily import exp_embedding_constant, exp_embedding_modular
from orlicz.norms import luxemburg_norm, modular, weak_norm
from orlicz.young import custom_young, delta_young, exp_young, power_young

from oracle_values import DELTA2_CRITERION_T_FORM, DELTA2_K0, EXP_K0_BY_MASS, K0_EXP, Y0_EXP2


class TestUnitThreshold:
    def test_exp_family_closed_form(self):
        for m in (1.0, 1.5, 2.0, 3.0):
            got = unit_threshold(exp_young(m), 1.0)
            assert got == pytest.approx((m * math.log(2.0)) ** (1.0 / m), rel=1e-12)

    def test_exp_two(self):
        assert unit_threshold(exp_young(2.0), 1.0) == pytest.approx(Y0_EXP2, abs=1e-12)

    def test_infinite_mass_gives_zero(self):
        assert unit_threshold(exp_young(2.0), math.inf) == 0.0

    def test_general_mass(self):
        N = power_young(2.0)
        assert unit_threshold(N, 4.0) == pytest.approx(0.5, rel=1e-12)

    def test_mass_whose_reciprocal_overflows(self):
        # 1/M is +inf below about 5.6e-309, so N^-1(1/M) is no threshold
        for N in (exp_young(2.0), delta_young(2.0), power_young(2.0)):
            with pytest.raises(BadParameter, match="1e-309"):
                unit_threshold(N, 1e-309)
        with pytest.raises(BadParameter, match="1e-310"):
            embedding_report(exp_young(2.0), 1e-310)
        with pytest.raises(BadParameter, match="1e-309"):
            embedding_report(delta_young(2.0), 1e-309)
        assert unit_threshold(exp_young(2.0), 1e-308) < math.inf


class TestEmbeddingModular:
    def test_unit_value_at_the_constant(self):
        k0 = exp_embedding_constant(2.0)
        r = embedding_modular(exp_young(2.0), k0, 1.0)
        assert r.value == pytest.approx(1.0, abs=1e-6)

    def test_power_family_divergent_at_any_scale(self):
        for k in (1.5, 3.0, 10.0):
            assert embedding_modular(power_young(2.0), k, 1.0).is_divergent

    def test_small_at_large_scale(self):
        r = embedding_modular(exp_young(2.0), 100.0, 1.0)
        assert r.value < 1e-3

    def test_matches_closed_form(self):
        for m in (1.0, 2.0, 3.0):
            for k in (1.5, 2.0):
                got = embedding_modular(exp_young(m), k, 1.0).require_finite()
                assert got == pytest.approx(exp_embedding_modular(m, k), abs=1e-6)

    def test_strictly_decreasing(self):
        N = exp_young(2.0)
        ks = [1.05 + (50.0 - 1.05) * i / 19.0 for i in range(20)]
        qs = [embedding_modular(N, k, 1.0).require_finite() for k in ks]
        assert all(a > b for a, b in zip(qs, qs[1:]))

    def test_blows_up_toward_one(self):
        r = embedding_modular(exp_young(2.0), 1.001, 1.0)
        assert r.is_divergent or r.value > 100.0

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            embedding_modular(exp_young(2.0), 0.0, 1.0)

    def test_tiny_scale_reports_divergence_not_overflow(self):
        r = embedding_modular(exp_young(2.0), 0.01, 1.0)
        assert r.is_divergent

    def test_custom_function_uses_the_direct_product(self):
        # without a log form the integrand is N(ct) N'(t) / N(t)^2 as a
        # product: it matches the oracle while N is representable and
        # refuses to turn an overflowing N into a silent zero
        D = delta_young(2.0)
        bare = custom_young(lambda u: D(u), D.inverse, D.derivative)
        r = embedding_modular(bare, 2.0, 1.0)
        assert r.value == pytest.approx(DELTA2_CRITERION_T_FORM[2.0], rel=1e-7)
        E = exp_young(2.0)
        bare = custom_young(lambda u: E(u), E.inverse, E.derivative)
        with pytest.raises(NonEvaluable):
            embedding_modular(bare, 2.0, 1.0)


class TestCriterion:
    def test_exp_family_coincident_with_half_witness(self):
        crit = coincidence_criterion(exp_young(2.0), 1.0)
        assert crit.verdict == COINCIDENT
        assert crit.witness == pytest.approx(0.5)
        assert crit.trail[0][1] == "divergent"  # scaling 1 is always divergent

    def test_power_family_divergent_everywhere(self):
        crit = coincidence_criterion(power_young(2.0), 1.0)
        assert crit.verdict == NON_COINCIDENT
        assert all(outcome == "divergent" for _, outcome, _ in crit.trail)

    def test_delta_family_numerically_inconclusive(self):
        # on the t-axis the integrand at scaling 1/2 decays like the clean
        # power 2 ln t t^(-1 - 2 ln 2), so the ladder settles the witness
        # that the substituted w-axis form could not
        crit = coincidence_criterion(delta_young(2.0), 1.0)
        assert crit.verdict == COINCIDENT
        assert crit.witness == 0.5
        c, outcome, value = crit.trail[-1]
        assert (c, outcome) == (0.5, "finite")
        assert value == pytest.approx(DELTA2_CRITERION_T_FORM[2.0], rel=1e-7)

    def test_infinite_mass_breaks_coincidence(self):
        crit = coincidence_criterion(exp_young(2.0), math.inf)
        assert crit.verdict == NON_COINCIDENT

    def test_underflowed_zero_is_no_witness(self):
        # m c^m / t underflows to 0 for exp_m(300) at C = 1/16: the
        # integrand is positive, so 0.0 is no finite value
        crit = coincidence_criterion(exp_young(300.0), math.inf)
        assert crit.verdict != COINCIDENT
        assert crit.witness is None
        assert all(value != 0.0 for _, tag, value in crit.trail if tag == "finite")
        assert any(tag == INCONCLUSIVE and "0.0" in value for _, tag, value in crit.trail)
        assert embedding_report(exp_young(300.0), math.inf).numeric_verdict != COINCIDENT
        for m in (100.0, 150.0, 300.0):
            for mass in (0.25, 1.0, 4.0, math.inf):
                trail = coincidence_criterion(exp_young(m), mass).trail
                assert all(value != 0.0 for _, tag, value in trail if tag == "finite")

    @pytest.mark.parametrize("N", [exp_young(2.0), delta_young(2.0), power_young(2.0)])
    @pytest.mark.parametrize("mass", [0.25, math.inf])
    def test_scaling_one_is_divergent_without_a_ladder(self, N, mass, monkeypatch):
        import orlicz.embedding as emb

        seen = []
        original = emb._criterion_integrand
        monkeypatch.setattr(emb, "_criterion_integrand",
                            lambda N, c: seen.append(c) or original(N, c))
        crit = coincidence_criterion(N, mass)
        assert crit.trail[0] == (1.0, "divergent", None)
        assert 1.0 not in seen


class TestEmbeddingConstant:
    def test_exp_two(self):
        k0 = embedding_constant(exp_young(2.0), 1.0)
        assert k0 == pytest.approx(K0_EXP[2.0], abs=1e-4)

    def test_exp_hundred_near_one(self):
        k0 = embedding_constant(exp_young(100.0), 1.0)
        assert 1.0 < k0 < 1.01

    def test_matches_closed_form_across_m(self):
        for m in (1.5, 2.0, 3.0):
            k0 = embedding_constant(exp_young(m), 1.0)
            assert k0 == pytest.approx(K0_EXP[m], abs=1e-4)

    def test_power_family_raises(self):
        with pytest.raises(DivergentModular):
            embedding_constant(power_young(2.0), 1.0)

    def test_delta_family_raises_by_verdict(self):
        # delta(D) is coincident, so the constant exists; raising by
        # verdict stays covered by test_power_family_raises
        for mass, k0 in DELTA2_K0.items():
            assert embedding_constant(delta_young(2.0), mass) == pytest.approx(k0, rel=1e-9)

    @pytest.mark.parametrize("m", [150.0, 300.0])
    @pytest.mark.parametrize("mass", [0.25, 1.0, 4.0])
    def test_exp_large_m(self, m, mass):
        # the integrand lives in a window about t0/m wide above t0, narrow
        # against the decade that holds it
        exact = exp_embedding_constant(m) if mass == 1.0 else EXP_K0_BY_MASS[(m, mass)]
        assert embedding_constant(exp_young(m), mass) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0, 150.0, 300.0])
    @pytest.mark.parametrize("mass", [0.25, 1.0, 4.0])
    def test_search_matches_closed_form(self, m, mass):
        # exp_m reports no longer run the crossing search, delta does: the
        # search stays gated on the exact answer, at m >= 150 too, where
        # the integrand lives in a window about t0/m wide above t0.  exp_m
        # relabelled as custom keeps its Q and log form, and takes the search
        N = exp_young(m)
        trail = coincidence_criterion(N, mass).trail
        k0, q_at_k0 = _k0_search(dataclasses.replace(N, family="custom"), mass, trail, [])
        closed = exp_embedding_constant(m, mass)
        assert abs(k0 - closed) <= 1e-12 * closed
        assert 1.0 - Q_TOL <= q_at_k0 <= 1.0

    def test_modular_at_result_is_one(self):
        N = exp_young(2.0)
        k0 = embedding_constant(N, 1.0)
        assert embedding_modular(N, k0, 1.0).value == pytest.approx(1.0, abs=1e-8)


class TestExtremalFunction:
    def test_unit_weak_norm(self):
        N = exp_young(2.0)
        assert weak_norm(N, extremal_function(N, 1.0)).value == pytest.approx(1.0, abs=1e-8)

    def test_strong_norm_attains_the_constant(self):
        N = exp_young(2.0)
        k0 = embedding_constant(N, 1.0)
        lux = luxemburg_norm(N, extremal_function(N, 1.0))
        assert lux.value == pytest.approx(k0, rel=1e-4)

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_exp_strong_norm_equals_k0(self, m):
        N = exp_young(m)
        assert luxemburg_norm(N, extremal_function(N, 1.0)).value == pytest.approx(
            K0_EXP[m], rel=1e-13
        )

    @pytest.mark.parametrize("mass", sorted(DELTA2_K0))
    def test_delta_strong_norm_equals_k0(self, mass):
        N = delta_young(2.0)
        assert luxemburg_norm(N, extremal_function(N, mass)).value == pytest.approx(
            DELTA2_K0[mass], rel=1e-12
        )

    def test_undeclared_kink_modular_meets_the_closed_form(self):
        # the tail declares no break at t0: the modular takes the plateau
        # (0, t0] in closed form and integrates only past it
        N = exp_young(2.0)
        for mass, k in itertools.product((0.25, 1.0, 4.0), (1.5, 2.0, 4.0)):
            f = extremal_function(N, mass)
            assert f.tail.breaks == ()
            assert modular(N, f, k).value == pytest.approx(
                exp_embedding_modular(2.0, k, mass), rel=1e-14)

    def test_mass_whose_reciprocal_overflows(self):
        # its weak norm would read 0 in place of 1
        with pytest.raises(BadParameter, match="1e-310"):
            extremal_function(exp_young(2.0), 1e-310)

    def test_power_family_strong_norm_infinite(self):
        N = power_young(2.0)
        assert luxemburg_norm(N, extremal_function(N, 1.0)).value == math.inf

    def test_dilated_extremal_scales(self):
        # the norm must come out as 10 * k0 by homogeneity; its bracket
        # starts at the weak norm 10, above every scale where the modular's
        # integrand overflows
        from orlicz.tails import TailRepFunction, dilate

        N = exp_young(2.0)
        k0 = embedding_constant(N, 1.0)
        g10 = TailRepFunction(dilate(extremal_function(N, 1.0).tail, 10.0), 1.0)
        lux = luxemburg_norm(N, g10)
        assert lux.value == pytest.approx(10.0 * k0, rel=1e-4)
        assert weak_norm(N, g10).value == pytest.approx(10.0, rel=1e-8)


class TestReport:
    def test_exp_two_report(self):
        rep = embedding_report(exp_young(2.0), 1.0)
        assert rep.verdict == COINCIDENT
        assert rep.classifier_agreement == "agreed"
        assert rep.embedding_constant == pytest.approx(K0_EXP[2.0], abs=1e-4)
        assert rep.embedding_constant_modular == pytest.approx(1.0, abs=1e-8)
        assert 1.0 < rep.embedding_constant < math.inf
        assert rep.sharp
        assert rep.unit_threshold == pytest.approx(Y0_EXP2, abs=1e-12)

    def test_power_report(self):
        rep = embedding_report(power_young(4.0), 1.0)
        assert rep.verdict == NON_COINCIDENT
        assert rep.embedding_constant is None
        assert rep.classifier_agreement == "agreed"
        assert not rep.sharp

    def test_delta_report_records_disagreement_honestly(self):
        # delta(1.2) lies beyond the reach of the cutoff ladder: the
        # report must say so rather than raise or invent a constant
        rep = embedding_report(delta_young(1.2), 1.0)
        assert rep.numeric_verdict == INCONCLUSIVE
        assert rep.classifier_agreement == "inconclusive"
        assert rep.verdict == INCONCLUSIVE
        assert rep.embedding_constant is None
        assert rep.embedding_constant_modular is None
        assert not rep.sharp
        assert rep.q_trace[-1][1] == INCONCLUSIVE
        assert isinstance(rep.q_trace[-1][2], str)

        rep2 = embedding_report(delta_young(2.0), 1.0)
        assert rep2.verdict == COINCIDENT
        assert rep2.numeric_verdict == COINCIDENT
        assert rep2.classifier_agreement == "agreed"

    def test_modular_at_k0_at_most_one(self):
        # where k0 comes from the crossing search (delta, and every family
        # without a closed form) it is the bracket end where Q <= 1, as for
        # the Luxemburg norm
        rep = embedding_report(delta_young(2.0), 0.25)
        assert 1.0 - Q_TOL <= rep.embedding_constant_modular <= 1.0

    @pytest.mark.parametrize("m", [1.0, 1.5, 2.0, 3.0, 150.0])
    @pytest.mark.parametrize("mass", [0.25, 1.0, 4.0])
    def test_exp_k0_is_the_closed_form_certified_once(self, m, mass):
        rep = embedding_report(exp_young(m), mass)
        assert rep.embedding_constant == exp_embedding_constant(m, mass)
        assert len(rep.q_trace) == 1
        k, tag, value = rep.q_trace[0]
        assert (k, tag, value) == (rep.embedding_constant, "finite",
                                   rep.embedding_constant_modular)
        assert abs(value - 1.0) <= Q_TOL

    def test_closed_form_k0_that_misses_q_tol_is_inconclusive(self, monkeypatch):
        # the certifying Q decides; there is no fallback to the search
        import orlicz.embedding as emb

        monkeypatch.setattr(emb, "exp_embedding_constant", lambda m, mass: 1.01 * K0_EXP[m])
        rep = embedding_report(exp_young(2.0), 1.0)
        assert rep.verdict == INCONCLUSIVE
        assert rep.embedding_constant is None
        assert len(rep.q_trace) == 2
        assert rep.q_trace[-1][1] == INCONCLUSIVE and "exceeds" in rep.q_trace[-1][2]

    def test_exp_smaller_mass(self):
        # halving the mass moves the constant but keeps coincidence
        rep = embedding_report(exp_young(2.0), 0.5)
        assert rep.verdict == COINCIDENT
        assert 1.0 < rep.embedding_constant

    def test_infinite_mass_no_override(self):
        rep = embedding_report(exp_young(2.0), math.inf)
        assert rep.verdict == NON_COINCIDENT
        assert rep.override_verdict is None
        assert rep.classifier_agreement is None

    def test_report_serializes(self):
        rep = embedding_report(exp_young(2.0), 1.0)
        text = json.dumps(rep.to_dict(), sort_keys=True)
        assert "embedding_constant" in text
        rep_inf = embedding_report(exp_young(2.0), math.inf)
        decoded = json.loads(json.dumps(rep_inf.to_dict()))
        assert decoded["total_mass"] == "inf"
