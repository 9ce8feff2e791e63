import dataclasses
import gc
import itertools
import json
import math
import weakref

import pytest

import orlicz.embedding as embedding_module
from orlicz.embedding import (
    COINCIDENT,
    INCONCLUSIVE,
    NON_COINCIDENT,
    Q_TOL,
    _k0_search,
    _with_node_memo,
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
from orlicz.young import custom_young, delta_young, exp_young, make_young, power_young

from oracle_values import DELTA2_CRITERION_T_FORM, DELTA2_K0, EXP_K0_BY_MASS, K0_EXP, Y0_EXP2


class TestUnitThreshold:
    def test_exp_family_closed_form(self):
        for m in (1.0, 1.5, 2.0, 3.0):
            got = unit_threshold(exp_young(m), 1.0)
            assert got == pytest.approx((m * math.log(2.0)) ** (1.0 / m), rel=1e-12, abs=0.0)

    def test_exp_two(self):
        assert unit_threshold(exp_young(2.0), 1.0) == pytest.approx(Y0_EXP2, abs=1e-12)

    def test_infinite_mass_gives_zero(self):
        assert unit_threshold(exp_young(2.0), math.inf) == 0.0

    def test_general_mass(self):
        N = power_young(2.0)
        assert unit_threshold(N, 4.0) == pytest.approx(0.5, rel=1e-12, abs=0.0)

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
            K0_EXP[m], rel=1e-13, abs=0.0
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
                exp_embedding_modular(2.0, k, mass), rel=1e-14, abs=0.0)

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

    def test_unsettled_q_off_the_criterion_trail(self):
        # delta(1.1): the k0 search reads a Q that no scaling of the
        # criterion trail gave, and that Q raises; the report is
        # inconclusive, with that Q last in its trace
        rep = embedding_report(delta_young(1.1), 1.0)
        assert rep.verdict == INCONCLUSIVE
        assert rep.embedding_constant is None and rep.embedding_constant_modular is None
        k, tag, reason = rep.q_trace[-1]
        assert tag == INCONCLUSIVE and isinstance(reason, str)
        assert k not in {1.0 / c for c, _, _ in rep.criterion_trail}
        # "disagreed" exactly where the numeric verdict is conclusive and
        # differs from the family's
        conclusive = rep.numeric_verdict in (COINCIDENT, NON_COINCIDENT)
        assert (rep.classifier_agreement == "disagreed") == (
            conclusive and rep.numeric_verdict != rep.override_verdict)

    def test_report_serializes(self):
        rep = embedding_report(exp_young(2.0), 1.0)
        text = json.dumps(rep.to_dict(), sort_keys=True)
        assert "embedding_constant" in text
        rep_inf = embedding_report(exp_young(2.0), math.inf)
        decoded = json.loads(json.dumps(rep_inf.to_dict()))
        assert decoded["total_mass"] == "inf"


# (family, param, mass), verdict, embedding_constant,
# embedding_constant_modular and q_trace of reports drawn with
# random.Random(27) (delta D in [1.9, 3], exp_m m in [1, 3], masses in
# [0.25, 4]), plus delta(1.3), which is inconclusive, and one infinite mass;
# computed by the code as it stood before the node memo, and compared with ==
FROZEN_REPORTS = [
    (("delta", 2.613, 1.748), "coincident", 1.8640559834531623, 0.9999999999999993, (
        (1.5, "finite", 1.9940662272838134),
        (1.8902980896729151, "finite", 0.9614546908616269),
        (1.863922659593174, "finite", 1.0002022328089222),
        (1.864057648992621, "finite", 0.9999974740422687),
        (1.8640559835596824, "finite", 0.9999999998384511),
        (1.8640559834531623, "finite", 0.9999999999999993),
        (1.8640559834531605, "finite", 1.0000000000000022),
    )),
    (("delta", 2.953, 0.431), "coincident", 1.5389062418201371, 0.9999999999999992, (
        (1.5, "finite", 1.1107579236454885),
        (1.5521951315704463, "finite", 0.9662749925928755),
        (1.5393450688415815, "finite", 0.9988556223874211),
        (1.5389061574077998, "finite", 1.0000002203385814),
        (1.5389062418512292, "finite", 0.9999999999188415),
        (1.5389062418201371, "finite", 0.9999999999999992),
        (1.5389062418201356, "finite", 1.0000000000000036),
    )),
    (("delta", 1.972, 2.457), "coincident", 2.472147518526328, 0.9999999999999998, (
        (4.0, "finite", 0.37855627826008414),
        (2.685251846174599, "finite", 0.8360229284582597),
        (2.5061891665965033, "finite", 0.9702878209758249),
        (2.4719644985640286, "finite", 1.0001639347534648),
        (2.472149490630351, "finite", 0.9999982337961061),
        (2.472147518641209, "finite", 0.999999999897113),
        (2.472147518526328, "finite", 0.9999999999999998),
        (2.4721475185263255, "finite", 1.0000000000000022),
    )),
    (("delta", 2.266, 0.702), "coincident", 1.916906974143959, 0.9999999999999972, (
        (1.5, "finite", 2.3052524467955284),
        (1.937280710693369, "finite", 0.9701464365665241),
        (1.916781405437779, "finite", 1.000188821456632),
        (1.916908314184764, "finite", 0.9999979852670084),
        (1.9169069742325315, "finite", 0.9999999998668297),
        (1.9169069741439573, "finite", 1.0000000000000002),
        (1.916906974143959, "finite", 0.9999999999999972),
    )),
    (("delta", 2.796, 0.416), "coincident", 1.5818646913951462, 0.9999999999999967, (
        (1.5, "finite", 1.2377215757874056),
        (1.606741004068656, "finite", 0.9424187326615803),
        (1.583517039497299, "finite", 0.9959970622446229),
        (1.5818635129274459, "finite", 1.0000028644079917),
        (1.581864692937963, "finite", 0.9999999962500031),
        (1.5818646913951462, "finite", 0.9999999999999967),
        (1.5818646913951446, "finite", 1.0000000000000007),
    )),
    (("delta", 2.901, 0.976), "coincident", 1.6578586094838061, 1.0, (
        (1.5, "finite", 1.4322177263823057),
        (1.6913684856752065, "finite", 0.935616886051598),
        (1.6614572183978358, "finite", 0.9927443139567477),
        (1.6578550472126903, "finite", 1.0000072253273014),
        (1.6578586177271324, "finite", 0.9999999832802235),
        (1.6578586094838252, "finite", 0.9999999999999611),
        (1.6578586094838061, "finite", 1.0),
    )),
    (("exp_m", 1.143, 3.185), "coincident", 2.6124925526782756, 0.9999999999999968, (
        (2.6124925526782756, "finite", 0.9999999999999968),
    )),
    (("exp_m", 2.146, 0.311), "coincident", 1.3388557548379467, 0.9999999999999986, (
        (1.3388557548379467, "finite", 0.9999999999999986),
    )),
    (("exp_m", 2.677, 2.142), "coincident", 1.456652376157494, 0.999999999999997, (
        (1.456652376157494, "finite", 0.999999999999997),
    )),
    (("exp_m", 2.48, 1.548), "coincident", 1.4572905478249, 0.9999999999999973, (
        (1.4572905478249, "finite", 0.9999999999999973),
    )),
    (("delta", 1.3, 1.0), "inconclusive", None, None, (
        (4.0, "inconclusive", "cutoff ladder exhausted without convergence or a divergence verdict"),
    )),
    (("delta", 2.0, math.inf), "non-coincident", None, None, ()),
]


def _memo_of(M):
    """The node memo that the log form of a copy made by ``_with_node_memo`` keeps."""
    (memo,) = [cell.cell_contents for cell in M.log_criterion.__closure__
               if isinstance(cell.cell_contents, dict)]
    return memo


class TestNodeMemo:
    # a report, a constant and a criterion each work on a copy of N that
    # keeps one memo of delta's scaling-free terms for their integrals;
    # every Q stays the same float
    @pytest.mark.parametrize("case, verdict, k0, q_at_k0, q_trace", FROZEN_REPORTS)
    def test_reports_match_the_frozen_table(self, case, verdict, k0, q_at_k0, q_trace):
        fam, par, mass = case
        rep = embedding_report(make_young(fam, par), mass)
        assert (rep.verdict, rep.embedding_constant, rep.embedding_constant_modular,
                rep.q_trace) == (verdict, k0, q_at_k0, q_trace)

    @pytest.mark.parametrize("mass", [0.5, 1.0])
    def test_successive_reports_agree_and_leave_no_memo(self, mass, monkeypatch):
        # every copy with a memo that a call makes is dropped when it returns
        copies = []

        def spy(N):
            M = _with_node_memo(N)
            copies.append(weakref.ref(M.log_criterion))
            return M

        monkeypatch.setattr(embedding_module, "_with_node_memo", spy)
        N = delta_young(2.3)
        first = embedding_report(N, mass)
        assert embedding_report(N, mass) == first
        assert embedding_constant(N, mass) == first.embedding_constant
        assert coincidence_criterion(N, mass) == coincidence_criterion(delta_young(2.3), mass)
        gc.collect()
        assert len(copies) == 8 and all(ref() is None for ref in copies)
        # N keeps no memo: its log form closes over no dict
        for cell in N.log_criterion.__closure__:
            assert not isinstance(cell.cell_contents, dict)

    @pytest.mark.parametrize("d, mass", [(2.0, 1.0), (2.7, 0.3)])
    def test_q_trace_matches_a_fresh_modular(self, d, mass):
        N = delta_young(d)
        rep = embedding_report(N, mass)
        assert len(rep.q_trace) >= 5
        for k, tag, value in rep.q_trace:
            fresh = embedding_modular(N, k, mass)
            assert (fresh.tag, fresh.value) == (tag, value)

    def test_memo_is_shared_within_a_scope_and_dropped_after(self, monkeypatch):
        # a report's criterion and k0 search fill the one memo of the
        # report's copy of N; the criterion's copy of that copy fills none
        memos = []

        def spy(N):
            M = _with_node_memo(N)
            memos.append(_memo_of(M))
            return M

        monkeypatch.setattr(embedding_module, "_with_node_memo", spy)
        N = delta_young(2.3)
        coincidence_criterion(N, 1.0)
        seen = len(memos[0])
        assert seen > 0
        rep = embedding_report(N, 1.0)
        assert len(rep.q_trace) >= 5
        report_memo, criterion_memo = memos[1:]
        assert criterion_memo == {} and len(report_memo) > seen
        # another Young function gets a memo of its own
        seen = len(report_memo)
        embedding_report(delta_young(2.5), 1.0)
        assert len(memos) == 5 and len({id(m) for m in memos}) == 5
        assert len(report_memo) == seen and memos[3]

    def test_only_a_log_form_gets_a_copy(self):
        N = custom_young(lambda u: u * u, math.sqrt, label="sq")
        assert _with_node_memo(N) is N
        D = delta_young(2.3)
        M = _with_node_memo(D)
        assert M is not D and (M.family, M.param, M.describe()) == ("delta", 2.3, "delta(2.3)")
        # a memo passed to the copy's log form is ignored
        elsewhere = {}
        M.log_criterion(0.5, elsewhere)(3.0)
        assert elsewhere == {} and list(_memo_of(M)) == [3.0]

    def test_log_form_is_the_same_with_and_without_a_memo(self):
        N = delta_young(2.3)
        nodes = {}
        us = [10.0 ** (j / 4.0) for j in range(-40, 60)]
        for c in (0.5, 0.25, 1.0 / 1.7):
            plain, kept = N.log_criterion(c), N.log_criterion(c, nodes)
            for u in us:
                assert kept(u) == plain(u)
        assert len(nodes) == len(us)
