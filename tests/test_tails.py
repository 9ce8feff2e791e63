import math

import pytest

from orlicz.embedding import unit_threshold
from orlicz.errors import BadParameter, MassOverflow
from orlicz.norms import modular, weak_norm
from orlicz.tails import (
    AnalyticTail,
    StepTail,
    TailRepFunction,
    chebyshev_tail,
    dilate,
    step_tail,
)
from orlicz.young import exp_young, power_young

from oracle_values import Y0_EXP2


@pytest.fixture
def two_piece():
    return step_tail([(2.0, 0.3), (1.0, 0.5)], 1.0)


class TestStepTails:
    def test_levels_and_left_continuity(self, two_piece):
        T = two_piece.tail
        assert T.value(0.25) == 0.8
        assert T.value(1.0) == 0.8  # level held on the left-closed side
        assert T.value(1.0 + 1e-12) == 0.3
        assert T.value(2.0) == 0.3
        assert T.value(2.5) == 0.0

    def test_empty_pieces_is_zero_tail(self):
        f = step_tail([], 1.0)
        assert f.tail.is_zero
        assert f.tail.value(0.7) == 0.0

    def test_single_piece_indicator(self):
        T = step_tail([(1.0, 0.25)], 1.0).tail
        assert T.value(0.5) == 0.25
        assert T.value(1.0) == 0.25
        assert T.value(1.1) == 0.0

    def test_duplicate_values_merge(self):
        T = step_tail([(1.0, 0.2), (1.0, 0.3)], 1.0).tail
        assert T.value(1.0) == 0.5
        assert len(T.thresholds) == 1

    def test_zero_valued_pieces_dropped(self):
        T = step_tail([(0.0, 0.4), (1.0, 0.2)], 1.0).tail
        assert T.value(0.5) == 0.2

    def test_mass_overflow(self):
        with pytest.raises(MassOverflow):
            step_tail([(1.0, 0.7), (2.0, 0.6)], 1.0)

    def test_bad_pieces(self):
        with pytest.raises(ValueError):
            step_tail([(1.0, -0.1)], 1.0)
        with pytest.raises(ValueError):
            step_tail([(-1.0, 0.1)], 1.0)

    def test_level_whose_reciprocal_overflows(self):
        # 1/level overflows, so the weak norm would read N^-1(inf) and
        # return 0 where the exact value is 1/N^-1(1e311) = 0.02642
        with pytest.raises(BadParameter, match="1e-311"):
            step_tail([(1.0, 1e-311)], 1.0)
        assert weak_norm(exp_young(2.0), step_tail([(1.0, 6e-309)], 1.0)).value > 0.0

    def test_domain_excludes_zero(self, two_piece):
        with pytest.raises(ValueError):
            two_piece.tail.value(0.0)


class TestChebyshevTail:
    def test_power_family_values(self):
        V = chebyshev_tail(power_young(2.0), 1.0)
        assert V.value(0.5) == 1.0
        assert V.value(2.0) == 0.25

    def test_vanishes_at_infinity(self):
        for N in (power_young(2.0), exp_young(2.0)):
            V = chebyshev_tail(N, 1.0)
            assert V.value(1e8) < 1e-12

    def test_plateau_extends_to_unit_threshold(self):
        V = chebyshev_tail(exp_young(2.0), 1.0)
        assert V.value(Y0_EXP2 * 0.999) == 1.0
        assert V.value(Y0_EXP2 * 1.001) < 1.0

    def test_infinite_mass_uses_reciprocal(self):
        V = chebyshev_tail(power_young(2.0), math.inf)
        assert V.value(0.001) == 1e6

    def test_non_increasing(self):
        V = chebyshev_tail(exp_young(2.0), 1.0)
        ts = [10.0 ** (e / 4.0) for e in range(-20, 21)]
        vals = [V.value(t) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestBreaks:
    def test_chebyshev_tail_needs_no_break(self):
        # min(1, t^-3) under power(2): 1 + 2 int_1^inf t^-2 dt = 3 at k = 1
        V = chebyshev_tail(power_young(3.0), 1.0)
        assert V.breaks == ()
        for k in (0.5, 1.0, 2.0):
            r = modular(power_young(2.0), TailRepFunction(V, 1.0), k)
            assert r.value == pytest.approx(3.0 / k ** 2, rel=1e-14, abs=0.0)

    def test_dilate_scales_the_breaks(self):
        T = AnalyticTail(lambda t: min(1.0, t ** -2.0), breaks=(1.0, 3.0))
        assert dilate(T, 2.5).breaks == (2.5, 7.5)
        assert dilate(T, 1e308).breaks == (1e308,)  # 3e308 is past the float range

    @pytest.mark.parametrize("breaks", [(0.0,), (-1.0,), (math.inf,), (math.nan,), (3.0, 1.0)])
    def test_bad_breaks_rejected(self, breaks):
        with pytest.raises(ValueError):
            AnalyticTail(lambda t: min(1.0, t ** -2.0), breaks=breaks)


class TestTailNorm:
    """The weak norm: the scaling norm of a tail against the Chebyshev tail."""

    def test_positivity(self):
        f = step_tail([(0.01, 1e-6)], 1.0)
        assert weak_norm(exp_young(2.0), f).value > 0.0

    def test_heavy_tail_not_dominated(self):
        f = TailRepFunction(AnalyticTail(lambda t: min(1.0, t ** -2.0)), 1.0)
        assert weak_norm(exp_young(2.0), f).value == math.inf

    def test_homogeneity_under_dilation(self):
        N = exp_young(2.0)
        T = step_tail([(0.5, 0.3), (3.0, 0.2)], 1.0).tail
        base = weak_norm(N, TailRepFunction(T, 1.0)).value
        for c in (0.017, 0.4, 12.0, 900.0):
            scaled = weak_norm(N, TailRepFunction(dilate(T, c), 1.0)).value
            assert scaled == pytest.approx(c * base, rel=1e-10)

    def test_monotone_in_the_tail(self):
        N = exp_young(2.0)
        small = step_tail([(1.0, 0.2)], 1.0)
        large = step_tail([(1.0, 0.2), (2.5, 0.3)], 1.0)
        assert weak_norm(N, small).value <= weak_norm(N, large).value

    def test_dilate_validates(self):
        with pytest.raises(ValueError):
            dilate(step_tail([(1.0, 0.5)], 1.0).tail, 0.0)


class TestTailRep:
    def test_total_mass_positive(self):
        with pytest.raises(ValueError):
            TailRepFunction(StepTail((), ()), 0.0)

    def test_total_mass_whose_reciprocal_overflows(self):
        with pytest.raises(BadParameter, match="1e-310"):
            TailRepFunction(StepTail((), ()), 1e-310)

    @pytest.mark.parametrize("take", [
        lambda M: TailRepFunction(StepTail((), ()), M),
        lambda M: chebyshev_tail(power_young(2.0), M),
        lambda M: unit_threshold(power_young(2.0), M),
    ], ids=["TailRepFunction", "chebyshev_tail", "unit_threshold"])
    def test_one_mass_rule(self, take):
        for bad in (0.0, -1.0, math.nan, -math.inf):
            with pytest.raises(ValueError, match="total mass must be positive"):
                take(bad)
        with pytest.raises(BadParameter, match="total mass 1e-310 is too small"):
            take(1e-310)
        take(math.inf)

    def test_step_respects_total(self):
        f = step_tail([(1.0, 0.4)], 0.5)
        assert f.total_mass == 0.5
        with pytest.raises(MassOverflow):
            step_tail([(1.0, 0.6)], 0.5)
