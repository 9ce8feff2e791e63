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

from orlicz.embedding import extremal_function
from orlicz.norms import lebesgue_norm, modular, weak_norm
from orlicz.tails import AnalyticTail, TailRepFunction
from orlicz.young import delta_young, power_young


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
