"""The extremal function's tag (N, M), and the three places that read it.

``extremal_function(N, M)`` tags its tail with (N, M).  ``weak_norm``
under that very N returns exactly 1 with no grid, ``luxemburg_norm`` off
power starts its crossing at 1 with no weak norm run, and
``_support_ends`` bisects the plateau end within a few floats of t0 =
N^{-1}(1/M).  Every other tail runs the searches as before: a dilated
extremal tail, the reference tail on another mass, the extremal function
of another N, and the extremal function under a copy of its N keep the
values and evaluation counts frozen here from the grid.
"""

import dataclasses
import math
import random

import pytest

from orlicz.embedding import extremal_function
from orlicz.norms import _support_ends, luxemburg_norm, weak_norm
from orlicz.tails import AnalyticTail, TailRepFunction, chebyshev_tail, dilate
from orlicz.young import delta_young, exp_young, make_young, power_young

import orlicz.norms as norms


def untagged(f):
    """f on a copy of its tail without the tag: the searches run as on any tail."""
    return TailRepFunction(AnalyticTail(f.tail.fn, f.tail.label), f.total_mass)


@pytest.mark.parametrize("mass", [0.25, 1.0, 4.0, math.inf])
@pytest.mark.parametrize("N", [power_young(2.5), exp_young(2.0), delta_young(2.0)],
                         ids=["power", "exp_m", "delta"])
def test_extremal_weak_norm_is_exactly_one(N, mass):
    r = weak_norm(N, extremal_function(N, mass))
    assert r.value == 1.0
    assert r.trace["evaluations"] == 0
    assert r.trace["note"] == norms._UNIT_WEAK
    # the grid on an untagged copy reads 1 up to rounding
    assert weak_norm(N, untagged(extremal_function(N, mass))).value == pytest.approx(
        1.0, rel=1e-12)


def _negative_cases():
    cases = {}
    for N in (power_young(2.5), exp_young(2.0), delta_young(2.0)):
        name = N.describe()
        f = extremal_function(N, 1.0)
        other = exp_young(3.0) if N.family != "exp_m" else power_young(3.0)
        cases[f"{name}/dilated"] = (N, TailRepFunction(dilate(f.tail, 2.0), 1.0))
        cases[f"{name}/reference-tail-on-mass-4"] = (
            N, TailRepFunction(chebyshev_tail(N, 1.0), 4.0))
        cases[f"{name}/tagged-tail-on-mass-4"] = (N, TailRepFunction(f.tail, 4.0))
        cases[f"{name}/copy-of-N"] = (dataclasses.replace(N), f)
        cases[f"{name}/extremal-of-{other.describe()}"] = (N, extremal_function(other, 1.0))
    return cases


NEGATIVE = _negative_cases()

# (value, evaluations) of the grid, frozen before the tag existed
NEGATIVE_FROZEN = {
    'power(2.5)/dilated': (2.0, 377),
    'power(2.5)/reference-tail-on-mass-4': (1.0, 388),
    'power(2.5)/tagged-tail-on-mass-4': (1.0, 388),
    'power(2.5)/copy-of-N': (1.0, 384),
    'power(2.5)/extremal-of-exp_m(3)': (1.2763866071541303, 77),
    'exp_m(2)/dilated': (2.0, 101),
    'exp_m(2)/reference-tail-on-mass-4': (1.0, 103),
    'exp_m(2)/tagged-tail-on-mass-4': (1.0, 103),
    'exp_m(2)/copy-of-N': (1.0, 99),
    'exp_m(2)/extremal-of-power(3)': (math.inf, 21),
    'delta(2)/dilated': (2.0000000000000036, 295),
    'delta(2)/reference-tail-on-mass-4': (1.0000000000000018, 296),
    'delta(2)/tagged-tail-on-mass-4': (1.0000000000000018, 296),
    'delta(2)/copy-of-N': (1.0000000000000018, 293),
    'delta(2)/extremal-of-exp_m(3)': (0.9824519492201367, 77),
}


@pytest.mark.parametrize("name", list(NEGATIVE), ids=list(NEGATIVE))
def test_other_tails_run_the_grid(name):
    r = weak_norm(*NEGATIVE[name])
    assert (r.value, r.trace["evaluations"]) == NEGATIVE_FROZEN[name]
    assert "note" not in r.trace


def test_dilate_and_the_descriptors_carry_no_tag():
    from orlicz.descriptors import parse_descriptor

    N = exp_young(2.0)
    assert extremal_function(N, 1.0).tail._extremal == (N, 1.0)
    assert dilate(extremal_function(N, 1.0).tail, 2.0)._extremal is None
    assert chebyshev_tail(N, 1.0)._extremal is None
    tail = parse_descriptor({"kind": "analytic-tail", "family": "power", "p": 3.0,
                             "mass": 1.0}).build().tail
    assert tail._extremal is None
    # the extremal descriptor builds the extremal function of the N it is given
    f = parse_descriptor({"kind": "extremal", "mass": 1.0}).build(N)
    assert weak_norm(N, f).value == 1.0


@pytest.mark.parametrize("N", [exp_young(2.0), exp_young(0.7), delta_young(2.0),
                               delta_young(2.6)], ids=["exp2", "exp0.7", "delta2", "delta2.6"])
@pytest.mark.parametrize("mass", [0.25, 1.0, 4.0])
def test_off_power_crossing_starts_at_one(N, mass, monkeypatch):
    f = extremal_function(N, mass)
    want = luxemburg_norm(N, untagged(f)).value

    def no_weak_norm(*args):
        raise AssertionError("weak_norm ran")

    monkeypatch.setattr(norms, "weak_norm", no_weak_norm)
    r = luxemburg_norm(N, f)
    assert r.trace["weak_lower_bound"] == 1.0
    assert r.trace["start"] == (1.0, "weak norm")
    assert r.value == pytest.approx(want, rel=1e-12, abs=0.0)


def test_unit_threshold_of_one_keeps_the_unit_hint():
    # power extremal functions on unit mass have t0 = 1: T is read at 1e12,
    # 1e-12, the float above 1 and 1, as on the untagged tail
    seen = []
    f = extremal_function(power_young(3.3), 1.0)
    tail = dataclasses.replace(f.tail, fn=lambda t: seen.append(t) or f.tail.fn(t))
    assert _support_ends(tail, 1.0) == (1.0, (math.inf, False))
    assert sorted(seen) == [1e-12, 1.0, math.nextafter(1.0, math.inf), 1e12]


def _sweep():
    """(N, mass): 3 families x 60 parameters x 6 masses."""
    rng = random.Random(37)
    ranges = {"power": (1.1, 6.0), "exp_m": (0.5, 4.0), "delta": (1.2, 3.0)}
    return [(make_young(fam, rng.uniform(lo, hi)), mass)
            for fam, (lo, hi) in ranges.items() for _ in range(60)
            for mass in (1e-6, 0.25, 1.0, 4.0, 1e6, 10.0 ** rng.uniform(-3.0, 3.0))]


def test_plateau_end_near_t0_in_few_reads():
    # on each tail the support ends equal those of the untagged search,
    # bit for bit; the plateau end costs at most 10 tail reads (those of a
    # copy that never reads 0, so no zero start is searched), and no tail
    # takes more than 2 reads beyond the untagged search
    cases = _sweep()
    assert len(cases) == 1080
    for N, mass in cases:
        f = extremal_function(N, mass)
        fn, tag = f.tail.fn, f.tail._extremal
        new, old, plateau = [], [], []
        got = _support_ends(AnalyticTail(lambda t: new.append(t) or fn(t), _extremal=tag), mass)
        want = _support_ends(AnalyticTail(lambda t: old.append(t) or fn(t)), mass)
        assert got == want, (N.describe(), mass)
        assert len(new) <= len(old) + 2, (N.describe(), mass)
        never_zero = AnalyticTail(lambda t: plateau.append(t) or (fn(t) or 5e-324), _extremal=tag)
        assert _support_ends(never_zero, mass)[0] == got[0]
        assert len(plateau) <= 10, (N.describe(), mass)
