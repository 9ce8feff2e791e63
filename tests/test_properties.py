"""Invariant tests over generated inputs."""

import math
import random

from hypothesis import assume, given, seed
from hypothesis import strategies as st

from orlicz.norms import coupling_check, luxemburg_norm, modular, weak_norm
from orlicz.tails import TailRepFunction, dilate, step_tail
from orlicz.verify import random_step_pieces
from orlicz.young import delta_young, exp_young, power_young

FAMILIES = [power_young(2.0), exp_young(2.0), delta_young(2.0)]

values = st.floats(min_value=1e-3, max_value=1e3)
masses = st.floats(min_value=1e-4, max_value=0.2)
pieces_strategy = st.lists(st.tuples(values, masses), min_size=1, max_size=5)
scales = st.floats(min_value=1e-3, max_value=1e3)


@seed(7)
@given(pieces=pieces_strategy)
def test_weak_never_exceeds_strong(pieces):
    f = step_tail(pieces, 1.0)
    for N in FAMILIES:
        assert weak_norm(N, f).value <= luxemburg_norm(N, f).value + 1e-8


@seed(11)
@given(pieces=pieces_strategy, c=scales)
def test_norm_homogeneity(pieces, c):
    f = step_tail(pieces, 1.0)
    fc = step_tail([(v * c, m) for v, m in pieces], 1.0)
    N = exp_young(2.0)
    s, sc = luxemburg_norm(N, f).value, luxemburg_norm(N, fc).value
    assert abs(sc - c * s) <= 1e-9 * max(1.0, c * s)
    w, wc = weak_norm(N, f).value, weak_norm(N, fc).value
    assert abs(wc - c * w) <= 1e-9 * max(1.0, c * w)


@seed(13)
@given(pieces=pieces_strategy, c=scales)
def test_tail_norm_dilation_homogeneity(pieces, c):
    T = step_tail(pieces, 1.0).tail
    N = exp_young(2.0)
    base = weak_norm(N, TailRepFunction(T, 1.0)).value
    scaled = weak_norm(N, TailRepFunction(dilate(T, c), 1.0)).value
    assert abs(scaled - c * base) <= 1e-9 * max(1.0, c * base)


@seed(17)
@given(pieces=pieces_strategy, k1=st.floats(min_value=0.1, max_value=50.0),
       k2=st.floats(min_value=0.1, max_value=50.0))
def test_modular_non_increasing_in_scale(pieces, k1, k2):
    assume(k1 < k2)
    f = step_tail(pieces, 1.0)
    for N in FAMILIES:
        m1 = modular(N, f, k1)
        m2 = modular(N, f, k2)
        v1 = m1.value if m1.is_finite else math.inf
        v2 = m2.value if m2.is_finite else math.inf
        assert v1 >= v2 * (1.0 - 1e-12)


@seed(23)
@given(pieces=pieces_strategy, factor=st.floats(min_value=1.0, max_value=5.0))
def test_coupling_on_dominated_pairs(pieces, factor):
    f = step_tail(pieces, 1.0)
    g = step_tail([(v * factor, m) for v, m in pieces], 1.0)
    rep = coupling_check(exp_young(2.0), f, g)
    assert rep.holds


@seed(29)
@given(pieces=pieces_strategy, extra_value=values, extra_mass=masses)
def test_tail_norm_monotone(pieces, extra_value, extra_mass):
    N = exp_young(2.0)
    total = sum(m for _, m in pieces)
    assume(total + extra_mass < 1.0)
    small = step_tail(pieces, 1.0)
    large = step_tail(pieces + [(extra_value, extra_mass)], 1.0)
    assert weak_norm(N, small).value <= weak_norm(N, large).value * (1.0 + 1e-9)


def test_seeded_generator_is_stable():
    rng = random.Random(123)
    first = random_step_pieces(rng)
    rng = random.Random(123)
    assert random_step_pieces(rng) == first
