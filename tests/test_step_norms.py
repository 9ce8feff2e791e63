"""Step-tail norms: every evaluation stays visible, and the results stay put.

The step sums run over piece masses taken once per tail, and the weak
norm runs its threshold loop inline.  A tracer that wraps ``modular`` in
``orlicz.norms``, or ``YoungFunction.__call__`` or
``YoungFunction.inverse`` on the class, must still count every
evaluation, and the norms of seeded step tails must keep the exact
floats and traces pinned in ``FROZEN``.
"""

import math
import random

import pytest

from orlicz.norms import luxemburg_norm, weak_norm
from orlicz.tails import TailRepFunction, step_tail
from orlicz.young import YoungFunction, custom_young, make_young


def cube():
    return custom_young(lambda u: u ** 3, lambda w: w ** (1.0 / 3.0))


# the parameter ranges of the step-norms benchmark workload
PARAM_RANGE = {"power": (1.2, 4.0), "exp_m": (0.5, 3.0), "delta": (1.2, 3.0)}
PER_FAMILY = 8


def seeded_case(family: str, i: int):
    """(N, f): a seeded step tail of 1-36 pieces, values 1e-3..1e3, mass 0.25..1."""
    rng = random.Random(f"step-norms:{family}:{i}")
    if family == "custom":
        N = cube()
    else:
        N = make_young(family, round(rng.uniform(*PARAM_RANGE[family]), 4))
    weights = [rng.random() + 1e-3 for _ in range(rng.randint(1, 36))]
    scale = rng.uniform(0.25, 1.0) / math.fsum(weights)
    pieces = [(10.0 ** rng.uniform(-3.0, 3.0), w * scale) for w in weights]
    return N, step_tail(pieces, 1.0)


CASES = {f"{fam}-{i}": (fam, i) for fam in ("power", "exp_m", "delta", "custom")
         for i in range(PER_FAMILY)}

# (strong value, modular_evaluations, bracket, weak value, argmax_t), computed
# while each step sum took its masses as differences of levels term by term
# and the weak norm called a helper per threshold; bracket is None under power
FROZEN = {
    "power-0": (170.65138765832344, 2, None, 166.44808844475935, 384.3079649486683),
    "power-1": (39.69899725790788, 3, None, 39.69899725694227, 58.254352485653826),
    "power-2": (189.2932727062755, 2, None, 159.1475204868357, 566.4331660803147),
    "power-3": (210.1502397093972, 2, None, 198.96259356123682, 492.7235462871296),
    "power-4": (233.18849595608626, 2, None, 228.54448347210467, 732.5627227165876),
    "power-5": (56.69385978944609, 2, None, 54.344449721542915, 249.93874558172783),
    "power-6": (122.04853085838583, 2, None, 112.8810099849165, 230.8566190760221),
    "power-7": (175.71221868363082, 3, None, 165.95705953674954, 415.25339277629536),
    "exp_m-0": (
        228.25387442825408, 8, (228.25387442825385, 228.25387442825408),
        227.67688544212922, 483.2883672908588),
    "exp_m-1": (
        1.0864336380211126, 7, (1.0864336380211113, 1.0864336380211126),
        1.084424164531047, 1.0329498047951386),
    "exp_m-2": (
        314.58404148001995, 9, (314.5840414800196, 314.58404148001995),
        296.72847183481167, 812.4516439070735),
    "exp_m-3": (
        8.83959945236619, 8, (8.839539124066505, 8.83959945236619),
        8.372028989391778, 26.507706990358404),
    "exp_m-4": (
        257.68111288684196, 9, (257.68111288684173, 257.68111288684196),
        195.4480766104545, 753.0002680553383),
    "exp_m-5": (
        63.87744064863545, 6, (63.87744064853495, 63.87744064863545),
        63.80358537834297, 305.28929812030054),
    "exp_m-6": (
        376.0383087813479, 8, (376.0383086151707, 376.0383087813479),
        369.18007406269527, 957.3542549012515),
    "exp_m-7": (
        190.7270707495966, 7, (190.72707074959635, 190.7270707495966),
        190.41470790419575, 423.3072904671502),
    "delta-0": (
        173.21284542312873, 9, (173.21284542312853, 173.21284542312873),
        159.57191839533357, 916.8189595414034),
    "delta-1": (
        35.63447538393274, 7, (35.63445900406644, 35.63447538393274),
        33.42266874898433, 490.48716433197944),
    "delta-2": (
        32.81722827782422, 8, (32.81722827782418, 32.81722827782422),
        32.473858102757895, 156.7081509583793),
    "delta-3": (
        129.4203119780476, 9, (129.4203119780475, 129.4203119780476),
        111.78141177522839, 472.12313157855397),
    "delta-4": (
        263.89687986539684, 7, (263.8968798653965, 263.89687986539684),
        263.73575423875013, 768.1298785679224),
    "delta-5": (
        169.1010369728046, 2, (84.5505184864023, 169.1010369728046),
        169.1010369728046, 221.65478989543962),
    "delta-6": (
        99.67881672042832, 9, (99.67881672042822, 99.67881672042832),
        88.60108967715453, 785.2183793899666),
    "delta-7": (
        76.03110949956185, 7, (76.03110949014156, 76.03110949956185),
        75.61335346264275, 167.47247662718198),
    "custom-0": (
        197.83124478258338, 8, (197.8306866719189, 197.83124478258338),
        172.41028045673227, 519.2808201374198),
    "custom-1": (
        175.20566177842366, 5, (175.20547115676425, 175.20566177842366),
        175.20547115676425, 323.983727208829),
    "custom-2": (
        233.04799708127598, 7, (233.04799708127575, 233.04799708127598),
        232.48507360182072, 502.44215400674136),
    "custom-3": (
        131.0382618287896, 8, (131.03826182878947, 131.0382618287896),
        118.62215322204544, 240.95492946653889),
    "custom-4": (
        10.572920553395964, 7, (10.572919766282572, 10.572920553395964),
        10.065273862924268, 23.958282562002967),
    "custom-5": (
        199.1340542115109, 7, (199.1340542115107, 199.1340542115109),
        197.77614638047956, 847.5618479129085),
    "custom-6": (
        0.7544149213733018, 8, (0.7544137678083358, 0.7544149213733018),
        0.6729607115232543, 1.338830768159078),
    "custom-7": (
        170.13055782531657, 8, (170.1299297058709, 170.13055782531657),
        146.48462847938197, 282.42102314021054),
}


@pytest.mark.parametrize("name", list(CASES))
def test_step_norms_stay_bit_identical(name):
    N, f = seeded_case(*CASES[name])
    strong, weak = luxemburg_norm(N, f), weak_norm(N, f)
    got = (strong.value, strong.trace["modular_evaluations"], strong.trace.get("bracket"),
           weak.value, weak.trace["argmax_t"])
    assert got == FROZEN[name]


YOUNG = [make_young("power", 2.0), make_young("exp_m", 2.0), make_young("delta", 2.0), cube()]
PIECES = [(0.25, 0.05), (0.5, 0.1), (1.0, 0.2), (2.0, 0.15), (3.0, 0.3), (40.0, 0.01),
          (1e-3, 0.02)]


@pytest.mark.parametrize("N", YOUNG, ids=["power", "exp_m", "delta", "custom"])
def test_strong_norm_step_sums_stay_visible(N, monkeypatch):
    # a wrapper on the class attribute, as a tracer installs it, must see
    # one evaluation per piece of every step sum the norm reads
    seen = []
    plain = YoungFunction.__call__

    def counted(self, u):
        seen.append(u)
        return plain(self, u)

    f = step_tail(PIECES, 1.0)
    monkeypatch.setattr(YoungFunction, "__call__", counted)
    r = luxemburg_norm(N, f)
    assert r.trace["modular_evaluations"] > 1
    assert len(seen) == r.trace["modular_evaluations"] * len(PIECES)


@pytest.mark.parametrize("N", YOUNG, ids=["power", "exp_m", "delta", "custom"])
def test_strong_norm_reads_every_step_sum_through_modular(N, monkeypatch):
    # a wrapper on the module attribute, as a tracer installs it, must see
    # every step sum the norm reads as one call of modular
    import orlicz.norms as norms_module

    seen = []
    plain = norms_module.modular

    def counted(N, f, k):
        seen.append(k)
        return plain(N, f, k)

    f = step_tail(PIECES, 1.0)
    monkeypatch.setattr(norms_module, "modular", counted)
    r = luxemburg_norm(N, f)
    assert r.trace["modular_evaluations"] > 1
    assert len(seen) == len(set(seen)) == r.trace["modular_evaluations"]


def test_piece_masses_are_the_level_differences():
    tail = step_tail(PIECES, 1.0).tail
    levels = tail.levels + (0.0,)
    assert tuple(tail._masses) == tuple(levels[i] - levels[i + 1] for i in range(len(tail.levels)))
    assert tail.pieces() == list(zip(tail.thresholds, tail._masses))


@pytest.mark.parametrize("N", YOUNG, ids=["power", "exp_m", "delta", "custom"])
def test_weak_norm_inverse_calls_stay_visible(N, monkeypatch):
    # the step loop looks N.inverse up once per call, after the wrapper is
    # in place, and reads it once per threshold at the capped level
    seen = []
    plain = YoungFunction.inverse

    def counted(self, w):
        seen.append(w)
        return plain(self, w)

    tail = step_tail(PIECES, 1.0).tail
    mass = tail.top_level * (1.0 - 1e-13)  # the top level exceeds it by rounding: capped
    f = TailRepFunction(tail, mass)
    monkeypatch.setattr(YoungFunction, "inverse", counted)
    weak_norm(N, f)
    assert len(seen) == len(tail.thresholds)
    assert seen == [1.0 / min(level, mass) for level in tail.levels]
    assert seen[0] == 1.0 / mass
