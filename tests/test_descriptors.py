import json
import math

import pytest

from orlicz.descriptors import parse_descriptor, parse_descriptor_json
from orlicz.errors import DescriptorError
from orlicz.tails import AnalyticTail, StepTail
from orlicz.norms import lebesgue_norm, luxemburg_norm
from orlicz.young import exp_young, power_young


VALID = [
    {"kind": "step", "pieces": [{"value": 2.0, "mass": 0.3}, {"value": 1.0, "mass": 0.5}], "mass": 1.0},
    {"kind": "step", "pieces": [], "mass": 1.0},
    {"kind": "indicator", "a": 0.5, "mass": 1.0},
    {"kind": "analytic-tail", "family": "power", "p": 2.0, "mass": 1.0},
    {"kind": "analytic-tail", "family": "power", "p": 2.0, "mass": "inf"},
    {"kind": "extremal", "mass": 1.0},
]


class TestParsing:
    @pytest.mark.parametrize("obj", VALID, ids=lambda o: o["kind"] + str(o["mass"]))
    def test_roundtrip(self, obj):
        d = parse_descriptor(obj)
        again = parse_descriptor(json.loads(d.to_json()))
        assert again == d

    def test_roundtrip_builds_identical_tails(self):
        d = parse_descriptor(VALID[0])
        again = parse_descriptor(json.loads(d.to_json()))
        t1 = d.build().tail
        t2 = again.build().tail
        assert t1.thresholds == t2.thresholds
        assert t1.levels == t2.levels

    def test_field_order_irrelevant(self):
        a = parse_descriptor_json('{"mass": 1.0, "a": 0.5, "kind": "indicator"}')
        b = parse_descriptor_json('{"kind": "indicator", "a": 0.5, "mass": 1.0}')
        assert a == b

    def test_infinite_mass_token(self):
        d = parse_descriptor({"kind": "extremal", "mass": "inf"})
        assert math.isinf(d.mass)
        assert d.to_jsonable()["mass"] == "inf"

    def test_unknown_fields_rejected(self):
        with pytest.raises(DescriptorError):
            parse_descriptor({"kind": "indicator", "a": 0.5, "mass": 1.0, "extra": 1})
        with pytest.raises(DescriptorError):
            parse_descriptor({"kind": "step", "pieces": [], "mass": 1.0, "p": 2.0})

    def test_bad_kind(self):
        with pytest.raises(DescriptorError):
            parse_descriptor({"kind": "spline", "mass": 1.0})

    def test_bad_mass(self):
        for mass in (0.0, -1.0, "infinite", None, True):
            with pytest.raises(DescriptorError):
                parse_descriptor({"kind": "extremal", "mass": mass})

    def test_missing_mass(self):
        with pytest.raises(DescriptorError):
            parse_descriptor({"kind": "extremal"})

    def test_bad_pieces(self):
        with pytest.raises(DescriptorError):
            parse_descriptor({"kind": "step", "pieces": [{"value": 1.0}], "mass": 1.0})
        with pytest.raises(DescriptorError):
            parse_descriptor(
                {"kind": "step", "pieces": [{"value": -1.0, "mass": 0.1}], "mass": 1.0}
            )
        with pytest.raises(DescriptorError):
            parse_descriptor({"kind": "step", "pieces": "nope", "mass": 1.0})

    def test_indicator_mass_budget(self):
        with pytest.raises(DescriptorError):
            parse_descriptor({"kind": "indicator", "a": 2.0, "mass": 1.0})

    def test_unknown_analytic_family(self):
        with pytest.raises(DescriptorError):
            parse_descriptor(
                {"kind": "analytic-tail", "family": "cauchy", "p": 1.0, "mass": 1.0}
            )

    def test_invalid_json(self):
        with pytest.raises(DescriptorError):
            parse_descriptor_json("{not json")


class TestBuild:
    def test_step_build(self):
        f = parse_descriptor(VALID[0]).build()
        assert isinstance(f.tail, StepTail)
        assert f.tail.value(1.0) == 0.8

    def test_indicator_build(self):
        f = parse_descriptor({"kind": "indicator", "a": 0.25, "mass": 1.0}).build()
        assert f.tail.value(1.0) == 0.25
        assert f.tail.value(1.5) == 0.0

    def test_analytic_build(self):
        f = parse_descriptor(VALID[3]).build()
        assert isinstance(f.tail, AnalyticTail)
        assert f.tail.value(2.0) == 0.25
        assert f.tail.value(0.5) == 1.0

    @pytest.mark.parametrize("mass", [0.1, 4.0])
    @pytest.mark.parametrize("p, r", [(3.0, 2.0), (5.0, 1.5)])
    def test_analytic_strong_norm_closed_form(self, p, r, mass):
        # under power(r) the norm is (int |f|^r)^(1/r), and min(M, t^-p)
        # has int |f|^r = M t1^r + r t1^(r-p) / (p - r) with t1 = M^(-1/p)
        f = parse_descriptor(
            {"kind": "analytic-tail", "family": "power", "p": p, "mass": mass}
        ).build()
        t1 = mass ** (-1.0 / p)
        assert f.tail.breaks == ()  # the plateau end t1 is found, not declared
        exact = (mass * t1 ** r + r * t1 ** (r - p) / (p - r)) ** (1.0 / r)
        assert luxemburg_norm(power_young(r), f).value == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert lebesgue_norm(f, r).value == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_analytic_infinite_mass_norm_is_infinite(self):
        # t^-2 on infinite mass: int |f|^r diverges at 0 for r < 2, at
        # infinity for r > 2
        f = parse_descriptor(VALID[4]).build()
        assert f.tail.breaks == ()
        for r in (1.5, 3.0):
            assert luxemburg_norm(power_young(r), f).value == math.inf
            assert lebesgue_norm(f, r).is_divergent

    def test_analytic_tail_whose_power_overflows(self):
        # t^-400 overflows below t = 0.17: on mass 1 the tail is the mass there,
        # and on infinite mass it is +inf
        d = {"kind": "analytic-tail", "family": "power", "p": 400.0, "mass": 1.0}
        f = parse_descriptor(d).build()
        assert f.tail.value(0.1) == 1.0
        exact = math.sqrt(400.0 / 398.0)  # int |f|^2 = 1 + 2 / 398
        assert abs(luxemburg_norm(power_young(2.0), f).value - exact) <= 1e-12
        assert parse_descriptor({**d, "mass": "inf"}).build().tail.value(0.1) == math.inf

    def test_extremal_needs_young(self):
        d = parse_descriptor({"kind": "extremal", "mass": 1.0})
        with pytest.raises(DescriptorError):
            d.build()
        f = d.build(exp_young(2.0))
        assert f.tail.value(0.5) == 1.0
