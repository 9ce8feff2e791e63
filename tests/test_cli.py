import json
import math

import pytest

from orlicz.cli import main

from oracle_values import (DELTA2_K0, EXP2_EXTREMAL_L200, EXP_EXTREMAL_L50, EXP_L200,
                           INDICATOR_EXP2, K0_EXP)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestNormCommand:
    def test_indicator_both(self, capsys):
        rc, out, _ = run(
            capsys, "norm", "--young", "exp_m:2",
            "--fn", '{"kind":"indicator","a":1,"mass":1}', "--kind", "both",
        )
        assert rc == 0
        rec = json.loads(out)
        assert rec["results"]["strong"]["value"] == pytest.approx(INDICATOR_EXP2[1.0], abs=1e-8)
        assert rec["results"]["weak"]["value"] == pytest.approx(INDICATOR_EXP2[1.0], abs=1e-8)
        assert rec["results"]["strong"]["modular_at_value"] <= 1.0 + 1e-9

    def test_heavy_tail_strong_infinite_exit_2(self, capsys):
        rc, out, _ = run(
            capsys, "norm", "--young", "power:2",
            "--fn", '{"kind":"analytic-tail","family":"power","p":2,"mass":1}',
            "--kind", "strong",
        )
        assert rc == 2
        rec = json.loads(out)
        assert rec["results"]["strong"]["value"] == "inf"
        assert rec["results"]["strong"]["finite"] is False

    def test_zero_function(self, capsys):
        rc, out, _ = run(
            capsys, "norm", "--young", "exp_m:2",
            "--fn", '{"kind":"step","pieces":[],"mass":1}', "--kind", "both",
        )
        assert rc == 0
        rec = json.loads(out)
        assert rec["results"]["strong"]["value"] == 0.0
        assert rec["results"]["weak"]["value"] == 0.0

    def test_lp_norm(self, capsys):
        rc, out, _ = run(
            capsys, "norm", "--young", "power:2",
            "--fn",
            '{"kind":"step","pieces":[{"value":2,"mass":0.3},{"value":1,"mass":0.5}],"mass":1}',
            "--kind", "lp:2",
        )
        assert rc == 0
        rec = json.loads(out)
        assert rec["results"]["lp(2)"]["value"] == pytest.approx(math.sqrt(1.7), rel=1e-12)

    def test_lp_norm_rejects_an_infinite_exponent(self, capsys):
        rc, out, err = run(
            capsys, "norm", "--young", "power:2",
            "--fn", '{"kind":"step","pieces":[{"value":2,"mass":0.5}],"mass":1}',
            "--kind", "lp:inf",
        )
        assert rc == 1 and err.startswith("error:") and "1 <= p < inf" in err
        assert out == ""

    @pytest.mark.parametrize("kind", ["strong", "lp:2"])
    def test_analytic_tail_whose_power_overflows(self, capsys, kind):
        rc, out, _ = run(
            capsys, "norm", "--young", "power:2",
            "--fn", '{"kind":"analytic-tail","family":"power","p":400,"mass":1}',
            "--kind", kind,
        )
        assert rc == 0
        (result,) = json.loads(out)["results"].values()
        assert result["value"] == pytest.approx(math.sqrt(400.0 / 398.0), rel=1e-12)

    @pytest.mark.parametrize("kind", ["strong", "weak", "lp:2"])
    def test_analytic_tail_whose_kink_overflows(self, capsys, kind):
        # 0.5^(-1/p) overflows, so every float lies on the plateau: g(t) =
        # t sqrt(0.5) is unbounded, and so are both norms
        rc, out, _ = run(
            capsys, "norm", "--young", "power:2",
            "--fn", '{"kind":"analytic-tail","family":"power","p":0.0001,"mass":0.5}',
            "--kind", kind,
        )
        assert rc == 2
        (result,) = json.loads(out)["results"].values()
        assert result["value"] == ("divergent" if kind == "lp:2" else "inf")

    def test_step_level_whose_reciprocal_overflows(self, capsys):
        rc, out, err = run(
            capsys, "norm", "--young", "exp_m:2",
            "--fn", '{"kind":"step","pieces":[{"value":1,"mass":1e-311}],"mass":1}',
            "--kind", "weak",
        )
        assert rc == 1 and err.startswith("error:") and "1e-311" in err
        assert out == ""

    def test_lp_norm_past_the_float_range_of_t_to_the_p(self, capsys):
        rc, out, _ = run(
            capsys, "norm", "--young", "exp_m:2",
            "--fn", '{"kind":"extremal","mass":1.0}', "--kind", "lp:200",
        )
        assert rc == 0
        assert json.loads(out)["results"]["lp(200)"]["value"] == pytest.approx(
            EXP2_EXTREMAL_L200, rel=1e-12)

    def test_lp_norm_of_an_extremal_function_whose_integrand_rises(self, capsys):
        # p t^49 T(t) rises over the first decades past t_p; the range ends
        # at the tail's zero start t = 700, so the rise is no divergence
        rc, out, _ = run(
            capsys, "norm", "--young", "exp_m:1",
            "--fn", '{"kind":"extremal","mass":1.0}', "--kind", "lp:50",
        )
        assert rc == 0
        assert json.loads(out)["results"]["lp(50)"]["value"] == pytest.approx(
            EXP_EXTREMAL_L50[1.0], rel=1e-12)

    def test_lp_norm_whose_integrand_leaves_the_float_range(self, capsys):
        # the exp_m(1) extremal tail decays like e^-t, and p t^199 e^-t peaks
        # near 1e373: the modular at 1 overflows, and the one at the weak
        # norm gives the norm Gamma(201)^(1/200)
        rc, out, _ = run(
            capsys, "norm", "--young", "exp_m:1",
            "--fn", '{"kind":"extremal","mass":1.0}', "--kind", "lp:200",
        )
        assert rc == 0
        assert json.loads(out)["results"]["lp(200)"]["value"] == pytest.approx(
            EXP_L200, rel=1e-14, abs=0.0)

    def test_lp_norm_of_a_huge_value(self, capsys):
        rc, out, _ = run(
            capsys, "norm", "--young", "power:2",
            "--fn", '{"kind":"step","pieces":[{"value":1e200,"mass":0.5}],"mass":1}',
            "--kind", "lp:2",
        )
        assert rc == 0
        assert json.loads(out)["results"]["lp(2)"]["value"] == pytest.approx(
            1e200 * math.sqrt(0.5), rel=1e-14)

    def test_descriptor_from_file(self, capsys, tmp_path):
        path = tmp_path / "fn.json"
        path.write_text('{"kind":"indicator","a":0.5,"mass":1}')
        rc, out, _ = run(
            capsys, "norm", "--young", "exp_m:2", "--fn", str(path), "--kind", "weak",
        )
        assert rc == 0
        rec = json.loads(out)
        assert rec["results"]["weak"]["value"] == pytest.approx(INDICATOR_EXP2[0.5], abs=1e-8)

    def test_mass_override(self, capsys):
        rc, out, _ = run(
            capsys, "norm", "--young", "exp_m:2",
            "--fn", '{"kind":"indicator","a":0.5,"mass":1}',
            "--kind", "weak", "--mass", "2",
        )
        assert rc == 0
        assert json.loads(out)["function"]["mass"] == 2.0

    def test_mass_override_keeps_the_analytic_tail(self, capsys):
        # the override replaces the mass alone: family and p stay as given,
        # and t^-2 on infinite mass has the weak power(2) norm 1
        rc, out, _ = run(
            capsys, "norm", "--young", "power:2",
            "--fn", '{"kind":"analytic-tail","family":"power","p":2,"mass":1}',
            "--kind", "weak", "--mass", "inf",
        )
        assert rc == 0
        rec = json.loads(out)
        assert rec["function"] == {"kind": "analytic-tail", "family": "power", "p": 2.0,
                                   "mass": "inf"}
        assert rec["results"]["weak"]["value"] == pytest.approx(1.0, rel=1e-12)

    def test_csv_output(self, capsys):
        rc, out, _ = run(
            capsys, "norm", "--young", "exp_m:2",
            "--fn", '{"kind":"indicator","a":1,"mass":1}', "--kind", "both",
            "--out", "csv",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "quantity,value,modular_at_value,finite"
        assert len(lines) == 3

    @pytest.mark.parametrize("mass", ["0", "1e-400", "-1"])
    @pytest.mark.parametrize("fn", [
        '{"kind":"analytic-tail","family":"power","p":3,"mass":1}',
        '{"kind":"indicator","a":1,"mass":1}',
    ])
    def test_mass_override_must_be_positive(self, capsys, fn, mass):
        # as for embed: 0 and 1e-400 (which reads as 0) once ended in a
        # ZeroDivisionError from the analytic tail, and -1 in the library's
        # own message on an indicator
        rc, out, err = run(
            capsys, "norm", "--young", "exp_m:2", "--fn", fn, "--mass", mass,
        )
        assert rc == 1 and out == ""
        assert err == "error: --mass must be positive or 'inf'\n"

    def test_bad_young_spec(self, capsys):
        rc, _, err = run(
            capsys, "norm", "--young", "exp_m", "--fn", '{"kind":"extremal","mass":1}',
        )
        assert rc == 1 and "error" in err

    def test_bad_descriptor(self, capsys):
        rc, _, err = run(
            capsys, "norm", "--young", "exp_m:2", "--fn", '{"kind":"indicator","mass":1}',
        )
        assert rc == 1 and "error" in err

    def test_bad_kind(self, capsys):
        rc, out, err = run(
            capsys, "norm", "--young", "exp_m:2",
            "--fn", '{"kind":"indicator","a":1,"mass":1}', "--kind", "strnog",
        )
        assert rc == 1 and "error" in err and "strnog" in err
        assert out == ""

    def test_missing_file(self, capsys):
        rc, _, err = run(
            capsys, "norm", "--young", "exp_m:2", "--fn", "no-such-file.json",
        )
        assert rc == 1 and "error" in err


class TestEmbedCommand:
    def test_exp_family(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc, out, _ = run(
            capsys, "embed", "--young", "exp_m:2", "--mass", "1",
            "--report", str(path),
        )
        assert rc == 0
        summary = json.loads(out)
        assert summary["verdict"] == "coincident"
        assert summary["embedding_constant"] == pytest.approx(K0_EXP[2.0], abs=1e-4)
        full = json.loads(path.read_text())
        assert full["verdict"] == "coincident"
        assert full["q_trace"]

    def test_power_family(self, capsys):
        rc, out, _ = run(capsys, "embed", "--young", "power:3", "--mass", "1")
        assert rc == 0
        assert json.loads(out)["verdict"] == "non-coincident"

    def test_delta_family_flags_inconclusive_classifier(self, capsys):
        rc, out, _ = run(capsys, "embed", "--young", "delta:2", "--mass", "1")
        assert rc == 0
        summary = json.loads(out)
        assert summary["verdict"] == "coincident"
        assert summary["classifier_agreement"] == "agreed"
        assert summary["embedding_constant"] == pytest.approx(DELTA2_K0[1.0], rel=1e-9)

    def test_bad_mass(self, capsys):
        rc, _, err = run(capsys, "embed", "--young", "exp_m:2", "--mass", "-1")
        assert rc == 1 and "error" in err

    def test_mass_whose_reciprocal_overflows(self, capsys):
        rc, _, err = run(capsys, "embed", "--young", "exp_m:2", "--mass", "1e-310")
        assert rc == 1
        assert err.startswith("error:") and "1e-310" in err


class TestScalarCommands:
    def test_gseries(self, capsys):
        rc, out, _ = run(capsys, "gseries", "--alpha", "0.5")
        assert rc == 0
        rec = json.loads(out)
        assert rec["series"] == pytest.approx(rec["quadrature"], abs=1e-8)

    def test_gseries_domain(self, capsys):
        rc, _, err = run(capsys, "gseries", "--alpha", "1.5")
        assert rc == 1 and "error" in err

    def test_beta0(self, capsys):
        rc, out, _ = run(capsys, "beta0", "--tol", "1e-10")
        assert rc == 0
        rec = json.loads(out)
        assert 0.431865 <= rec["critical_alpha"] <= 0.431875
        assert abs(rec["gauge_residual"]) <= 1e-10


class TestVerifyCommand:
    def test_expfamily_suite_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "expfamily")
        rec = json.loads(out)
        assert rec["summary"]["failed"] == 0
        assert rc == 0

    def test_norms_suite_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "norms")
        rec = json.loads(out)
        assert rec["summary"]["failed"] == 0
        assert rc == 0

    def test_exit_code_tracks_failures(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "embedding")
        rec = json.loads(out)
        assert rc == (1 if rec["summary"]["failed"] else 0)
        # EM-01...EM-14 gate Tier-1
        assert rec["summary"]["failed"] == 0

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "expfamily")
        _, out2, _ = run(capsys, "verify", "--suite", "expfamily")
        assert out1 == out2

    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "expfamily", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "id,anchor,expected,computed,tol,pass"
        assert len(lines) >= 10
