"""Outputs frozen byte for byte: the report JSON, `orlicz norm` records and verify's CSV.

The other tests decode these outputs and compare values; these compare
the text itself, so a change in how a record is assembled (key order
aside, which ``sort_keys`` fixes) or how +inf and None are written shows
here.  The texts were taken from the library as of the commit that added
this file.  The whole CSV of ``orlicz verify --suite all`` is held by its
SHA-256 digest, taken at a4a085c; it holds for one platform's libm.  A
change that means to move a verify cell regenerates it with

    PYTHONPATH=src python3 -m orlicz verify --suite all --format csv | sha256sum
"""

import hashlib
import json
import math

import pytest

from orlicz.cli import main
from orlicz.embedding import embedding_report
from orlicz.young import delta_young, exp_young, power_young

REPORTS = [
    ((power_young(2.0), 1.0),
     '{"classifier_agreement": "agreed", "criterion_trail": [[1.0, "divergent", null], [0.5, '
     '"divergent", null], [0.25, "divergent", null], [0.125, "divergent", null], [0.0625, '
     '"divergent", null], [0.03125, "divergent", null]], "embedding_constant": null, '
     '"embedding_constant_modular": null, "family": "power", '
     '"numeric_verdict": "non-coincident", "override_verdict": "non-coincident", '
     '"param": 2.0, "q_trace": [], "sharp": false, "total_mass": 1.0, "unit_threshold": 1.0, '
     '"verdict": "non-coincident", "witness_constant": null}'),
    ((exp_young(2.0), 1.0),
     '{"classifier_agreement": "agreed", "criterion_trail": [[1.0, "divergent", null], [0.5, '
     '"finite", 0.45172764465172677]], "embedding_constant": 1.5216795575620186, '
     '"embedding_constant_modular": 1.0000000000000024, "family": "exp_m", '
     '"numeric_verdict": "coincident", "override_verdict": "coincident", "param": 2.0, '
     '"q_trace": [[1.5216795575620186, "finite", 1.0000000000000024]], "sharp": true, '
     '"total_mass": 1.0, "unit_threshold": 1.1774100225154747, "verdict": "coincident", '
     '"witness_constant": 0.5}'),
    ((delta_young(2.0), 1.0),
     '{"classifier_agreement": "agreed", "criterion_trail": [[1.0, "divergent", null], [0.5, '
     '"finite", 1.3398792542145614]], "embedding_constant": 2.2372639976900266, '
     '"embedding_constant_modular": 1.0, "family": "delta", "numeric_verdict": "coincident", '
     '"override_verdict": "coincident", "param": 2.0, "q_trace": [[4.0, "finite", '
     '0.28976889584300985], [2.382144383557261, "finite", 0.8590358818743532], '
     '[2.251522057606068, "finite", 0.9844043519773577], [2.2372185490032908, "finite", '
     '1.0000503950114732], [2.2372642595979957, "finite", 0.999999709600495], '
     '[2.2372639976948503, "finite", 0.9999999999946517], [2.2372639976900266, "finite", '
     '1.0]], "sharp": true, "total_mass": 1.0, "unit_threshold": 1.299184767425278, '
     '"verdict": "coincident", "witness_constant": 0.5}'),
    ((exp_young(2.0), math.inf),
     '{"classifier_agreement": null, "criterion_trail": [[1.0, "divergent", null], [0.5, '
     '"divergent", null], [0.25, "divergent", null], [0.125, "divergent", null], [0.0625, '
     '"divergent", null], [0.03125, "divergent", null]], "embedding_constant": null, '
     '"embedding_constant_modular": null, "family": "exp_m", '
     '"numeric_verdict": "non-coincident", "override_verdict": null, "param": 2.0, '
     '"q_trace": [], "sharp": false, "total_mass": "inf", "unit_threshold": 0.0, '
     '"verdict": "non-coincident", "witness_constant": null}'),
]


@pytest.mark.parametrize("args, text", REPORTS, ids=["power2", "exp2", "delta2", "exp2-inf"])
def test_report_json_text(args, text):
    assert json.dumps(embedding_report(*args).to_dict(), sort_keys=True) == text


STEP = '{"kind":"step","pieces":[{"value":2,"mass":0.3},{"value":0.5,"mass":0.4}],"mass":1}'
TAIL = '{"kind":"analytic-tail","family":"power","p":2,"mass":1}'  # strong +inf, L^2 divergent
HEADER = "quantity,value,modular_at_value,finite\n"

NORM_OUTPUTS = [
    (STEP, "both", "json", 0,
     '{"function": {"kind": "step", "mass": 1.0, "pieces": [{"mass": 0.3, "value": 2.0}, '
     '{"mass": 0.4, "value": 0.5}]}, "kind": "both", "results": {"strong": {"finite": true, '
     '"modular_at_value": 0.9999999999999998, "value": 1.140175425099138}, '
     '"weak": {"finite": true, "value": 1.0954451150103321}}, "young": "power(2)"}\n'),
    (TAIL, "both", "json", 2,
     '{"function": {"family": "power", "kind": "analytic-tail", "mass": 1.0, "p": 2.0}, '
     '"kind": "both", "results": {"strong": {"finite": false, "modular_at_value": null, '
     '"value": "inf"}, "weak": {"finite": true, "value": 1.0000000000000002}}, '
     '"young": "power(2)"}\n'),
    (STEP, "both", "csv", 0,
     HEADER + "strong,1.140175425099138,0.9999999999999998,true\n"
     "weak,1.0954451150103321,,true\n"),
    (TAIL, "both", "csv", 2,
     HEADER + "strong,inf,,false\nweak,1.0000000000000002,,true\n"),
    (STEP, "lp:2", "json", 0,
     '{"function": {"kind": "step", "mass": 1.0, "pieces": [{"mass": 0.3, "value": 2.0}, '
     '{"mass": 0.4, "value": 0.5}]}, "kind": "lp:2", "results": {"lp(2)": {"finite": true, '
     '"value": 1.140175425099138}}, "young": "power(2)"}\n'),
    (TAIL, "lp:2", "json", 2,
     '{"function": {"family": "power", "kind": "analytic-tail", "mass": 1.0, "p": 2.0}, '
     '"kind": "lp:2", "results": {"lp(2)": {"finite": false, "value": "divergent"}}, '
     '"young": "power(2)"}\n'),
    (STEP, "lp:2", "csv", 0, HEADER + "lp(2),1.140175425099138,,true\n"),
    (TAIL, "lp:2", "csv", 2, HEADER + "lp(2),divergent,,false\n"),
]


@pytest.mark.parametrize("fn, kind, out, code, text", NORM_OUTPUTS, ids=[
    f"{'step' if fn == STEP else 'tail'}-{kind}-{out}" for fn, kind, out, _, _ in NORM_OUTPUTS])
def test_norm_output_text(capsys, fn, kind, out, code, text):
    rc = main(["norm", "--young", "power:2", "--fn", fn, "--kind", kind, "--out", out])
    assert (rc, capsys.readouterr().out) == (code, text)


def test_verify_csv_cells_of_a_tolerance_and_a_property_check(capsys):
    assert main(["verify", "--suite", "expfamily", "--format", "csv"]) == 0
    rows = {line.split(",", 1)[0]: line for line in capsys.readouterr().out.splitlines()}
    assert rows["id"] == "id,anchor,expected,computed,tol,pass"
    assert rows["EF-06"] == ('EF-06,"series vs quadrature on [0, 0.9], 50 points",<= 1e-8,'
                             '1.6042722705833512e-12,1e-08,pass')
    assert rows["EF-07"] == 'EF-07,"gauge strictly increasing on (0,1)",True,True,-,pass'


VERIFY_ALL_CSV_SHA256 = "021fc5300922dfaa147f59dd24af5f401ea32cb7f4c1572591c1022e0b339004"


def test_verify_all_csv_digest(capsys):
    assert main(["verify", "--suite", "all", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = out.splitlines()[1:]
    assert len(rows) == 32 and all(row.endswith(",pass") for row in rows)
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_CSV_SHA256
