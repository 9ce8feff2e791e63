"""Acceptance gate: every headline claim at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Criterion C07c classifies delta(2) as coincident: the
criterion integral on the t-axis is finite at scaling 1/2 (about
2 ln t t^(-1 - 2 ln 2)), and both that value and the embedding constant
are checked against the mpmath oracle in ``oracle_values``.
"""

import math
import random
import time

import pytest

from orlicz.embedding import (
    COINCIDENT,
    NON_COINCIDENT,
    embedding_constant,
    embedding_modular,
    embedding_report,
    extremal_function,
)
from orlicz.expfamily import (
    critical_alpha,
    exp_embedding_modular,
    gauge_series,
    gauge_slope_at_zero,
)
from orlicz.norms import coupling_check, luxemburg_norm, modular, weak_norm
from orlicz.tails import step_tail
from orlicz.verify import random_step_pieces
from orlicz.young import delta_young, exp_young, power_young

from oracle_values import DELTA2_CRITERION_T_FORM, DELTA2_K0

SEED = 20230814


def report(cid, description, ok, detail=""):
    print(f"[{cid}] {description}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{cid} {description} {detail}"


@pytest.fixture(scope="module")
def k0_exp2():
    return embedding_constant(exp_young(2.0), 1.0)


def test_c01_critical_alpha():
    t0 = time.perf_counter()
    a0 = critical_alpha(1e-10)
    residual = abs(gauge_series(a0) - 2.0)
    elapsed = time.perf_counter() - t0
    ok = 0.431865 <= a0 <= 0.431875 and residual <= 1e-10 and elapsed < 1.0
    report("C01", "root of gauge(alpha)=2 near 0.431870", ok,
           f"(alpha={a0:.8f}, residual={residual:.2e}, {elapsed:.2f}s)")


def test_c02_log_slope_integral():
    t0 = time.perf_counter()
    quad, analytic = gauge_slope_at_zero()
    elapsed = time.perf_counter() - t0
    err = abs(quad - analytic)
    ok = err <= 1e-8 and elapsed < 1.0
    report("C02", "int |ln z|/(1-z)^2 over (0,1/2) equals 2 ln 2", ok,
           f"(err={err:.2e}, {elapsed:.2f}s)")


def test_c03_gauge_intercept():
    err = abs(gauge_series(0.0) - 1.0)
    report("C03", "gauge(0) = 1", err <= 1e-12, f"(err={err:.2e})")


def test_c04_cross_module_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (1.0, 1.5, 2.0, 3.0, 5.0):
        N = exp_young(m)
        for k in (1.2, 1.5, 2.0, 3.0):
            generic = embedding_modular(N, k, 1.0).require_finite()
            worst = max(worst, abs(generic - exp_embedding_modular(m, k)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    report("C04", "generic embedding modular vs closed form on the 5x4 grid", ok,
           f"(worst={worst:.2e}, {elapsed:.1f}s)")


def test_c05_embedding_constants(k0_exp2):
    expected = critical_alpha(1e-10) ** -0.5
    err = abs(k0_exp2 - expected)
    k100 = embedding_constant(exp_young(100.0), 1.0)
    ok = err <= 1e-4 and k100 < 1.01
    report("C05", "embedding constants: exp_m(2) exact, exp_m(100) near 1", ok,
           f"(err={err:.2e}, k0[exp_m(100)]={k100:.5f})")


def test_c06_attainment():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (1.5, 2.0, 3.0):
        N = exp_young(m)
        k0 = embedding_constant(N, 1.0)
        lux = luxemburg_norm(N, extremal_function(N, 1.0)).value
        worst = max(worst, abs(lux - k0) / k0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    report("C06", "strong norm of the extremal function attains the constant", ok,
           f"(worst rel err={worst:.2e}, {elapsed:.1f}s)")


def test_c07a_power_family_classification():
    details = []
    ok = True
    for p in (1.5, 2.0, 4.0):
        rep = embedding_report(power_young(p), 1.0)
        good = rep.verdict == NON_COINCIDENT and rep.classifier_agreement == "agreed"
        ok = ok and good
        details.append(f"p={p:g}:{rep.verdict}/{rep.classifier_agreement}")
    report("C07a", "power family non-coincident with classifier agreement", ok,
           f"({'; '.join(details)})")


def test_c07b_exp_family_classification():
    details = []
    ok = True
    for m in (1.0, 2.0, 3.0):
        rep = embedding_report(exp_young(m), 1.0)
        good = rep.verdict == COINCIDENT and rep.classifier_agreement == "agreed"
        ok = ok and good
        details.append(f"m={m:g}:{rep.verdict}/{rep.classifier_agreement}")
    report("C07b", "exponential family coincident with classifier agreement", ok,
           f"({'; '.join(details)})")


def test_c07c_delta_family_classification():
    rep = embedding_report(delta_young(2.0), 1.0)
    verdict_ok = rep.verdict == COINCIDENT
    agreement_ok = rep.classifier_agreement == "agreed"
    c, outcome, value = rep.criterion_trail[-1]
    witness_ok = (
        rep.witness_constant == 0.5
        and (c, outcome) == (0.5, "finite")
        and abs(value - DELTA2_CRITERION_T_FORM[2.0]) <= 1e-7
    )
    k0 = rep.embedding_constant
    k0_ok = k0 is not None and abs(k0 - DELTA2_K0[1.0]) <= 1e-9
    report(
        "C07c",
        "delta(2) coincident with the numeric classifier agreeing",
        verdict_ok and agreement_ok and witness_ok and k0_ok,
        f"(verdict={rep.verdict}, classifier={rep.classifier_agreement},"
        f" witness={rep.witness_constant}, integral={value!r}, k0={k0!r})",
    )


def test_c08_property_suite(k0_exp2):
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    families = [power_young(2.0), exp_young(2.0), delta_young(2.0)]

    worst_gap = -math.inf
    worst_sandwich = -math.inf
    for N in families:
        for _ in range(200):
            f = step_tail(random_step_pieces(rng), 1.0)
            w = weak_norm(N, f).value
            s = luxemburg_norm(N, f).value
            worst_gap = max(worst_gap, w - s)
            if N.family == "exp_m":
                worst_sandwich = max(worst_sandwich, s - k0_exp2 * w * (1.0 + 1e-6))
    lower_ok = worst_gap <= 1e-8
    sandwich_ok = worst_sandwich <= 1e-8

    worst_hom = 0.0
    N = exp_young(2.0)
    for _ in range(100):
        pieces = random_step_pieces(rng, max_pieces=5)
        c = 10.0 ** rng.uniform(-3.0, 3.0)
        f = step_tail(pieces, 1.0)
        fc = step_tail([(v * c, m) for v, m in pieces], 1.0)
        for norm in (luxemburg_norm, weak_norm):
            base = norm(N, f).value
            scaled = norm(N, fc).value
            worst_hom = max(worst_hom, abs(scaled - c * base) / (c * base))
    hom_ok = worst_hom <= 1e-9

    coupling_ok = True
    for _ in range(100):
        pieces = random_step_pieces(rng, max_pieces=5)
        factor = rng.uniform(1.0, 4.0)
        f = step_tail(pieces, 1.0)
        g = step_tail([(v * factor, m) for v, m in pieces], 1.0)
        coupling_ok = coupling_ok and coupling_check(N, f, g).holds

    worst_id = 0.0
    for _ in range(200):
        pieces = random_step_pieces(rng)
        k = max(1.0, max(v for v, _ in pieces) / 3.0)
        direct = sum(N(v / k) * m for v, m in pieces)
        through = modular(N, step_tail(pieces, 1.0), k).require_finite()
        if direct > 0.0:
            worst_id = max(worst_id, abs(direct - through) / direct)
    identity_ok = worst_id <= 1e-12

    elapsed = time.perf_counter() - t0
    ok = lower_ok and sandwich_ok and hom_ok and coupling_ok and identity_ok and elapsed < 120.0
    report("C08", "seeded property suite (order, sandwich, homogeneity, coupling, identity)", ok,
           f"(gap={worst_gap:.1e}, sandwich={worst_sandwich:.1e}, hom={worst_hom:.1e},"
           f" identity={worst_id:.1e}, {elapsed:.1f}s)")


def test_c09_indicator_coincidence():
    worst = 0.0
    for N in (power_young(2.0), exp_young(2.0), delta_young(2.0)):
        for a in (0.1, 0.5, 1.0):
            closed = 1.0 / N.inverse(1.0 / a)
            f = step_tail([(1.0, a)], 1.0)
            worst = max(
                worst,
                abs(luxemburg_norm(N, f).value - closed),
                abs(weak_norm(N, f).value - closed),
            )
    report("C09", "indicator norms coincide and match 1/N^{-1}(1/a)", worst <= 1e-8,
           f"(worst={worst:.2e})")


def test_c10_embedding_modular_shape():
    N = exp_young(2.0)
    ks = [1.05 + (50.0 - 1.05) * i / 19.0 for i in range(20)]
    qs = [embedding_modular(N, k, 1.0).require_finite() for k in ks]
    decreasing = all(a > b for a, b in zip(qs, qs[1:]))
    near_one = embedding_modular(N, 1.001, 1.0)
    blows_up = near_one.is_divergent or near_one.value > 100.0
    at_hundred = embedding_modular(N, 100.0, 1.0).require_finite()
    ok = decreasing and blows_up and at_hundred < 1e-3
    report("C10", "embedding modular strictly decreasing, large near 1, small at 100", ok,
           f"(Q(1.001)={'divergent' if near_one.is_divergent else near_one.value},"
           f" Q(100)={at_hundred:.2e})")
