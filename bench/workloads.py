"""Seeded input mixes of the three workloads and the oracle check of each op.

An op is one call a user would make.  ``build(workload, seed)`` turns a
seed into a fixed list of ops; the library sees only the generated
inputs.  Op classes come in fixed, shuffled blocks and draw their
parameters as a Latin hypercube per class, so two seeds give different
inputs with the same mix and the same coverage of every parameter range.

Library functions are looked up on their modules at call time, so the
traced run sees the calls through the wrappers it installs there.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from orlicz import embedding, norms, tails, young

import oracles

WORKLOADS = ("step-norms", "embed-report", "analytic-norms")

# Distinct ops per seed; a run makes whole passes over the list.
LIST_SIZE = {"step-norms": 2400, "embed-report": 240, "analytic-norms": 180}

PARAM_RANGE = {
    "step-norms": {"power": (1.2, 4.0), "exp_m": (0.5, 3.0), "delta": (1.2, 3.0)},
    "embed-report": {"power": (1.2, 4.0), "exp_m": (1.0, 3.0), "delta": (1.2, 3.0)},
    "analytic-norms": {"power": (1.5, 4.0), "exp_m": (1.0, 4.0), "delta": (1.5, 3.0)},
}

# embed-report block of 20: the fast criterion-only cases (power and
# infinite mass) fill 35%, delta 35%, coincident exp_m 30%, so p50 falls
# inside the delta cluster and p90 inside the k0-search cluster.
EMBED_BLOCK = (
    ("exp_m", "finite", 6),
    ("power", "finite", 3),
    ("delta", "finite", 7),
    ("power", "inf", 2),
    ("exp_m", "inf", 1),
    ("delta", "inf", 1),
)

# analytic-norms block of 18: per family, the extremal function's strong
# and weak norm, and two strong plus two weak norms of power tails.
ANALYTIC_BLOCK = tuple(
    (fam, tail, kind, count)
    for fam in ("power", "exp_m", "delta")
    for tail, kind, count in (
        ("extremal", "strong", 1),
        ("extremal", "weak", 1),
        ("power-tail", "strong", 2),
        ("power-tail", "weak", 2),
    )
)


@dataclass
class Op:
    kind: str  # op class, for the failure log
    label: str  # the input, written so that it can be rebuilt
    call: Callable[[], object]  # the timed call; returns a small summary
    params: Dict[str, object]  # the generated inputs the oracle needs


def _points(rng, classes: List[tuple], ranges_of) -> List[tuple]:
    """One point of the box ``ranges_of(c)`` per entry c of ``classes``.

    The points of each class form a Latin hypercube: along every axis of
    its box, the n points of a class take one uniform draw from each of n
    equal strata, in shuffled order.  Two seeds thus give different inputs
    that cover each parameter range alike.
    """
    pools = {}
    for c in dict.fromkeys(classes):
        n = classes.count(c)
        axes = []
        for lo, hi in ranges_of(c):
            strata = list(range(n))
            rng.shuffle(strata)
            axes.append([lo + (hi - lo) * (k + rng.random()) / n for k in strata])
        pools[c] = list(zip(*axes))
    return [pools[c].pop() for c in classes]


def _blocks(rng, block, size: int) -> List[tuple]:
    """``size`` op classes: whole blocks, each shuffled on its own."""
    one = [entry[:-1] for entry in block for _ in range(entry[-1])]
    if size % len(one):
        raise ValueError(f"list size {size} is not a whole number of blocks of {len(one)}")
    out = []
    for _ in range(size // len(one)):
        chunk = list(one)
        rng.shuffle(chunk)
        out += chunk
    return out


def _step_ops(rng: random.Random, size: int) -> List[Op]:
    classes = [(("power", "exp_m", "delta")[i % 3],) for i in range(size)]
    ranges = PARAM_RANGE["step-norms"]
    points = _points(rng, classes, lambda c: (ranges[c[0]], (1.0, 37.0), (0.25, 1.0)))
    ops = []
    for (fam,), (par, count, total) in zip(classes, points):
        weights = [rng.random() + 1e-3 for _ in range(int(count))]
        scale = total / math.fsum(weights)
        pieces = [(10.0 ** rng.uniform(-3.0, 3.0), w * scale) for w in weights]
        N = young.make_young(fam, par)
        f = tails.step_tail(pieces, 1.0)

        def call(N=N, f=f):
            return (norms.luxemburg_norm(N, f).value, norms.weak_norm(N, f).value)

        ops.append(Op(
            kind=f"step/{fam}",
            label=f"make_young({fam!r}, {par!r}), step_tail({pieces!r}, 1.0)",
            call=call,
            params={"family": fam, "param": par, "pieces": pieces},
        ))
    return ops


def _embed_ops(rng: random.Random, size: int) -> List[Op]:
    classes = _blocks(rng, EMBED_BLOCK, size)
    ranges = PARAM_RANGE["embed-report"]
    log_mass = (math.log10(0.25), math.log10(4.0))
    points = _points(rng, classes, lambda c: (ranges[c[0]], log_mass)[: 2 if c[1] == "finite" else 1])
    ops = []
    for (fam, where), (par, *rest) in zip(classes, points):
        mass = 10.0 ** rest[0] if rest else math.inf
        N = young.make_young(fam, par)

        def call(N=N, mass=mass):
            r = embedding.embedding_report(N, mass)
            return (r.verdict, r.numeric_verdict, r.embedding_constant)

        ops.append(Op(
            kind=f"embed/{fam}/{where}",
            label=f"embedding_report(make_young({fam!r}, {par!r}), {mass!r})",
            call=call,
            params={"family": fam, "param": par, "mass": mass},
        ))
    return ops


def _analytic_ops(rng: random.Random, size: int) -> List[Op]:
    classes = _blocks(rng, ANALYTIC_BLOCK, size)
    ranges = PARAM_RANGE["analytic-norms"]
    points = _points(rng, classes, lambda c: (ranges[c[0]], (1.2, 6.0))[: 2 if c[1] == "power-tail" else 1])
    ops = []
    for (fam, tail, kind), (par, *rest) in zip(classes, points):
        N = young.make_young(fam, par)
        if tail == "extremal":
            q = None
            g = embedding.extremal_function(N, 1.0)
            what = "extremal_function(N, 1.0)"
        else:
            q = rest[0]
            g = tails.TailRepFunction(
                tails.AnalyticTail(lambda t, q=q: min(1.0, t ** -q), f"min(1, t^-{q!r})"),
                1.0,
            )
            what = f"min(1, t^-{q!r}) on mass 1"
        norm = {"strong": "luxemburg_norm", "weak": "weak_norm"}[kind]

        def call(N=N, g=g, norm=norm):
            return getattr(norms, norm)(N, g).value

        ops.append(Op(
            kind=f"analytic/{fam}/{tail}/{kind}",
            label=f"{norm}(make_young({fam!r}, {par!r}), {what})",
            call=call,
            params={"family": fam, "param": par, "tail": tail, "kind": kind, "q": q},
        ))
    return ops


_BUILDERS = {
    "step-norms": _step_ops,
    "embed-report": _embed_ops,
    "analytic-norms": _analytic_ops,
}


def build(workload: str, seed: int) -> List[Op]:
    """The seeded op list of ``workload``; the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, LIST_SIZE[workload])


# -- oracle checks -------------------------------------------------------------

Check = Tuple[bool, object, str]


def _both(a: Check, b: Check) -> Check:
    errs = [e for e in (a[1], b[1]) if e is not None]
    reason = "; ".join(r for r in (a[2], b[2]) if r)
    return a[0] and b[0], (max(errs) if errs else None), reason


def check(workload: str, op: Op, summary) -> Check:
    """(ok, relative error against a finite oracle or None, reason)."""
    p = op.params
    fam, par = p["family"], p["param"]
    if workload == "step-norms":
        N, inv = oracles.young(fam, par)
        strong, weak = summary
        return _both(
            oracles.check_step_strong(strong, N, p["pieces"]),
            oracles.check_value(
                weak, oracles.step_weak_norm(inv, p["pieces"], 1.0), oracles.TOL_WEAK,
                "weak norm",
            ),
        )
    if workload == "embed-report":
        verdict, numeric, k0 = summary
        expected = oracles.coincident(fam, p["mass"])
        if expected is None:  # delta: disputed, only a raise counts
            return True, None, ""
        want = "coincident" if expected else "non-coincident"
        if verdict != want or numeric not in (want, "inconclusive"):
            return False, None, f"verdict {verdict!r} (numeric {numeric!r}), exact {want!r}"
        if not expected:
            return True, None, ""
        return oracles.check_value(
            k0, oracles.exp_k0(par, p["mass"]), oracles.TOL_K0, "k0"
        )
    value = summary
    if p["tail"] == "extremal":
        if p["kind"] == "weak":
            return oracles.check_value(value, 1.0, oracles.TOL_WEAK, "weak norm")
        if fam == "delta":  # disputed, only a raise counts
            return True, None, ""
        exact = oracles.exp_k0(par, 1.0) if fam == "exp_m" else math.inf
        return oracles.check_value(value, exact, oracles.TOL_ATTAIN, "strong norm")
    q = p["q"]
    if p["kind"] == "strong":
        return oracles.check_value(
            value, oracles.power_tail_strong(q, fam, par), oracles.TOL_STRONG, "strong norm"
        )
    return oracles.check_value(
        value, oracles.power_tail_weak(q, fam, par), oracles.TOL_WEAK, "weak norm"
    )


# -- known library defects ---------------------------------------------------

def known_defect(workload: str, op: Op, summary, exc) -> Optional[str]:
    """The documented library defect that a failed op shows, or None.

    analytic-norms hits the five library defects listed in README.md
    ("Known failures").  A failure that matches one is still counted and
    listed; any other failure, on any workload, makes the run incorrect.
    """
    if workload != "analytic-norms":
        return None
    p = op.params
    fam, par, q = p["family"], p["param"], p["q"]
    if exc is not None:
        if (fam, p["tail"], p["kind"]) == ("delta", "extremal", "strong") \
                and type(exc).__name__ == "BudgetExceeded":
            return "delta extremal strong norm exhausts its budget"
        return None
    if p["tail"] != "power-tail":
        return None
    if p["kind"] == "strong":
        if fam != "power" and 0.0 < summary < math.inf:
            return "strong norm finite, +inf exact"
        if fam == "power" and math.isinf(summary) and 0.0 < q - par <= 0.05:
            return "strong norm +inf, finite exact (q - p <= 0.05)"
        return None
    if not 0.0 < summary < math.inf:
        return None
    if fam == "power" and q >= par and 0.9 <= summary < 1.0:
        return "weak norm below its exact value 1"
    if math.isinf(oracles.power_tail_weak(q, fam, par)):
        return "weak norm finite, +inf exact"
    return None
