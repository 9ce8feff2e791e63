"""Modulars, the Luxemburg norm, the weak Orlicz norm, Lebesgue-Riesz norms.

Everything is computed from tail representations.  For a step tail the
modular is an exact finite sum over the jump structure; for an analytic
tail it is the integration-by-parts form

    int_0^inf T(t) d N(t/k) = int_0^inf T(t) N'(t/k) / k dt,

whose boundary terms vanish whenever the result is finite, evaluated by
the quadrature kernel.
"""

from __future__ import annotations

import math
import struct
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from .errors import (BudgetExceeded, Inconclusive, NonConvergence, NonEvaluable,
                     NotDominated)
from .numerics import (ABS_TOL, LADDER, NORM_CAP, NORM_REL_TOL, REL_TOL, FiniteOrDivergent,
                       LadderTrace, _IntegrandOverflow, _unit_crossing, integrate)
from .tails import AnalyticTail, StepTail, TailRepFunction
from .young import YoungFunction, _power_family

__all__ = [
    "NormResult",
    "modular",
    "luxemburg_norm",
    "weak_norm",
    "lebesgue_norm",
    "coupling_check",
    "CouplingReport",
    "NORM_CAP",
]


@dataclass(frozen=True)
class NormResult:
    """A computed norm with the modular at the returned scale and a method trace."""

    value: float
    modular_at_value: Optional[float]
    trace: Dict[str, object]

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)


def modular(N: YoungFunction, f: TailRepFunction, k: float) -> FiniteOrDivergent:
    """The quantity int N(|f|/k) dmu computed through the tail of f.

    On a step tail, the exact sum of N(v_i/k) m_i over the thresholds v_i
    and the piece masses m_i = levels[i] - levels[i+1] (taken once, when
    the tail is built), in one pass over the tail's tuples, divergent
    where it overflows.  N is called through its bound ``__call__``,
    looked up on the class once per call, so a wrapper put on
    ``YoungFunction.__call__`` still sees every evaluation.  On an
    analytic tail, the plateau (0, t_p] where T equals the total mass M
    contributes M N(t_p/k) in closed form, and kernel quadrature of
    T(t) N'(t/k)/k runs over the rest of the support (t_p, t_z], t_z
    being where T vanishes (+inf for a tail still positive at 1e12),
    both ends found by ``_support_ends``, split at the tail's breaks;
    see ``_analytic_modular``.  Divergence verdicts propagate.
    """
    if not (k > 0.0):
        raise ValueError("modular scale k must be positive")
    tail = f.tail
    if isinstance(tail, StepTail):
        ev = N.__call__
        total = 0.0
        for v, m in zip(tail.thresholds, tail._masses):
            total += ev(v / k) * m
        if math.isinf(total):
            return FiniteOrDivergent.divergent(
                LadderTrace((), note=f"exact modular sum overflows at k={k:g}")
            )
        return FiniteOrDivergent.finite(total)
    return _analytic_modular(N, f, k, *_support_ends(tail, f.total_mass), {})


def _analytic_modular(N: YoungFunction, f: TailRepFunction, k: float, t_p: float,
                      zero: Tuple[float, bool],
                      reads: Dict[float, float]) -> FiniteOrDivergent:
    """The modular of an analytic tail on the support (t_p, t_z].

    t_p is the plateau end (0: none) and ``zero`` the pair that
    ``_support_ends`` returns with it: the zero start t_z (+inf: none)
    and whether T falls to 0 there from the end of its float range.
    On (0, t_p] the tail is the total mass M, so there the integral of
    T(t) N'(t/k)/k is M N(t_p/k) exactly (Krasnosel'skii and Rutickii,
    1961).  The modular is divergent where that plateau term is +inf, or
    where the plateau reaches the largest float: the tail then never
    leaves its mass within the float range, and nothing past it can be
    integrated.  Past t_z the tail is 0.  The kernel integrates T(t)
    N'(t/k)/k over (t_p, t_z], split at the tail's breaks; a sample of it
    that overflows makes the modular divergent.  With t_p = 0 and t_z =
    +inf this is the quadrature over (0, inf) alone.  Where t_z is the
    float next to t_p, the tail drops from the mass to 0 there, and the
    plateau term is the whole result: the kernel's nodes would round onto
    the ends of that gap.

    Where T falls to 0 from the end of its float range (``faint``),
    its true value past t_z is positive: 1/N past N's overflow cap, say,
    which is about e^-700.  The range then ends at t_z only where the
    integrand times t just below t_z, its density on the log axis, is at
    most ABS_TOL.  Elsewhere the stretch past t_z may carry weight (the
    modular of the delta(2) extremal function is +inf at k = 1), and the
    quadrature runs over (t_p, inf), where the unbounded ladder's slope
    verdict and power-law remainder see it.  t_z then joins the tail's
    breaks, so the jump to 0 there ends a panel instead of being
    bisected over and over: the exp_m(2) extremal modular at k = 1 took
    1,099 integrand samples, 375 of them within 1e-6 of t_z, and takes
    154.  The ladder's cutoffs and probes, and so its slope verdicts and
    remainder, are the same either way.

    A range (0, t_z] with t_z <= 1, which a tail on infinite mass may
    have, is integrated stretched by 10/t_z: integrate's downward
    ladder from 1 then takes the tail's singularity at 0, decade by
    decade below t_z/10, which the t-axis panels of a range ending
    below 1 do not.

    Tail values are read through ``reads``, a dict from t to T(t) that
    the modulars of one norm share: the kernel's nodes depend on t_p,
    t_z and the breaks, not on k, so later modulars find most of their
    nodes there.  Only validated values are stored; an error propagates.
    """
    tail = f.tail
    value = tail.value
    # looked up once per modular, on the instance, so a wrapper put on
    # YoungFunction.derivative before the call still sees every read
    derivative = N.derivative
    get = reads.get

    def integrand(t: float) -> float:
        T = get(t)
        if T is None:
            T = reads[t] = value(t)
        if T == 0.0:
            return 0.0
        d = derivative(t / k)
        if d == 0.0:
            return 0.0
        v = T * d / k
        if v == math.inf:
            # at small k the growth of N' overtakes the tail's decay while
            # both factors are still representable separately: the modular
            # is far beyond 1 there, which is all the callers need to know
            raise _IntegrandOverflow(f"integrand overflow near t={t:g} at k={k:g}")
        return v

    plateau = f.total_mass * N(t_p / k) if t_p > 0.0 else 0.0
    if plateau == math.inf or t_p == _FLOAT_MAX:
        return FiniteOrDivergent.divergent(LadderTrace(
            (), note=f"plateau term M N(t_p/k) overflows at t_p={t_p:g}, k={k:g}"))
    t_z, faint = zero
    if t_z == math.nextafter(t_p, math.inf):
        return FiniteOrDivergent.finite(plateau)
    breaks = tail.breaks
    if faint:
        below = math.nextafter(t_z, 0.0)
        try:
            negligible = integrand(below) * below <= ABS_TOL
        except (NonEvaluable, _IntegrandOverflow):
            negligible = False
        if not negligible:
            breaks = tuple(sorted({*breaks, t_z}))
            t_z = math.inf
    if t_p == 0.0 and t_z <= LADDER[0]:
        s = t_z / 10.0
        r = integrate(lambda u: integrand(u * s) * s, 0.0, 10.0,
                      breaks=tuple(x / s for x in breaks if x < t_z))
    else:
        r = integrate(integrand, t_p, t_z, breaks=breaks)
    return r if r.is_divergent else FiniteOrDivergent.finite(plateau + r.value)


_POWER_WALK = 8  # floats the closed-form power norm may step up past rounding, per reading
# below this a modular's error is bounded by the kernel's absolute stop ABS_TOL,
# not by its relative one REL_TOL, so it is no start for the closed form
_POWER_START_FLOOR = ABS_TOL / REL_TOL
_ABOVE = f"modular above 1 up to cap {NORM_CAP:g}"  # the notes of the caps
_BELOW = "modular below 1 down to cap"
_WEAK_ABOVE = f"weak norm (a lower bound) above cap {NORM_CAP:g}"


def _weak_start(w: float) -> Optional[float]:
    """The start a weak norm w gives: max(w, 2^-64), 1 if w is 0, None above 2^64."""
    if w > NORM_CAP:
        return None
    return max(w, 1.0 / NORM_CAP) if w > 0.0 else 1.0


def _power_start(tail: StepTail | AnalyticTail, t_p: Optional[float],
                 read: Callable[[float], FiniteOrDivergent],
                 weak: Callable[[], float]) -> Tuple[float, str, Optional[FiniteOrDivergent]]:
    """(s, kind, read(s)): the start of the closed-form power norm.

    Under power(p), modular(k) = (s/k)^p modular(s) for every s, so the
    norm is s modular(s)^(1/p) (Krasnosel'skii and Rutickii, 1961), and a
    modular at s that the ladder's slopes call divergent is +inf at every
    k.  ``read(k)`` is the caller's modular, ``weak()`` its weak norm and
    t_p the analytic tail's plateau end (``_support_ends``).  On a step
    tail s is its largest value top (``"largest value"``): the modular
    there is the sum sum_i (v_i/top)^p m_i, whose terms do not overflow,
    and which is exact at any scale.  Its p-th root is not: s
    modular(s)^(1/p) carries a relative error of about |ln modular(s)|
    eps / p from rounding 1/p, and no start rule bounds a large modular
    (a piece of mass 1e20 has one of 1e20), so ``luxemburg_norm`` takes
    the closed form once more where its float walk ends.  An analytic
    tail has one rule: s is the plateau end t_p (``"plateau end"``) where
    1 < t_p < max_float, and 1 (``"unit"``) otherwise.  At t_p the
    plateau term is the mass M, so the modular is about M or more, well
    scaled where the plateau term M t_p^p of the modular at 1 would dwarf
    the rest or overflow.  A plateau that reaches the largest float is not
    read at its end: its modular overflows at every k.

    That one modular is kept where it is divergent with ladder points, or
    finite and at least ABS_TOL / REL_TOL = 1e-4.  Below that floor the
    kernel's absolute stop, not its relative one, bounds its error
    (min(1, (t/1e-9)^-5.4) under power(1.56) came out 7e-5 off).  Where
    it is unusable, s moves to the ``_weak_start`` of the weak norm w
    (``"weak norm"``), where the modular is about 1 or more, read unless s
    is the start already read.  A modular there that overflows with no
    ladder points raises NonEvaluable: the norm may well be finite, so it
    is not called +inf.  Where w exceeds 2^64 no start is left, and the
    result is the start read with None in place of its modular.
    """
    if isinstance(tail, StepTail):
        s = tail.thresholds[-1]
        return s, "largest value", read(s)
    first, kind = (t_p, "plateau end") if 1.0 < t_p < _FLOAT_MAX else (1.0, "unit")
    r = read(first)
    if (r.value >= _POWER_START_FLOOR) if r.is_finite else r.evidence.points:
        return first, kind, r
    s = _weak_start(weak())
    if s is None:
        return first, kind, None
    if s != first:
        r = read(s)
    if r.is_divergent and not r.evidence.points:
        raise NonEvaluable(f"no start for the closed-form power norm: the modular "
                           f"overflows at the weak-norm start s={s:g}")
    return s, "weak norm", r


def luxemburg_norm(N: YoungFunction, f: TailRepFunction) -> NormResult:
    """The strong (Luxemburg) norm inf{k > 0 : modular(f, k) <= 1}.

    Under power(p) the norm is the L^p norm in closed form: k = s
    modular(s)^(1/p), read off one modular at the start s that
    ``_power_start`` picks, as in ``lebesgue_norm``: the plateau end t_p
    of an analytic tail where 1 < t_p < max_float, else 1, and the weak
    norm's start only where the modular there is unusable.  A modular at
    the start that the ladder's slopes call divergent makes the norm
    +inf after that one modular, and so does a start that is not left (a
    weak norm above 2^64).  A modular at the weak norm's start that
    overflows with no ladder points is no evidence of +inf, and raises
    NonEvaluable.  The norm is +inf if k exceeds 2^64 (NORM_CAP) and 0
    if k is below 2^-64.  Rounding may leave modular(k) just above 1; k
    then steps up one float at a time until modular(k) <= 1, for at most
    ``_POWER_WALK`` floats.  Where the modular at s is far from 1, k is
    off by about |ln modular(s)| eps / p, more than that walk covers
    (indicator(1e-20) on unit mass under power(2.2)), so from the walk's
    last k, where the modular is within about 1e-14 of 1, the closed form
    k modular(k)^(1/p) is taken once more and the walk runs again; past
    that, NonConvergence is raised.

    Off power, the weak norm w is a lower bound: modular(f, k) >= T(t)
    N(t/k) for every t (Chebyshev), and that exceeds 1 for some t at
    every k < w.  So ``weak_norm`` runs first.  If w exceeds 2^64, as it
    does whenever it is +inf, the norm is +inf with no modular
    evaluated.  Otherwise the modular, non-increasing in k, goes to the
    shared crossing solver from s = w, raised to 2^-64 where w is below
    it (from 1 if w is 0; ``_weak_start``), a divergent modular counting
    as +inf.  The norm is +inf if the modular stays above 1 up to 2^64,
    0 if it stays at or below 1 down to 2^-64, and else the end of the
    final bracket where the modular is at most 1.  That bracket is 4 ulp
    wide, or NORM_REL_TOL wide where the modular only jumps from +inf or
    to 0; the accuracy is fixed, and no caller chooses another.

    On a step tail every modular is a call of ``modular``, so a wrapper
    put on ``norms.modular`` sees ``modular_evaluations`` calls and one
    put on ``YoungFunction.__call__`` that many times the number of
    pieces.  On an analytic tail the plateau end t_p and the zero start
    t_z (``_support_ends``) are found once, after the cap test on w where
    one runs first; a plateau that ends at exactly 1, as that of every
    power tail min(1, t^-q) on unit mass does, costs 4 tail reads there,
    and any other at most 64 plus the zero start's.  Every modular takes
    the plateau (0, t_p] in closed form and integrates only over the
    support (t_p, t_z], and the modulars read the tail through one dict
    from t to T(t) that lives for this call, so a node an earlier modular
    read is not read again.

    Either way a cap that decides the norm is recorded in the trace as
    ``note``.  Each modular read is kept, with its evidence, by k, so no
    k is read twice.  The trace records ``modular_evaluations``, w as
    ``weak_lower_bound`` (None where no weak norm ran), the start s and
    its kind as ``start`` (None where no modular was read; under power,
    one of ``_power_start``'s kinds, and the start read where no start is
    left), t_p as ``plateau_end`` and t_z as ``zero_start`` (None on a
    step tail, without a plateau or a zero start below 1e12, or where the
    cap on w decided the norm first), the number of distinct tail values
    the modulars read as ``tail_reads`` and, off power, the final
    ``bracket``.  An inconclusive modular anywhere aborts with
    BudgetExceeded rather than silently guessing a side; a root search
    that stalls raises NonConvergence.
    """
    tail = f.tail
    step = isinstance(tail, StepTail)
    memo: Dict[float, FiniteOrDivergent] = {}  # each modular read, with its evidence, by k
    reads: Dict[float, float] = {}  # T(t) at the analytic modulars' nodes
    w: Optional[float] = None  # the weak norm, where one runs
    start: Optional[Tuple[float, str]] = None  # the closed form's or the search's k and its kind
    t_p: Optional[float] = None  # the analytic tail's plateau end, once found
    zero = (math.inf, False)  # and its zero start, as ``_support_ends`` gives it

    def result(value: float, at: Optional[float], **extra: object) -> NormResult:
        return NormResult(value, at, {
            "modular_evaluations": len(memo), "weak_lower_bound": w, "start": start,
            "plateau_end": t_p or None, "zero_start": zero[0] if zero[0] < math.inf else None,
            "tail_reads": len(reads), **extra})

    if step and tail.is_zero:
        w = 0.0
        return result(0.0, 0.0, note="zero function")

    def read(k: float) -> FiniteOrDivergent:
        """The modular at k, with its evidence, read once."""
        r = memo.get(k)
        if r is None:
            try:
                r = memo[k] = (modular(N, f, k) if step
                               else _analytic_modular(N, f, k, t_p, zero, reads))
            except (BudgetExceeded, Inconclusive) as exc:
                raise BudgetExceeded(
                    f"modular at k={k:g} could not be classified: {exc}"
                ) from exc
        return r

    def mod(k: float) -> float:
        """modular(f, k), with +inf standing for a divergent modular."""
        r = read(k)
        return r.value if r.tag == "finite" else math.inf

    def weak() -> float:
        nonlocal w
        w = weak_norm(N, f).value
        return w

    power = N.family == "power"
    if not power:
        s = _weak_start(weak())
        if s is None:
            return result(math.inf, None, note=_WEAK_ABOVE)
        start = (s, "weak norm")
    if not step:
        t_p, zero = _support_ends(tail, f.total_mass)
    if power:
        s, kind, r = _power_start(tail, t_p, read, weak)
        start = (s, kind)
        if r is None:
            return result(math.inf, None, note=_WEAK_ABOVE)
        k = s * mod(s) ** (1.0 / N.param)  # +inf where the modular at s is divergent
        if k > NORM_CAP:
            return result(math.inf, None, note=_ABOVE)
        if k < 1.0 / NORM_CAP:
            return result(0.0, None, note=_BELOW)
        for i in range(2 * _POWER_WALK):
            m = mod(k)
            if m <= 1.0:
                return result(k, m)
            # past the walk, the closed form once more, from a modular within about 1e-14 of 1
            k = k * m ** (1.0 / N.param) if i == _POWER_WALK - 1 else math.nextafter(k, math.inf)
        raise NonConvergence(f"modular still above 1 {_POWER_WALK} floats past the "
                             f"closed-form power norm, at k={k:g}")
    lo, hi = _unit_crossing(mod, start[0])
    if hi == math.inf:
        return result(math.inf, None, note=_ABOVE)
    if lo == 0.0:
        return result(0.0, None, note=_BELOW)
    return result(hi, memo[hi].value, bracket=(lo, hi))


_GRID_PER_DECADE = 20  # weak-norm sample nodes t = 10^(j/20)
_GRID_FIRST = (-15 * _GRID_PER_DECADE, 16 * _GRID_PER_DECADE)  # t in [1e-15, 1e16]
_GRID_LIMIT = 300 * _GRID_PER_DECADE  # the grid grows by decades up to t = 1e+-300
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_FLOAT_MAX = sys.float_info.max
# the nodes of the first grid, computed once: 621 floats, where a table of
# the whole +-300-decade range would hold 12,001
_FIRST_NODES = tuple(10.0 ** (j / _GRID_PER_DECADE)
                     for j in range(_GRID_FIRST[0], _GRID_FIRST[1] + 1))


def _log_t_sup(T: Callable[[float], float], u: Callable[[float], float],
               cap: float) -> Tuple[float, Optional[float], int, Optional[float],
                                    Optional[float]]:
    """Sup of g(t) = t / u(T(t)) over t > 0 (g = 0 where T is 0), sampled in x = log10 t.

    Returns (sup, argmax, evaluations, plateau_end_t, zero_start_t), the
    evaluations counting each node where T was read and each search point.
    g is sampled on the nodes x = j/20 for t in [1e-15, 1e16], which are
    taken from the table ``_FIRST_NODES``; an added decade computes its 20
    nodes.  T is nonincreasing, so on each stretch of nodes the ones with
    T(t) >= cap (the plateau) form a prefix and those with T(t) = 0 a
    suffix; both ends are found by bisection on the node index, and there
    T is not evaluated: g is t / u(cap) on the plateau, where u(T(t)) =
    u(cap), and 0 on the zero run.  Neither run is written out.  t / u(cap)
    rises by the factor 10^(1/20) from node to node (but for a run of +inf,
    where u(cap) is 0 or the quotient overflows), so the plateau's last
    node exceeds every other plateau node by more than the factor 1 +
    NORM_REL_TOL, and only it enters the order statistic below (the first
    node of a run of +inf, found by bisection, in its place); the zero run
    enters nothing.  The last plateau node and the first zero node appear
    as ``plateau_end_t`` and ``zero_start_t`` (None where a run is absent).

    Between the runs, u(T(t)) is nondecreasing, so g(t_k) <= t_k / u_i at
    every node t_k past a node t_i, with u_i = u(T(t_i)).  The last node
    before the zero run is read first; then the nodes are read upward
    from the plateau's end, and after each one every following node whose
    bound t_k / u_i lies below top / (1 + NORM_REL_TOL)^2 is skipped, top
    being the largest sample known (``best``, which holds earlier
    stretches, the last plateau node and the nodes read, and the node
    before the zero run).  The nodes are increasing, so the skipped
    ones form a run, whose end ``bisect_left`` finds.  A skipped node's
    bound and its true value lie below a real sample by more than the
    factor 1 + NORM_REL_TOL, with room left for rounding in u, so it can
    neither be the first largest sample, change a growth test nor move the
    refined cell below: the result is the one a read of every node gives.
    Where the next node is not skipped this costs one comparison, so a flat
    g is not slowed.  A tail value at a plateau, zero-run or skipped node
    is never read or validated.

    No sample is stored.  Each one enters an order statistic kept across
    fills: ``best``, the largest sample; ``second``, the largest once one
    instance of ``best`` is left out; and ``centre``, the first node index
    holding ``best``.  Within a fill the samples enter in ascending t: the
    plateau's last node, the node past it, the nodes read, and last the
    node before the zero run, though that one is read first.  A larger
    sample takes ``best``, with its node as the argmax and its index as
    the centre; a tie with ``best`` moves only the centre, and only to a
    lower index, which only a stretch added below the grid gives.  The
    centre starts at the first grid's first node, where an all-zero grid
    refines.

    Any one sample above NORM_CAP proves the sup +inf, so the first
    grid's fill runs a cap certificate (``certified``) right after the
    two bisections and the read of the last node before the zero run,
    before any other node is read.  It runs where T(1e16) > 0 and g at
    1e16 exceeds g at the first node past the plateau (whose T the
    bisection read) by more than the factor 1 + NORM_REL_TOL: g is read
    at the grid nodes 1, 2, 4, 8, ... decades past 1e16 (t = 1e17, 1e18,
    1e20, 1e24, ..., the last at 1e300) while each sample exceeds the one
    before by that factor.  At the first sample above NORM_CAP the result
    is +inf, its node the argmax and the probes counted among the
    evaluations; no other node is read and no decade is added.  Where no
    probe passes NORM_CAP, the grid runs as without them (a probe changes
    no sample, and its read is not shared with a later fill), so a finite
    result keeps its value and argmax.  A g that does not rise across the
    grid pays no probe.  The low end has no certificate: there g grows
    past 2^64 only on an infinite (or huge) mass, and the grid climbs it.

    While the sample at an end node exceeds every other sample by more
    than the factor 1 + NORM_REL_TOL (so rounding noise on a flat g does
    not count), the grid grows by a whole decade at that end, up to t =
    1e+-300, through the same fill.  That end node is then the centre,
    and ``best`` > (1 + NORM_REL_TOL) ``second``: the growth tests read
    the statistic alone, so a step costs only the new decade.  Past the
    last node where T vanishes g is 0, so the upper end stops there by
    itself.  A golden-section search (Kiefer, 1953) then refines over the
    two cells beside the centre until they are NORM_REL_TOL wide in t.  A
    search point at or below the last plateau node has T(t) >= T there >=
    cap, so g is t / u(cap) there, and neither T nor u is called: a power
    tail's g peaks at its plateau end, and about a third of the points
    fall on the plateau.  Such a point still counts among the
    evaluations.  The largest value evaluated is returned, +inf once it
    exceeds NORM_CAP.
    On ties the grid node that joined the grid first is the argmax: the
    first grid, then each added decade in turn, each in ascending t (a later
    sample replaces ``best`` only when it exceeds it).

    The result is the sup to NORM_REL_TOL when g is unimodal near its
    largest node.  Otherwise a peak in another cell can be missed, but as
    T is nonincreasing, g(t) <= 10^(1/20) g(t_j) on each cell [t_j,
    t_j 10^(1/20)], so the result is within that factor of the sup over
    the sampled range.  A larger peak beyond a dip (or a flat stretch)
    past the ends of the grid is not seen.
    """
    # the order statistic: the largest sample, the largest once one instance
    # of it is left out, and the first node index holding it (where an
    # all-zero grid refines)
    best, second, centre = 0.0, 0.0, _GRID_FIRST[0]
    argmax, count = None, 0
    plateau_end, zero_start = None, None  # node indices j
    step = _GRID_PER_DECADE
    u_cap = u(cap)
    margin = 1.0 + NORM_REL_TOL
    skip_margin = margin * margin

    def flat(t: float) -> float:
        """g on the plateau: t / u(cap), +inf where u(cap) is 0."""
        return t / u_cap if u_cap > 0.0 else math.inf

    def g(t: float, y: float) -> float:
        """t / u(y): 0 where y is 0, +inf where u(y) is 0."""
        if y == 0.0:
            return 0.0
        uy = u(y)
        return t / uy if uy > 0.0 else math.inf

    def certified(first: float, end: float) -> bool:
        """The first grid's cap certificate (above): whether g passes NORM_CAP.

        ``first`` and ``end`` are g at the first node past the plateau and
        at t = 1e16.  Only a sample above NORM_CAP becomes the largest
        sample, and its node the argmax.
        """
        nonlocal best, argmax, count
        hi = _GRID_FIRST[1]
        reach = _GRID_LIMIT - hi
        prev, v, t, off = first, end, _FIRST_NODES[-1], 0
        while v <= NORM_CAP:
            if not v > margin * prev or off == reach:
                return False
            off = min(max(2 * off, step), reach)
            t = 10.0 ** ((hi + off) / step)
            count += 1
            prev, v = v, g(t, T(t))
        best, argmax = v, t
        return True

    def fill(a: int, b: int) -> bool:
        """Sample g on the nodes j = a..b into the statistic; True where ``certified``."""
        nonlocal best, second, argmax, count, centre, plateau_end, zero_start
        if (a, b) == _GRID_FIRST:
            nodes: Sequence[float] = _FIRST_NODES
        else:
            nodes = [10.0 ** (j / step) for j in range(a, b + 1)]
        levels: Dict[int, float] = {}

        def level_at(i: int) -> float:
            if i not in levels:
                levels[i] = T(nodes[i])
            return levels[i]

        n = len(nodes)
        p = bisect_left(range(n), True, key=lambda i: level_at(i) < cap)
        z = bisect_left(range(n), True, lo=p, key=lambda i: level_at(i) == 0.0)
        if p > 0 and (plateau_end is None or a + p - 1 > plateau_end):
            plateau_end = a + p - 1
        if z < n and (zero_start is None or a + z < zero_start):
            zero_start = a + z

        def enter(v: float, i: int) -> None:
            """Let the sample v at node i in, as the read loop below does."""
            nonlocal best, second, argmax, centre
            if v > best:
                best, second, argmax, centre = v, best, nodes[i], a + i
            elif v == best:
                second = v
                if a + i < centre:  # a tie, in a stretch added below
                    centre = a + i
            elif v > second:
                second = v

        if p:  # the last plateau node, or the first of a run of +inf there
            v = flat(nodes[p - 1])
            enter(v, bisect_left(range(p), v, key=lambda i: flat(nodes[i]))
                  if p > 1 and flat(nodes[p - 2]) == v else p - 1)
        if p < z:
            last = z - 1
            v_last = vp = g(nodes[last], level_at(last))
            if p < last:  # T at p was read by the plateau's bisection
                y = level_at(p)
                ui = u(y) if y > 0.0 else math.inf
                vp = nodes[p] / ui if ui > 0.0 else math.inf
            # vp, g at p, is the certificate's first sample
            if z == n and (a, b) == _GRID_FIRST and certified(vp, v_last):
                count += len(levels)
                return True  # +inf is proven: no other node is read
            enter(vp, p)
            if p < last:
                top = max(best, v_last)  # the largest sample known
                i = p + 1
                get = levels.get
                while i < last:  # ui is u at the last node read
                    # the nodes t_k < lim, where t_k / ui < top / margin^2, form
                    # a run; it is empty where ui is 0, or lim NaN (0 * inf)
                    lim = top / skip_margin * ui
                    if nodes[i] < lim:
                        i = bisect_left(nodes, lim, i + 1, last)
                        if i == last:
                            break
                    y = get(i)
                    if y is None:
                        y = levels[i] = T(nodes[i])
                    ui = u(y) if y > 0.0 else math.inf
                    v = nodes[i] / ui if ui > 0.0 else math.inf
                    if v > top:
                        top = v
                    if v > best:  # enter(v, i) written out: a call per node read costs
                        best, second, argmax, centre = v, best, nodes[i], a + i
                    elif v == best:
                        second = v
                        if a + i < centre:
                            centre = a + i
                    elif v > second:
                        second = v
                    i += 1
                enter(v_last, last)  # read first, but the last in ascending t
        count += len(levels)
        return False

    def at(x: float) -> float:
        """g at the search point t = 10^x, counted; flat(t) at or below plateau_t."""
        nonlocal best, argmax, count
        t = 10.0 ** x
        count += 1
        v = flat(t) if t <= plateau_t else g(t, T(t))
        if v > best:
            best, argmax = v, t
        return v

    def node_t(j: Optional[int]) -> Optional[float]:
        return None if j is None else 10.0 ** (j / step)

    lo, hi = _GRID_FIRST
    if fill(lo, hi):
        return math.inf, argmax, count, node_t(plateau_end), node_t(zero_start)
    while best <= NORM_CAP and best > margin * second:
        if centre == lo > -_GRID_LIMIT:
            lo -= step
            fill(lo, lo + step - 1)
        elif centre == hi < _GRID_LIMIT:
            fill(hi + 1, hi + step)
            hi += step
        else:
            break

    runs = node_t(plateau_end), node_t(zero_start)
    if best > NORM_CAP:
        return (math.inf, argmax, count) + runs
    plateau_t = 0.0 if plateau_end is None else runs[0]

    a, b = max(centre - 1, lo) / step, min(centre + 1, hi) / step
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    gc, gd = at(c), at(d)
    width = NORM_REL_TOL / math.log(10.0)
    while b - a > width and a < c < d < b:
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - _INV_PHI * (b - a)
            gc = at(c)
        else:
            a, c, gc = c, d, gd
            d = a + _INV_PHI * (b - a)
            gd = at(d)
    return (math.inf if best > NORM_CAP else best, argmax, count) + runs


_PLATEAU_FLOOR = 1e-12  # the plateau and zero searches start where the down ladder ends
_ZERO_CEIL = LADDER[-1]  # 1e12, the ladder's top cutoff: a tail positive there has no zero start
_FAINT = 1e-300  # a tail that falls to 0 from below this leaves the float range there
_ABOVE_ONE = math.nextafter(1.0, math.inf)  # T is below the mass here if the plateau ends at 1


def _float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(b: int) -> float:
    return struct.unpack("<d", struct.pack("<q", b))[0]


def _support_ends(tail: AnalyticTail, mass: float) -> Tuple[float, Tuple[float, bool]]:
    """(t_p, (t_z, faint)): the plateau end and the zero start of T.

    T is nonincreasing and at most the mass M.  The plateau end t_p is
    the largest float with T(t_p) >= M, so T equals M on (0, t_p]; it is
    0 on infinite mass or where T(1e-12) is below M.  The zero start t_z
    is the smallest float above max(t_p, 1e-12) with T(t_z) = 0, so T
    vanishes on [t_z, inf) and the quadrature can stop there; it is +inf
    where T(1e12) > 0, and t_p < 1e12 otherwise, T being M at t_p.  On
    positive doubles the order of the values is the order of their bit
    patterns, so each end is bisected over the patterns.

    T is read at 1e12 first, and both ends use that read.  Where T(1e12)
    >= M, t_p is bisected from 1e12 to the largest float (at most 62
    reads).  Otherwise t_p < 1e12, and before bisecting T is read at the
    float above 1 and then at 1, since a plateau that ends at exactly 1
    is common (min(M, t^-q) on mass M = 1, and the power extremal function
    on unit mass): there the search costs 4 tail reads in all, 1e12's and
    1e-12's included, where a bisection from 1e-12 to the largest float
    took 64.  Elsewhere the two reads bound the bisection to (1e-12, 1) or
    (1, 1e12) (at most 58 reads), so the plateau end costs at most 64
    reads, and no tail more than that whole-range bisection did.  Then,
    only where T(1e12) is 0, t_z is bisected up to 1e12 (at most 63 more
    reads), and T is read once more at the float below t_z.

    ``faint`` says whether T falls to 0 at t_z from below 1e-300.  Such
    a fall is where the tail leaves the float range, by an underflow or
    by 1/N at N's overflow cap (about e^-700 = 1e-304), rather than
    necessarily where its support ends; ``_analytic_modular`` ends the
    range there only where the integrand is negligible.
    """
    value = tail.value
    ceil = value(_ZERO_CEIL)
    t_p = 0.0
    if mass < math.inf and value(_PLATEAU_FLOOR) >= mass:
        # T is at the mass at lo's pattern and below it at hi's, +inf's
        # standing in for a tail that stays at the mass to max_float
        lo, hi = _float_bits(_PLATEAU_FLOOR), _float_bits(_ZERO_CEIL)
        if ceil >= mass:
            lo, hi = hi, _float_bits(math.inf)
        elif value(_ABOVE_ONE) >= mass:
            lo = _float_bits(_ABOVE_ONE)
        elif value(1.0) >= mass:
            lo = hi = _float_bits(1.0)
        else:
            hi = _float_bits(1.0)
        # t_p is the pattern before the first one past lo where T is below the mass
        t_p = _bits_float(lo + bisect_left(range(lo + 1, hi), True,
                                           key=lambda b: value(_bits_float(b)) < mass))
    if ceil != 0.0:
        return t_p, (math.inf, False)
    lo, top = _float_bits(max(t_p, _PLATEAU_FLOOR)) + 1, _float_bits(_ZERO_CEIL)
    t_z = _bits_float(lo + bisect_left(range(lo, top), True,
                                       key=lambda b: value(_bits_float(b)) == 0.0))
    return t_p, (t_z, value(math.nextafter(t_z, 0.0)) < _FAINT)


def weak_norm(N: YoungFunction, f: TailRepFunction) -> NormResult:
    """The weak Orlicz norm: scaling norm of T[f] against the Chebyshev tail.

    T(t) <= min(mass, 1/N(t/K)) holds iff t/K <= N^{-1}(1/min(T(t), mass)),
    so the norm is sup_t g(t) with g(t) = t / N^{-1}(1/min(T(t), mass)),
    and no search over K is needed.  A level is capped at the total mass,
    which a step level may exceed by rounding, and at the largest float.
    A level of +inf, which 1/N(t) gives wherever N(t) underflows, stands
    for one just beyond the float range; it gives the norm +inf at every
    t above 2^64 N^{-1}(1/max_float).  A level of 0 gives g = 0.  On a
    step tail the levels are held on left-open intervals, so the sup is
    the maximum over the thresholds t_i, with no helper called per
    threshold.  On an analytic tail it is taken to NORM_REL_TOL by
    ``_log_t_sup``, whose docstring states what its grid can miss.  It
    relies on T being nonincreasing: g is t / N^{-1}(1/cap) wherever
    T(t) >= cap and 0 wherever T(t) = 0, so T is not evaluated at those
    grid nodes, and g(t) <= t / N^{-1}(1/min(T(s), cap)) for s < t, so a
    grid node where that bound from an earlier node lies below the
    largest sample is skipped; tail values at these nodes are not
    validated.  No sample is stored: each one enters, as it is read, one
    order statistic (the largest sample, the largest once one instance of
    it is left out, and the first node holding it), and the growth tests
    and the search read only that.  So the Python work is per node read:
    one dict lookup, the tail call and one call of the inverse.  A +inf the
    grid would find by climbing decade by decade is mostly proven by its
    cap certificate: where g rises across the first grid, g is probed 1,
    2, 4, ... decades past t = 1e16 before the rest of the grid is read,
    and one sample above 2^64 settles the norm.  ``N.inverse`` (and
    ``tail.value``) are looked up once per call, on the instance, for both
    kinds of tail, so a wrapper put on ``YoungFunction.inverse`` before
    the call still sees every inverse evaluation: one per threshold on a
    step tail.
    The trace records as ``evaluations`` the number of points where g
    was taken (on a step tail, one per threshold, each a tail value
    read; on an analytic tail, the grid nodes read, by the bisections or
    between the runs, plus the certificate's probes and the
    golden-section points, of which those on the plateau read no tail
    value), the t where the returned value was attained as ``argmax_t``
    (None for 0; for a +inf the certificate proves, the certificate node,
    whose sample passed 2^64), and the last plateau node and the first zero node of
    the first grid's bisections (and of any decade added) as
    ``plateau_end_t`` and ``zero_start_t`` (None where the run is absent,
    and always on a step tail).
    """
    mass = f.total_mass
    tail = f.tail
    cap = min(mass, _FLOAT_MAX)

    inverse = N.inverse
    if isinstance(tail, StepTail):
        value, argmax = 0.0, None
        for t, level in zip(tail.thresholds, tail.levels):
            ui = inverse(1.0 / (cap if cap < level else level))
            v = t / ui if ui > 0.0 else math.inf
            if v > value:
                value, argmax = v, t
        count, plateau_end, zero_start = len(tail.thresholds), None, None
    else:
        def u(y: float) -> float:
            return inverse(1.0 / (cap if cap < y else y))

        value, argmax, count, plateau_end, zero_start = _log_t_sup(tail.value, u, cap)
    return NormResult(value, None, {
        "evaluations": count,
        "argmax_t": argmax,
        "plateau_end_t": plateau_end,
        "zero_start_t": zero_start,
    })


def lebesgue_norm(f: TailRepFunction, p: float) -> FiniteOrDivergent:
    """(int |f|^p dmu)^(1/p): s modular(s)^(1/p) under power(p), s from ``_power_start``.

    The power Young function is built here for any p >= 1, p = 1
    included, which ``power_young`` rejects.  At s = 1 the modular is
    p int t^(p-1) T(t) dt, and on a step tail, at its largest value top,
    the exact sum sum_j (v_j/top)^p m_j over the (value, mass) pieces.
    An analytic tail whose plateau ends at t_p > 1 starts there, where
    the plateau term is the mass: the L^2 norm of min(1, (t/1e200)^-3) is
    sqrt(3) 1e200 from modular(1e200) = 3.  Unlike ``luxemburg_norm``
    this has no caps and no float walk, so a norm of 1e200 stays a
    float.  The result is divergent where the modular at the start is
    divergent with ladder points (+inf at every scale), or where the
    tail's plateau reaches the largest float.  Where no usable start is
    left (the modular at the start overflows or lies below 1e-4 and the
    weak norm exceeds 2^64), NonEvaluable names p, and ``_power_start``
    raises it where the modular at the weak norm's start overflows: the
    integral may well be finite, so it is not called divergent.  p =
    +inf, like NaN, raises ValueError: the sup norm is not this formula.
    """
    if not (1.0 <= p < math.inf):
        raise ValueError("Lebesgue exponent must satisfy 1 <= p < inf")
    tail = f.tail
    N = _power_family(p)
    if isinstance(tail, StepTail):
        if tail.is_zero:
            return FiniteOrDivergent.finite(0.0)
        t_p = None

        def read(k: float) -> FiniteOrDivergent:
            return modular(N, f, k)
    else:
        t_p, zero = _support_ends(tail, f.total_mass)
        if t_p == _FLOAT_MAX:
            return FiniteOrDivergent.divergent(
                LadderTrace((), note="the plateau reaches the largest float"))
        reads: Dict[float, float] = {}

        def read(k: float) -> FiniteOrDivergent:
            return _analytic_modular(N, f, k, t_p, zero, reads)

    s, _, r = _power_start(tail, t_p, read, lambda: weak_norm(N, f).value)
    if r is None:
        raise NonEvaluable(f"no start for the closed-form L^p norm at p={p:g}: the modular "
                           f"overflows or is below {_POWER_START_FLOOR:g}, and the weak "
                           f"norm exceeds {NORM_CAP:g}")
    if r.is_divergent:
        return r
    return FiniteOrDivergent.finite(s * r.value ** (1.0 / p))


@dataclass(frozen=True)
class CouplingReport:
    """Monotone-coupling check: dominated tails give dominated modulars."""

    modular_dominated: FiniteOrDivergent
    modular_dominating: FiniteOrDivergent
    holds: bool


def coupling_check(N: YoungFunction, f: TailRepFunction, g: TailRepFunction) -> CouplingReport:
    """Verify T[f] <= T[g] pointwise, then modular(f) <= modular(g) at k = 1.

    Raises NotDominated when the pointwise precondition fails.  A divergent
    dominating modular dominates everything; a divergent dominated modular
    can only be matched by a divergent dominating one.
    """
    ft, gt = f.tail, g.tail
    if isinstance(ft, StepTail) and isinstance(gt, StepTail):
        probes = sorted(set(ft.thresholds) | set(gt.thresholds))
    else:
        probes = [10.0 ** (e / 4.0) for e in range(-48, 49)]
    for t in probes:
        if ft.value(t) > gt.value(t) * (1.0 + 1e-12):
            raise NotDominated(f"T[f]({t:g}) = {ft.value(t):g} exceeds T[g]({t:g}) = {gt.value(t):g}")

    mf = modular(N, f, 1.0)
    mg = modular(N, g, 1.0)
    if mg.is_divergent:
        holds = True
    elif mf.is_divergent:
        holds = False
    else:
        holds = mf.value <= mg.value * (1.0 + 1e-12) + 1e-15
    return CouplingReport(mf, mg, holds)
