"""Spans and counters around the library's public functions.

``Tracer.install`` wraps every public function of the traced modules and
patches the wrapper into every ``orlicz`` module that bound the function
by name (``integrate`` is bound separately in ``numerics``, ``norms``,
``embedding`` and ``expfamily``).  Each wrapper records a span: name,
start, end, parent, and the exception it raised.  Calls of Young
functions, of the integrand passed to ``integrate`` and of the Chebyshev
reference tail are counted, not spanned.  Spans stay in memory until
``metrics`` turns them into per-op numbers; ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter
from typing import Dict, List

TRACED_MODULES = ("young", "tails", "norms", "embedding", "numerics")
_MARK = "_bench_wrapper"
_YOUNG_METHODS = (
    ("__call__", "young.evals"),
    ("inverse", "young.inverse_evals"),
    ("derivative", "young.derivative_evals"),
)


def _orlicz_modules():
    return [m for n, m in list(sys.modules.items())
            if n == "orlicz" or n.startswith("orlicz.")]


def installed_wrappers() -> List[str]:
    """Names of benchmark wrappers currently reachable from ``orlicz``."""
    from orlicz.young import YoungFunction

    found = [f"{m.__name__}.{attr}" for m in _orlicz_modules()
             for attr, v in vars(m).items() if getattr(v, _MARK, False)]
    found += [f"YoungFunction.{meth}" for meth, _ in _YOUNG_METHODS
              if getattr(vars(YoungFunction)[meth], _MARK, False)]
    return found


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index, error]
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- wrappers --------------------------------------------------------

    def _count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(counted, _MARK, True)
        return counted

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        before, after = {
            "numerics.integrate": (self._count_integrand, None),
            "tails.chebyshev_tail": (None, self._count_reference_tail),
            "embedding.coincidence_criterion": (None, self._count_scalings),
            "embedding.embedding_report": (None, self._count_coincident),
        }.get(name, (None, None))

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if before is not None:
                args = before(args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            return result if after is None else after(result)

        setattr(spanned, _MARK, True)
        return spanned

    def _count_integrand(self, args):
        # integrate recurses on wrapped integrands: count at the outermost call
        if self._stack and self.spans[self._stack[-1]][0] == "numerics.integrate":
            return args
        return (self._count("numerics.integrand_evals", args[0]),) + tuple(args[1:])

    def _count_reference_tail(self, tail):
        return type(tail)(self._count("tails.reference_evals", tail.fn), tail.label)

    def _count_scalings(self, result):
        self.counts["embedding.scalings"] += len(result.trail)
        self.counts["embedding.inconclusive_scalings"] += sum(
            1 for _, tag, _ in result.trail if tag == "inconclusive"
        )
        return result

    def _count_coincident(self, report):
        if report.verdict == "coincident":
            self.counts["embedding.coincident_reports"] += 1
        return report

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        from orlicz.young import YoungFunction

        wrappers: Dict[int, tuple] = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"orlicz.{short}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._span(f"{short}.{name}", fn))
        for mod in _orlicz_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for meth, key in _YOUNG_METHODS:
            orig = vars(YoungFunction)[meth]
            self._patches.append((YoungFunction, meth, orig))
            setattr(YoungFunction, meth, self._count(key, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def reset(self) -> None:
        """Forget spans and counts recorded so far (e.g. while building inputs)."""
        self.spans.clear()
        self.counts.clear()

    # -- per-op numbers ----------------------------------------------------

    def metrics(self, n_ops: int) -> Dict[str, float]:
        """Per-layer numbers over the spans recorded since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        raised = 0
        for i, (name, start, end, parent, error) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if (name == "numerics.integrate"
                    and error in ("BudgetExceeded", "Inconclusive")
                    and (parent < 0 or spans[parent][0] != name)):
                raised += 1
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        def per_op(x):
            return x / n_ops

        def ms(name):
            return per_op(self_s[name]) * 1e3

        return {
            "numerics.integrate.calls": per_op(calls["numerics.integrate"]),
            "numerics.integrand_evals": per_op(c["numerics.integrand_evals"]),
            "numerics.evals_per_integrate": ratio(
                c["numerics.integrand_evals"], calls["numerics.integrate"]),
            "numerics.integrate.self_ms": ms("numerics.integrate"),
            "numerics.integrate.raised": per_op(raised),
            "embedding.embedding_report.self_ms": ms("embedding.embedding_report"),
            "embedding.coincidence_criterion.self_ms": ms("embedding.coincidence_criterion"),
            "embedding.embedding_modular.calls": per_op(calls["embedding.embedding_modular"]),
            "embedding.q_evals_per_k0": ratio(
                calls["embedding.embedding_modular"], c["embedding.coincident_reports"]),
            "embedding.scalings_per_report": ratio(
                c["embedding.scalings"], calls["embedding.embedding_report"]),
            "embedding.inconclusive_scalings": per_op(c["embedding.inconclusive_scalings"]),
            "norms.luxemburg_norm.calls": per_op(calls["norms.luxemburg_norm"]),
            "norms.luxemburg_norm.self_ms": ms("norms.luxemburg_norm"),
            "norms.modular.calls": per_op(calls["norms.modular"]),
            "norms.modular.self_ms": ms("norms.modular"),
            "norms.modular_per_luxemburg": ratio(
                calls["norms.modular"], calls["norms.luxemburg_norm"]),
            "norms.weak_norm.self_ms": ms("norms.weak_norm"),
            "tails.tail_norm.calls": per_op(calls["tails.tail_norm"]),
            "tails.tail_norm.self_ms": ms("tails.tail_norm"),
            "tails.reference_evals": per_op(c["tails.reference_evals"]),
            "young.evals": per_op(c["young.evals"]),
            "young.inverse_evals": per_op(c["young.inverse_evals"]),
            "young.derivative_evals": per_op(c["young.derivative_evals"]),
        }
