"""Write ``tests/frozen_counts.json``: the counts and outputs ``tests/test_counts.py`` holds.

    python3 tools/freeze_counts.py

Run from the root of a checkout, with ``src`` on ``PYTHONPATH`` or the
package installed.  Seed ``SEED``'s op lists of the three benchmark
workloads (``bench/workloads.py``) run once under ``bench/tracing.Tracer``,
one op class at a time.  Per class the file holds the tracer's counts
(integrand, Young, inverse, derivative and reference-tail evaluations,
scalings), the number of calls of each traced library function, and a
SHA-256 digest of every op's output, written as ``tools/ab.py``'s ``run``
writes it: its ``repr``, or ``raised Type: message``.

A change that moves a count or an output runs this script and names
every moved class in CHANGES.md.  The digests hold for one platform's
libm; another platform regenerates them and says so.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FROZEN = ROOT / "tests" / "frozen_counts.json"
SEED = 4


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(outputs) -> str:
    return hashlib.sha256("\n".join(outputs).encode()).hexdigest()


def untraced_outputs(seed: int, workload: str) -> dict:
    """Per op class of one workload, the digest of its outputs with no tracer installed.

    ``measure`` writes the same digest from its traced pass, so the two
    agree unless the tracer changes what the library computes.
    """
    workloads = _load("workloads", ROOT / "bench" / "workloads.py")
    run = _load("ab_tool", ROOT / "tools" / "ab.py").run
    by_class = {}
    for op in workloads.build(workload, seed):
        by_class.setdefault(op.kind, []).append(run(op)[0])
    return {kind: _digest(outputs) for kind, outputs in by_class.items()}


def measure(seed: int = SEED) -> dict:
    """Per op class of the three workloads: counts, calls and output digest.

    ``bench`` must be on ``sys.path``, since ``bench/workloads.py`` imports
    its oracles from there.
    """
    workloads = _load("workloads", ROOT / "bench" / "workloads.py")
    tracing = _load("tracing", ROOT / "bench" / "tracing.py")
    run = _load("ab_tool", ROOT / "tools" / "ab.py").run
    tracer = tracing.Tracer()
    classes = {}
    tracer.install()
    try:
        # built under the tracer, so that input-owned reference tails count
        ops = [op for w in workloads.WORKLOADS for op in workloads.build(w, seed)]
        by_class = {}
        for op in ops:
            by_class.setdefault(op.kind, []).append(op)
        for kind, members in by_class.items():
            tracer.reset()
            outputs = [run(op)[0] for op in members]
            classes[kind] = {
                "ops": len(members),
                "counts": dict(sorted(tracer.counts.items())),
                "calls": dict(sorted(Counter(span[0] for span in tracer.spans).items())),
                "outputs": _digest(outputs),
            }
    finally:
        tracer.uninstall()
    return {"seed": seed, "classes": classes}


def main() -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    FROZEN.write_text(json.dumps(measure(), indent=1) + "\n")
    print(f"wrote {FROZEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
