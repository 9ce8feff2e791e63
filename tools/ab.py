"""Interleaved in-process A/B of two revisions of the library on a benchmark workload.

    python3 tools/ab.py --base HEAD~1 --workload analytic-norms --seeds 1,2,3 --passes 5
    python3 tools/ab.py --base HEAD --head HEAD --seeds 1,2,3,4,5        # an A/A run
    python3 tools/ab.py --base HEAD~1 --workload all --seeds 1,2,3 --passes 1   # same outputs?

Run from the root of a checkout.  ``--base`` (side A) and ``--head``
(side B) name git revisions; each one's ``src/orlicz`` is extracted with
``git archive`` into the git-ignored ``.bench_build/``.  Without
``--head``, side B is the working tree's ``src/orlicz``.  Both trees are
imported into this one process under distinct package names, and
``bench/workloads.py`` is imported once per tree, so each side's op list
calls its own library.

For each seed, every op of the seeded list runs on both sides back to
back, the side that goes first alternating from op to op and from pass
to pass; an op's cost on a side is its fastest time over ``--passes``
passes, as in ``bench/run.py``.  Per seed the script prints both sides'
total op time, p50 and p90 over the per-op costs and the change from A
to B, the change per op class with the number of its ops whose cost on
side A is at or above A's p90 (the classes that set a p90 claim), and
every op whose output (its ``repr``, or the exception it raised) differs
between the sides.  The last lines say on how many seeds each figure
fell and give the median change.
``--workload all`` runs the three workloads in turn.  ``--json PATH``
writes the same numbers as JSON, by workload and seed.  The exit status
is 1 where any op's output differs between the sides, else 0, so one
pass per op checks that a change keeps every output.

The two sides share the host's load at every moment, so the changes
read here spread far less than those of separate ``bench/run.py`` runs.
They are no substitute for those runs, which time a fresh process per
side; they show the effect of a change on each op and each seed.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import statistics
import subprocess
import sys
import tarfile
from io import BytesIO
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
BUILD = ROOT / ".bench_build"


def extract(rev: str) -> Path:
    """``src/orlicz`` of ``rev``, extracted under ``.bench_build/<commit>/``."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    dest = BUILD / commit
    if not (dest / "src" / "orlicz" / "__init__.py").is_file():
        archive = subprocess.run(["git", "archive", commit, "src/orlicz"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=BytesIO(archive)) as tar:
            tar.extractall(dest)
    return dest / "src" / "orlicz"


def load(package: Path, name: str):
    """The library at ``package`` imported as ``name``, and bench/workloads.py bound to it."""
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    lib = importlib.util.module_from_spec(spec)
    sys.modules[name] = lib
    spec.loader.exec_module(lib)
    # workloads.py runs `from orlicz import ...`: let that name this tree while it loads
    saved = sys.modules.get("orlicz")
    sys.modules["orlicz"] = lib
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{name}", BENCH / "workloads.py")
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        if saved is None:
            del sys.modules["orlicz"]
        else:
            sys.modules["orlicz"] = saved
    return lib, workloads


def run(op):
    """(output, seconds) of one op; a raised exception is its output."""
    t0 = perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # a failing op is timed and compared like any other
        dt = perf_counter() - t0
        return f"raised {type(exc).__name__}: {exc}", dt
    return repr(out), perf_counter() - t0


def measure(sides, workload: str, seed: int, passes: int) -> dict:
    """Per-op fastest times and first outputs of both sides on one seed."""
    ops = [w.build(workload, seed) for w in sides]
    n = len(ops[0])
    cost = [[float("inf")] * n for _ in sides]
    outs = [[None] * n for _ in sides]
    gc.collect()
    for k in range(passes):
        for i in range(n):
            for s in ((0, 1) if (i + k) % 2 == 0 else (1, 0)):
                out, dt = run(ops[s][i])
                if dt < cost[s][i]:
                    cost[s][i] = dt
                if k == 0:
                    outs[s][i] = out
    kinds = [op.kind for op in ops[0]]
    differ = [(ops[0][i].label, outs[0][i], outs[1][i]) for i in range(n) if outs[0][i] != outs[1][i]]
    return {"cost": cost, "kinds": kinds, "differ": differ}


def change(a: float, b: float) -> float:
    return (b / a - 1.0) * 100.0


def p90(costs) -> float:
    return statistics.quantiles(costs, n=10)[8]


def summary(m: dict) -> dict:
    """Total, p50 and p90 of each side's per-op costs (ms), and per op class the
    change and how many of its ops cost at least side A's p90."""
    row = {}
    for key, stat in (("total_ms", sum), ("p50_ms", statistics.median), ("p90_ms", p90)):
        a, b = (stat(c) * 1e3 for c in m["cost"])
        row[key] = [a, b]
        row[key[:-3]] = round(change(a, b), 2)
    classes = {}
    p90_a = p90(m["cost"][0])
    for i, kind in enumerate(m["kinds"]):
        a, b, top = classes.get(kind, (0.0, 0.0, 0))
        cost_a = m["cost"][0][i]
        classes[kind] = (a + cost_a, b + m["cost"][1][i], top + (cost_a >= p90_a))
    total = row["total_ms"][0] / 1e3
    row["classes"] = {kind: {"share_of_a": round(a / total * 100.0, 1),
                             "change": round(change(a, b), 2),
                             "at_p90_of_a": top}
                      for kind, (a, b, top) in sorted(classes.items())}
    row["differ"] = m["differ"]
    return row


def compare(sides, workload: str, seeds, passes: int) -> dict:
    """Print the A/B of one workload on each seed; its summary row by seed."""
    rows = {}
    for seed in seeds:
        row = rows[seed] = summary(measure(sides, workload, seed, passes))
        (ta, tb), (pa, pb), (qa, qb) = row["total_ms"], row["p50_ms"], row["p90_ms"]
        print(f"{workload} seed {seed}: total {ta:.2f} -> {tb:.2f} ms ({row['total']:+.1f}%), "
              f"p50 {pa:.4f} -> {pb:.4f} ms ({row['p50']:+.1f}%), "
              f"p90 {qa:.4f} -> {qb:.4f} ms ({row['p90']:+.1f}%), {len(row['differ'])} differ")
        for kind, c in row["classes"].items():
            print(f"    {kind:40s} {c['share_of_a']:5.1f}% of A  {c['change']:+6.1f}%  "
                  f"{c['at_p90_of_a']} at or above A's p90")
        for label, a, b in row["differ"]:
            print(f"    differs: {label}\n        A: {a}\n        B: {b}")
    for key in ("total", "p50", "p90"):
        changes = [row[key] for row in rows.values()]
        print(f"{workload} {key}: B faster on {sum(c < 0 for c in changes)}/{len(changes)} "
              f"seeds, median change {statistics.median(changes):+.1f}%")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision of side A")
    ap.add_argument("--head", help="git revision of side B (default: the working tree)")
    ap.add_argument("--workload", default="analytic-norms", help="a workload, or all three")
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    ap.add_argument("--passes", type=int, default=5, help="timed passes per op and side")
    ap.add_argument("--json", help="also write the results to this file")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(BENCH))  # workloads.py imports oracles
    head = extract(args.head) if args.head else ROOT / "src" / "orlicz"
    sides = [load(extract(args.base), "orlicz_a")[1], load(head, "orlicz_b")[1]]
    names = sides[0].WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(sides[0].WORKLOADS):
        ap.error(f"unknown workload {args.workload!r}")

    seeds = [int(s) for s in args.seeds.split(",")]
    results = {name: compare(sides, name, seeds, args.passes) for name in names}
    if args.json:
        Path(args.json).write_text(json.dumps({
            "base": args.base, "head": args.head or "working tree", "passes": args.passes,
            "workloads": results}, indent=1) + "\n")
    return 1 if any(row["differ"] for rows in results.values() for row in rows.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
