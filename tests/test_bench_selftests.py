"""The benchmark's own self-tests, run from the Tier-1 suite.

``bench/test_bench.py`` checks what the benchmark harness reads of the
library: the tracer's counters, the op lists and the oracles.  It runs in
a child process, as ``python -m pytest bench/test_bench.py`` does by
hand, rather than by adding ``bench`` to ``testpaths``: with the bench
modules collected in the same process, Hypothesis draws other examples
for the library's property tests than the ones their bounds were set on.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_tests_pass():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/test_bench.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
