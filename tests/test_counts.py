"""Counts and outputs of the benchmark's op lists, held against ``frozen_counts.json``.

Seed 4's op lists of the three workloads run once under the bench tracer,
one op class at a time (``tools/freeze_counts.py``, loaded here as
``tests/test_ab_tool.py`` loads ``tools/ab.py``).  Per class, the
tracer's counts and the calls of each traced function must equal the
frozen ones, and so must the digest of every op's output, so a change
that adds one integrand evaluation or moves one output by one ulp fails
here.  A change that means to move them regenerates the file with
``python3 tools/freeze_counts.py`` and names each moved class in
CHANGES.md.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FROZEN = json.loads((ROOT / "tests" / "frozen_counts.json").read_text())
CLASSES = sorted(FROZEN["classes"])


@pytest.fixture(scope="module")
def measured():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "bench"))  # workloads.py imports oracles
        spec = importlib.util.spec_from_file_location("freeze_counts",
                                                      ROOT / "tools" / "freeze_counts.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        before = set(sys.modules)
        try:
            yield module.measure(FROZEN["seed"])["classes"]
        finally:
            for name in set(sys.modules) - before:
                del sys.modules[name]


def test_same_op_classes(measured):
    assert sorted(measured) == CLASSES


@pytest.mark.parametrize("kind", CLASSES, ids=CLASSES)
def test_counts_unchanged(measured, kind):
    got, frozen = measured[kind], FROZEN["classes"][kind]
    assert (got["ops"], got["counts"], got["calls"]) == \
        (frozen["ops"], frozen["counts"], frozen["calls"])


@pytest.mark.parametrize("kind", CLASSES, ids=CLASSES)
def test_outputs_unchanged(measured, kind):
    assert measured[kind]["outputs"] == FROZEN["classes"][kind]["outputs"]
