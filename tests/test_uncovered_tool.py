"""``tools/uncovered.py``: code lines from line tables, and the lines a run missed."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TOY = '''\
"""A toy module."""


def sign(x):
    # a comment is no code
    if x < 0:
        return -1
    return (
        1
    )
'''


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("uncovered_tool", ROOT / "tools" / "uncovered.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_of_a_toy_module(tool):
    # the docstring's assignment, the def, then each statement of the
    # body; no blank line, no comment and no line of a docstring's text
    assert tool.code_lines(compile(TOY, "toy.py", "exec")) == {1, 4, 6, 7, 8, 9}


def test_lines_missed_by_one_call(tool, tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    tracer = tool.LineTracer(str(tmp_path) + "/")
    spec = importlib.util.spec_from_file_location("uncovered_toy", path)
    toy = importlib.util.module_from_spec(spec)
    outer = sys.gettrace()  # the tool's own tracer, where it runs this test
    sys.settrace(tracer)
    try:
        spec.loader.exec_module(toy)
        assert toy.sign(2.0) == 1
    finally:
        sys.settrace(outer)
    assert tool.missed(path, tracer.ran[str(path)]) == [7]
