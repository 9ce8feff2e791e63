"""``tools/codelines.py``: code lines outside comments and docstrings, per function."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TOY = '''\
"""A toy module."""

LIMIT = 3  # a trailing comment leaves the line code


def sign(x):
    """The sign of x.

    Two lines of docstring text.
    """
    # a comment is no code
    if x < 0:
        return -1
    return (
        1
    )


class Box:
    """A box."""

    def size(self):
        """No code."""
        text = """a string that is
        not a docstring"""
        return len(text)


@staticmethod
def wrapped():
    def inner():
        """An inner docstring."""
        return 0
    return inner
'''


@pytest.fixture
def tool():
    path = ROOT / "tools" / "codelines.py"
    spec = importlib.util.spec_from_file_location("codelines_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_of_a_toy_module(tool):
    # no docstring, blank or comment line; a string that is no docstring
    # counts on each of its lines
    assert tool.code_lines(TOY) == {3, 6, 12, 13, 14, 15, 16, 19, 22, 24, 25, 26,
                                    29, 30, 31, 33, 34}


def test_top_level_functions(tool):
    # a decorator counts with its function; a method is no top-level function
    assert tool.function_sizes(TOY) == [("sign", 6), ("wrapped", 5)]


def test_main_prints_modules_total_and_functions(tool, capsys):
    assert tool.main(["--top", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    modules = [line for line in lines if line.endswith(".py")]
    total = next(line for line in lines if line.endswith("total"))
    assert int(total.split()[0]) == sum(int(line.split()[0]) for line in modules)
    assert lines[len(modules) + 1] == "largest top-level functions:"
    assert len(lines) == len(modules) + 4


def test_a_closed_pipe_ends_the_output_quietly():
    # as under `| head`: the reader is gone before the first line is written
    child = subprocess.Popen([sys.executable, str(ROOT / "tools" / "codelines.py")],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 0
    assert err == b""
