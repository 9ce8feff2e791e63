"""Count the code lines of ``src/orlicz``, per module and per top-level function.

    python3 tools/codelines.py            # the modules, the total and the 10 largest functions
    python3 tools/codelines.py --top 25   # the 25 largest functions

Run from anywhere in a checkout.  A code line is a line that holds (part
of) a Python token other than a comment, outside the docstrings of the
module, its classes and its functions: blank lines, comment lines and
docstring text do not count, a string that spans lines counts on each of
them.  A top-level function's lines run from its first decorator (or its
``def``) to its last line, nested functions included.  The output is one
line per module, the total, then the largest top-level functions, each
as ``count  path:name``.  A reader that closes the pipe early, as
``| head`` does, ends the output quietly, with exit status 0.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize
from pathlib import Path
from typing import List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orlicz"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> Set[int]:
    """The lines of the docstrings of the module and of every class and function in it."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> Set[int]:
    """The code lines of ``source`` (module docstring above), numbered from 1."""
    docs = docstring_lines(ast.parse(source))
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines - docs


def function_sizes(source: str) -> List[Tuple[str, int]]:
    """(name, code lines) of each top-level function of ``source``, in source order."""
    lines = code_lines(source)
    sizes = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            sizes.append((node.name, sum(start <= n <= node.end_lineno for n in lines)))
    return sizes


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=10, help="how many functions to list")
    args = parser.parse_args(argv)
    total = 0
    functions: List[Tuple[int, str]] = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        count = len(code_lines(source))
        total += count
        name = path.relative_to(ROOT)
        print(f"{count:6d}  {name}")
        functions += [(size, f"{name}:{fn}") for fn, size in function_sizes(source)]
    print(f"{total:6d}  total")
    print("largest top-level functions:")
    for size, where in sorted(functions, key=lambda f: (-f[0], f[1]))[:args.top]:
        print(f"{size:6d}  {where}")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``| head``): stop quietly, with stdout on
        # devnull so that the flush at exit does not fail once more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)
