"""Code lines of each module of the stokes_isolas package.

A line counts when it holds a token of code.  Blank lines, comment lines
and the lines of docstrings (a string literal that opens a module, class
or function body) do not count.  A statement or string spread over
several lines counts each of them.

Run from the repository root:

    python tools/loc.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/stokes_isolas.  It prints one line per
module, its code lines and its path, and the total last.  Run it on two
checkouts to compare them file by file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that are no code: a comment, line ends, indentation and the stream's markers.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code, docstrings excluded."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path("src/stokes_isolas")
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"loc: no modules in {package}", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
