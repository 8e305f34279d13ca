#!/usr/bin/env python3
"""Count the code lines of the numrad package: no blanks, comments or docstrings.

A code line is a physical line that holds at least one token other than a
comment, and that is not part of a module, class or function docstring. A
string or bracket spanning several lines counts each line it covers.

    python tools/code_lines.py [PACKAGE_DIR]

prints one line per module and the total, for src/numrad by default.
Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0] if args else Path(__file__).resolve().parent.parent / "src" / "numrad")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:20} {count:5}")
    print(f"{'total':20} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
