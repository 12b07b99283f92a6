#!/usr/bin/env python3
"""Print the code lines of each module of src/cyhopf, then the total.

A code line is a physical line that holds some token of a statement: blank
lines, comments, docstrings (the leading string of a module, class or
function) and import statements do not count.  The tokens come from
tokenize and the docstrings and imports from ast, so a line a multi-line
expression spans counts once.

Usage: python scripts/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _span(node: ast.AST) -> range:
    return range(node.lineno, node.end_lineno + 1)


def code_lines(source: str) -> int:
    excluded = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            excluded.update(_span(node))
        elif isinstance(node, HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                excluded.update(_span(first))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - excluded)


def main() -> int:
    total = 0
    for path in sorted((REPO / "src" / "cyhopf").glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.stem} {n}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
