"""Count the code lines of Python source files.

A line is code when a token other than a comment, a line break, an indent
or a dedent starts on it or spans it, unless that token is part of the
docstring of a module, class or function.  So blank lines, comment lines
and docstrings are not counted; a statement that spans three lines counts
3, and a string literal that is not a docstring counts like any other code.

Run it to print the count of each ``src/nomalink/*.py`` and their total:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nomalink"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_HOLDERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of every module, class and function
    docstring in ``tree``, as tokenize reports positions."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, _HOLDERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = _docstring_spans(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        if any(start <= token.start and token.end <= end for start, end in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(_PACKAGE.glob("*.py")):
        n = count(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
